// Running one workload: simulated worlds driven through the public API,
// per-epoch stats accumulated on every rank, the correctness gate, and
// the end-to-end and per-layer metrics.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "src/core/dist_common.hpp"

namespace perfbench {

/// What one rank saw over one world's lifetime.
struct RankRecord {
  double construct_s = 0;    ///< algebra + engine construction
  double first_epoch_s = 0;  ///< the cache-filling first epoch
  std::vector<cagnet::Real> losses;  ///< every epoch the world ran
  std::vector<double> epoch_s;       ///< measured epochs only
  // Summed over the measured epochs from last_epoch_stats():
  cagnet::Profiler phases;
  cagnet::CostMeter comm;
  double spmm_flops = 0;
  double gemm_flops = 0;
  double modeled_s = 0;  ///< modeled_seconds_overlap(MachineModel::summit())
  std::vector<cagnet::Matrix> weights;  ///< after the last epoch
};

/// Epochs one world runs: the first (cache-filling) epoch, `warmup`
/// untimed epochs, then `measured` timed ones.
struct WorldPlan {
  long warmup = 0;
  long measured = 0;
  bool traced = false;

  long epochs() const { return 1 + warmup + measured; }
  /// Epoch id of the first measured epoch.
  long first_measured() const { return 1 + warmup; }
};

struct WorldRun {
  WorldPlan plan;
  double prepare_s = 0;  ///< DistProblem::prepare
  /// prepare + rank 0's construction and first epoch: the set-up a user
  /// pays before training runs at speed.
  double setup_s = 0;
  /// Rank 0's clock, in seconds from the start of the first measured
  /// epoch, at the start of each measured epoch and at the end of the
  /// last: measured + 1 marks.
  std::vector<double> marks;
  cagnet::Index max_remote_rows = 0;  ///< edge_cut of the prepared problem
  std::vector<RankRecord> ranks;
  /// Traced worlds: one store per rank, then the main thread's (prepare).
  std::vector<std::unique_ptr<SpanStore>> stores;
};

/// Prepare the problem and run one world of kRanks rank threads. Traced
/// worlds wrap the registry's algebra in TracingAlgebra and record
/// core.* spans around construction and every train_epoch; untraced ones
/// go through make_dist_trainer. The harness adds no collective of its
/// own. Exceptions from the world propagate.
WorldRun run_world_once(const Workload& w, const cagnet::Graph& graph,
                        const cagnet::GnnConfig& config,
                        const WorldPlan& plan);

/// Measured epoch count for a run of `seconds` (at least 20, so each
/// timing block has epochs beyond its median).
long measured_epochs(const Workload& w, double seconds);

/// Single-process reference run on the same graph: SerialTrainer for the
/// full-batch workloads, MiniBatchTrainer with the same fanouts and the
/// world's global batch for the sampled one.
struct SerialBaseline {
  std::vector<cagnet::Real> losses;
  double epoch_s = 0;  ///< median over the epochs after the first
};
SerialBaseline run_serial(const Workload& w, const cagnet::Graph& graph,
                          const cagnet::GnnConfig& config, int epochs);

/// Epoch counts of the correctness gate: every epoch a world runs is
/// attempted; an epoch fails when its world threw, its loss is not
/// finite or differs between ranks, or a check below rejects it.
struct Gate {
  long attempted = 0;
  long failed = 0;
  std::vector<std::string> failures;

  void fail(long epochs, const std::string& why);
  bool ok() const { return failed == 0; }
};

/// Per-world checks: finite, rank-identical losses every epoch; weights
/// bitwise identical across ranks at the end (a mismatch fails the last
/// epoch). Counts the world's epochs as attempted.
void check_world(const WorldRun& run, Gate& gate);

/// Full-batch: the world's first epochs match the serial losses to
/// rounding (relative 1e-9; partitioned worlds sum in another order).
void check_against_serial(const WorldRun& run, const SerialBaseline& serial,
                          Gate& gate);

/// `got` starts with `want`, bitwise (rank 0's losses of two worlds).
void check_repeat(const std::vector<cagnet::Real>& want,
                  const std::vector<cagnet::Real>& got, const char* what,
                  Gate& gate);

/// Tracing is observationally pure: losses, final weights, and every
/// per-category meter total match the untraced world bitwise.
void check_traced_matches(const WorldRun& untraced, const WorldRun& traced,
                          Gate& gate);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  ///< printed beside the value, not part of the JSON
};

double median_of(std::vector<double> samples);
/// Nearest-rank percentile p (1..100); 0 for no samples.
double percentile_of(std::vector<double> samples, int p);

/// The measured window is cut into kTimingBlocks blocks of consecutive
/// epochs (sizes differ by at most one), and each timing metric is taken
/// from its best block. The host is shared: spells of contention from
/// other tenants slow every epoch for seconds at a time, and a statistic
/// over the whole window moves with how much of the run such a spell
/// covers. A change to the program shows in every block, the best one too.
constexpr int kTimingBlocks = 8;

struct WindowTimes {
  double p50 = 0;           ///< lowest block median
  double p90 = 0;           ///< lowest block p90 (nearest rank)
  double epochs_per_s = 0;  ///< highest block epochs / block wall time
  long block_epochs = 0;    ///< epochs in the smallest block
};
/// `epoch_s` are rank 0's measured epoch times; `marks` as in WorldRun,
/// or empty, which leaves epochs_per_s at 0.
WindowTimes window_times(const std::vector<double>& epoch_s,
                         const std::vector<double>& marks);

/// epoch_s_p50, epoch_s_tail, epochs_per_s, setup_s (median of
/// `setup_samples`), peak_rss_mb, comm_words_per_epoch, modeled_epoch_s.
std::vector<Metric> end_to_end_metrics(const WorldRun& measured,
                                       const std::vector<double>& setup_samples,
                                       double peak_rss_mb);

/// The per-layer breakdown of a traced world, each per-rank layer metric
/// reported for the busiest rank (most metered words) and the
/// critical-path rank (most local compute seconds), plus the set-up
/// spans, the serial baseline, and the tracing overhead.
std::vector<Metric> per_layer_metrics(const WorldRun& traced,
                                      double untraced_p50,
                                      const SerialBaseline& serial);

/// Peak resident set of this process so far, in MiB.
double peak_rss_mb();

}  // namespace perfbench
