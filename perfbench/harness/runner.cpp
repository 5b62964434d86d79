#include "harness/runner.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <utility>

#include "src/core/algebra_registry.hpp"
#include "src/gnn/sampling.hpp"
#include "src/gnn/serial_trainer.hpp"
#include "src/util/error.hpp"

namespace perfbench {

using namespace cagnet;

namespace {

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

DistProblem prepare_problem(const Workload& w, const Graph& graph) {
  return w.partitioner.empty()
             ? DistProblem::prepare(graph)
             : DistProblem::prepare(graph, kRanks, w.partitioner);
}

/// Fold one measured epoch's stats into the rank's window totals.
void accumulate(const EpochStats& s, RankRecord& rec) {
  for (std::size_t p = 0; p < Profiler::kNumPhases; ++p) {
    rec.phases.add(static_cast<Phase>(p),
                   s.profiler.seconds(static_cast<Phase>(p)));
  }
  rec.comm.merge_sum(s.comm);
  rec.spmm_flops += s.work.spmm_flops();
  rec.gemm_flops += s.work.gemm_flops();
  rec.modeled_s += s.modeled_seconds_overlap(MachineModel::summit());
}

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<std::size_t>(a.size()) * sizeof(Real)) == 0;
}

bool same_bits(const std::vector<Matrix>& a, const std::vector<Matrix>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) return false;
  }
  return true;
}

bool same_bits(Real a, Real b) { return std::memcmp(&a, &b, sizeof a) == 0; }

}  // namespace

WorldRun run_world_once(const Workload& w, const Graph& graph,
                        const GnnConfig& config, const WorldPlan& plan) {
  const Clock::time_point origin = Clock::now();
  WorldRun run;
  run.plan = plan;
  run.ranks.resize(kRanks);
  SpanStore* main_store = nullptr;
  if (plan.traced) {
    for (int r = 0; r < kRanks; ++r) {
      run.stores.push_back(std::make_unique<SpanStore>(r, origin));
      run.stores.back()->reserve(
          static_cast<std::size_t>(plan.epochs()) * 64 + 16);
    }
    run.stores.push_back(std::make_unique<SpanStore>(-1, origin));
    main_store = run.stores.back().get();
  }

  const Clock::time_point t_prepare = Clock::now();
  DistProblem problem;
  {
    ScopedSpan span(main_store, "core.prepare");
    problem = prepare_problem(w, graph);
  }
  run.prepare_s = seconds_between(t_prepare, Clock::now());
  run.max_remote_rows = problem.edgecut.max_remote_rows_per_part;

  const AlgebraSpec* spec = find_algebra(w.algebra);
  CAGNET_CHECK(spec != nullptr, "unknown algebra " + w.algebra);
  const long epochs = plan.epochs();
  const long first_measured = plan.first_measured();
  Clock::time_point window_start{};
  run.marks.reserve(static_cast<std::size_t>(plan.measured + 1));

  run_world(kRanks, [&](Comm& world) {
    const int rank = world.rank();
    RankRecord& rec = run.ranks[static_cast<std::size_t>(rank)];
    SpanStore* store =
        plan.traced ? run.stores[static_cast<std::size_t>(rank)].get()
                    : nullptr;
    rec.losses.reserve(static_cast<std::size_t>(epochs));
    rec.epoch_s.reserve(static_cast<std::size_t>(plan.measured));

    const Clock::time_point t_construct = Clock::now();
    std::unique_ptr<DistTrainer> trainer;
    {
      ScopedSpan span(store, "core.construct");
      if (store != nullptr) {
        trainer = std::make_unique<DistEngine>(
            problem, config,
            std::make_unique<TracingAlgebra>(
                spec->make(problem, world, MachineModel::summit()), *store));
      } else {
        trainer = make_dist_trainer(w.algebra, problem, config, world);
      }
    }
    rec.construct_s = seconds_between(t_construct, Clock::now());

    for (long e = 0; e < epochs; ++e) {
      const bool measured = e >= first_measured;
      if (store != nullptr) store->set_epoch(static_cast<int>(e));
      const int span = store != nullptr ? store->begin("core.train_epoch") : -1;
      const Clock::time_point t0 = Clock::now();
      const EpochResult r = trainer->train_epoch();
      const Clock::time_point t1 = Clock::now();
      double dt = seconds_between(t0, t1);
      if (store != nullptr) {
        store->end(span);
        dt = span_seconds(store->spans()[static_cast<std::size_t>(span)]);
      }
      rec.losses.push_back(r.loss);
      if (e == 0) rec.first_epoch_s = dt;
      if (!measured) continue;
      rec.epoch_s.push_back(dt);
      accumulate(trainer->last_epoch_stats(), rec);
      if (rank == 0) {
        if (e == first_measured) window_start = t0;
        run.marks.push_back(seconds_between(window_start, t0));
        if (e == epochs - 1) {
          run.marks.push_back(seconds_between(window_start, t1));
        }
      }
    }
    rec.weights = trainer->weights();
  });

  const RankRecord& r0 = run.ranks.front();
  run.setup_s = run.prepare_s + r0.construct_s + r0.first_epoch_s;
  return run;
}

long measured_epochs(const Workload& w, double seconds) {
  return std::max(20L, std::lround(seconds / w.nominal_epoch_s));
}

SerialBaseline run_serial(const Workload& w, const Graph& graph,
                          const GnnConfig& config, int epochs) {
  SerialBaseline out;
  std::vector<double> times;
  const auto run_epochs = [&](auto& trainer) {
    for (int e = 0; e < epochs; ++e) {
      const Clock::time_point t0 = Clock::now();
      out.losses.push_back(trainer.train_epoch().loss);
      if (e > 0) times.push_back(seconds_between(t0, Clock::now()));
    }
  };
  if (w.sample) {
    MiniBatchOptions options;
    options.fanouts = w.fanouts;
    options.batch_size = w.batch_size * kRanks;
    MiniBatchTrainer trainer(graph, config, options);
    run_epochs(trainer);
  } else {
    SerialTrainer trainer(graph, config);
    run_epochs(trainer);
  }
  out.epoch_s = median_of(times);
  return out;
}

void Gate::fail(long epochs, const std::string& why) {
  failed += epochs;
  failures.push_back(why);
}

void check_world(const WorldRun& run, Gate& gate) {
  const long epochs = run.plan.epochs();
  gate.attempted += epochs;
  const RankRecord& r0 = run.ranks.front();
  for (long e = 0; e < epochs; ++e) {
    const auto i = static_cast<std::size_t>(e);
    bool ok = i < r0.losses.size() && std::isfinite(r0.losses[i]);
    for (const RankRecord& rec : run.ranks) {
      ok = ok && i < rec.losses.size() &&
           same_bits(rec.losses[i], r0.losses[i]);
    }
    if (!ok) gate.fail(1, std::string("epoch ") + std::to_string(e) +
                              ": loss not finite or differs between ranks");
  }
  for (const RankRecord& rec : run.ranks) {
    if (!same_bits(rec.weights, r0.weights)) {
      gate.fail(1, "replicated weights differ between ranks");
      break;
    }
  }
}

void check_against_serial(const WorldRun& run, const SerialBaseline& serial,
                          Gate& gate) {
  const std::vector<Real>& dist = run.ranks.front().losses;
  for (std::size_t e = 0; e < serial.losses.size(); ++e) {
    const Real want = serial.losses[e];
    const bool ok = e < dist.size() &&
                    std::abs(dist[e] - want) <=
                        1e-9 * std::max(Real{1}, std::abs(want));
    if (!ok) {
      gate.fail(1, std::string("epoch ") + std::to_string(e) +
                       ": loss differs from SerialTrainer beyond rounding");
    }
  }
}

void check_repeat(const std::vector<Real>& want, const std::vector<Real>& got,
                  const char* what, Gate& gate) {
  for (std::size_t e = 0; e < want.size(); ++e) {
    if (e >= got.size() || !same_bits(got[e], want[e])) {
      gate.fail(1, std::string(what) + ": epoch " + std::to_string(e) +
                       " loss does not repeat bitwise");
    }
  }
}

void check_traced_matches(const WorldRun& untraced, const WorldRun& traced,
                          Gate& gate) {
  for (std::size_t r = 0; r < untraced.ranks.size(); ++r) {
    const RankRecord& a = untraced.ranks[r];
    const RankRecord& b = traced.ranks[r];
    bool ok = a.losses.size() == b.losses.size();
    for (std::size_t e = 0; ok && e < a.losses.size(); ++e) {
      ok = same_bits(a.losses[e], b.losses[e]);
    }
    if (!ok) gate.fail(1, "traced losses differ from untraced");
    if (!same_bits(a.weights, b.weights)) {
      gate.fail(1, "traced weights differ from untraced");
    }
    for (std::size_t c = 0; c < CostMeter::kNumCategories; ++c) {
      const auto cat = static_cast<CommCategory>(c);
      if (!same_bits(a.comm.words(cat), b.comm.words(cat)) ||
          !same_bits(a.comm.latency_units(cat), b.comm.latency_units(cat))) {
        gate.fail(1, std::string("traced meter differs from untraced: ") +
                         comm_category_name(cat));
      }
    }
  }
}

double median_of(std::vector<double> samples) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double percentile_of(std::vector<double> samples, int p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const auto n = static_cast<long>(samples.size());
  const long k = (static_cast<long>(p) * n + 99) / 100;  // ceil(p n / 100)
  return samples[static_cast<std::size_t>(std::clamp(k, 1L, n) - 1)];
}

WindowTimes window_times(const std::vector<double>& epoch_s,
                         const std::vector<double>& marks) {
  WindowTimes t;
  const std::size_t n = epoch_s.size();
  if (n == 0) return t;
  const std::size_t blocks =
      std::min(n, static_cast<std::size_t>(kTimingBlocks));
  const bool timed = marks.size() == n + 1;
  t.block_epochs = static_cast<long>(n / blocks);
  for (std::size_t b = 0; b < blocks; ++b) {
    const std::size_t lo = b * n / blocks;
    const std::size_t hi = (b + 1) * n / blocks;
    const std::vector<double> block(epoch_s.begin() + static_cast<long>(lo),
                                    epoch_s.begin() + static_cast<long>(hi));
    const double p50 = median_of(block);
    const double p90 = percentile_of(block, 90);
    t.p50 = b == 0 ? p50 : std::min(t.p50, p50);
    t.p90 = b == 0 ? p90 : std::min(t.p90, p90);
    if (timed) {
      const double rate =
          static_cast<double>(hi - lo) / (marks[hi] - marks[lo]);
      t.epochs_per_s = std::max(t.epochs_per_s, rate);
    }
  }
  return t;
}

std::vector<Metric> end_to_end_metrics(const WorldRun& measured,
                                       const std::vector<double>& setup_samples,
                                       double rss_mb) {
  const RankRecord& r0 = measured.ranks.front();
  const auto n = static_cast<double>(measured.plan.measured);
  double words = 0;
  double modeled = 0;
  for (const RankRecord& rec : measured.ranks) {
    words = std::max(words, rec.comm.total_words() / n);
    modeled = std::max(modeled, rec.modeled_s / n);
  }
  const WindowTimes t = window_times(r0.epoch_s, measured.marks);
  const std::string blocks = "best of " + std::to_string(kTimingBlocks) +
                             " blocks of >=" +
                             std::to_string(t.block_epochs) + " of " +
                             std::to_string(r0.epoch_s.size()) + " epochs";
  std::vector<Metric> m;
  m.push_back({"epoch_s_p50", t.p50, "s", "median, " + blocks});
  m.push_back({"epoch_s_tail", t.p90, "s", "p90, " + blocks});
  m.push_back({"epochs_per_s", t.epochs_per_s, "1/s", blocks});
  std::string setups = "median of";
  for (double s : setup_samples) {
    setups += ' ';
    setups += std::to_string(s);
  }
  m.push_back({"setup_s", median_of(setup_samples), "s", setups});
  m.push_back({"peak_rss_mb", rss_mb, "MiB", ""});
  m.push_back({"comm_words_per_epoch", words, "words", "busiest rank"});
  m.push_back({"modeled_epoch_s", modeled, "s", "summit, busiest rank"});
  return m;
}

namespace {

/// Per-epoch layer metrics of one rank of a traced world.
std::vector<Metric> rank_layers(const WorldRun& run, std::size_t r) {
  const RankRecord& rec = run.ranks[r];
  const SpanStore& store = *run.stores[r];
  const double n = static_cast<double>(run.plan.measured);
  const long first = run.plan.first_measured();

  std::map<std::string, double> span_self;
  double calls = 0;
  double epoch_total = 0;
  const std::vector<double> self = self_seconds(store.spans());
  for (std::size_t i = 0; i < store.spans().size(); ++i) {
    const Span& s = store.spans()[i];
    if (s.epoch < first) continue;
    span_self[s.name] += self[i];
    if (std::strncmp(s.name, "algebra.", 8) == 0) calls += 1;
    if (std::strcmp(s.name, "core.train_epoch") == 0) {
      epoch_total += span_seconds(s);
    }
  }

  const auto phase = [&](Phase p) { return rec.phases.seconds(p); };
  const auto words = [&](CommCategory c) { return rec.comm.words(c) / n; };
  double phase_total = 0;
  for (std::size_t p = 0; p < Profiler::kNumPhases; ++p) {
    phase_total += phase(static_cast<Phase>(p));
  }
  const double serialized = rec.comm.overlap_serialized_seconds();
  const double spmm_s = phase(Phase::kSpmm);

  return {
      {"algebra.spmm_at_s", span_self["algebra.spmm_at"] / n, "s", ""},
      {"algebra.spmm_a_s", span_self["algebra.spmm_a"] / n, "s", ""},
      {"algebra.times_weight_s", span_self["algebra.times_weight"] / n, "s",
       ""},
      {"algebra.gather_rows_s", span_self["algebra.gather_rows"] / n, "s", ""},
      {"algebra.grad_reduce_s", span_self["algebra.grad_reduce"] / n, "s", ""},
      {"algebra.transpose_s", span_self["algebra.transpose"] / n, "s", ""},
      {"algebra.calls", calls / n, "count", ""},
      {"engine.self_s", span_self["core.train_epoch"] / n, "s", ""},
      {"comm.dense_words", words(CommCategory::kDense), "words", ""},
      {"comm.sparse_words", words(CommCategory::kSparse), "words", ""},
      {"comm.transpose_words", words(CommCategory::kTranspose), "words", ""},
      {"comm.halo_words", words(CommCategory::kHalo), "words", ""},
      {"comm.latency_units", rec.comm.total_latency_units() / n, "count", ""},
      {"comm.overlap_regions", rec.comm.overlap_regions() / n, "count", ""},
      {"comm.overlap_hidden_frac",
       serialized > 0 ? rec.comm.overlap_saved_seconds() / serialized : 0.0,
       "ratio", ""},
      {"phase.dcomm_s", phase(Phase::kDenseComm) / n, "s", ""},
      {"phase.scomm_s", phase(Phase::kSparseComm) / n, "s", ""},
      {"phase.trpose_s", phase(Phase::kTranspose) / n, "s", ""},
      {"phase.spmm_s", spmm_s / n, "s", ""},
      {"phase.misc_s", phase(Phase::kMisc) / n, "s", ""},
      {"phase.hpack_s", phase(Phase::kHaloPack) / n, "s", ""},
      {"phase.unattributed_s", (epoch_total - phase_total) / n, "s", ""},
      {"sparse.spmm_flops", rec.spmm_flops / n, "flop", ""},
      {"sparse.spmm_gflops_s",
       spmm_s > 0 ? rec.spmm_flops / spmm_s * 1e-9 : 0.0, "GFLOP/s", ""},
      {"dense.gemm_flops", rec.gemm_flops / n, "flop", ""},
  };
}

}  // namespace

std::vector<Metric> per_layer_metrics(const WorldRun& traced,
                                      double untraced_p50,
                                      const SerialBaseline& serial) {
  CAGNET_CHECK(traced.plan.traced && traced.plan.measured > 0,
               "per-layer metrics need a traced, measured world");
  std::size_t busiest = 0;
  std::size_t critical = 0;
  double most_words = -1;
  double most_compute = -1;
  for (std::size_t r = 0; r < traced.ranks.size(); ++r) {
    const RankRecord& rec = traced.ranks[r];
    const double compute = rec.phases.seconds(Phase::kSpmm) +
                           rec.phases.seconds(Phase::kMisc) +
                           rec.phases.seconds(Phase::kHaloPack) +
                           rec.phases.seconds(Phase::kCompressPack);
    if (rec.comm.total_words() > most_words) {
      most_words = rec.comm.total_words();
      busiest = r;
    }
    if (compute > most_compute) {
      most_compute = compute;
      critical = r;
    }
  }
  const std::vector<Metric> busy = rank_layers(traced, busiest);
  const std::vector<Metric> crit = rank_layers(traced, critical);

  double construct = 0;
  double first_epoch = 0;
  for (const RankRecord& rec : traced.ranks) {
    construct = std::max(construct, rec.construct_s);
    first_epoch = std::max(first_epoch, rec.first_epoch_s);
  }
  const double traced_p50 =
      window_times(traced.ranks.front().epoch_s, traced.marks).p50;

  std::vector<Metric> m;
  m.push_back({"core.prepare_s", traced.prepare_s, "s", ""});
  m.push_back({"core.construct_s", construct, "s", "slowest rank"});
  m.push_back({"core.first_epoch_s", first_epoch, "s", "slowest rank"});
  for (std::size_t i = 0; i < busy.size(); ++i) {
    m.push_back({busy[i].name + ".busiest", busy[i].value, busy[i].unit,
                 std::string("rank ") + std::to_string(busiest)});
    m.push_back({crit[i].name + ".critical", crit[i].value, crit[i].unit,
                 std::string("rank ") + std::to_string(critical)});
  }
  m.push_back({"halo.max_remote_rows",
               static_cast<double>(traced.max_remote_rows), "rows", ""});
  m.push_back({"baseline.serial_epoch_s", serial.epoch_s, "s", ""});
  m.push_back({"baseline.speedup",
               untraced_p50 > 0 ? serial.epoch_s / untraced_p50 : 0.0, "x",
               "serial epoch over untraced p50"});
  m.push_back({"trace.overhead",
               untraced_p50 > 0 ? traced_p50 / untraced_p50 - 1.0 : 0.0,
               "ratio", "traced p50 over untraced p50, minus 1"});
  return m;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
