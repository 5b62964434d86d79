// The benchmark's workloads: which inputs each one generates, which
// algebra and runtime modes it trains with, and the process-global knobs
// it pins before any world starts.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/gnn/model.hpp"
#include "src/graph/graph.hpp"

namespace perfbench {

using cagnet::Index;

/// Input size: the benchmark's own, or a tiny one for the tests.
enum class Scale { kFull, kSmoke };

struct Workload {
  std::string name;
  std::string algebra;      ///< algebra registry key
  std::string partitioner;  ///< "" = DistProblem::prepare(graph) identity
  bool halo = false;        ///< dist::set_halo_enabled
  bool sample = false;      ///< dist::set_sample_enabled
  std::vector<Index> fanouts = {15, 10, 5};
  Index batch_size = 64;
  /// Nominal epoch seconds on a 4-core host. The measured epoch count is
  /// --seconds divided by this, so it depends on the arguments only and
  /// every count-derived metric repeats exactly for a fixed seed.
  double nominal_epoch_s = 0.1;
  std::string inputs;  ///< one-line description of the generated inputs
};

/// Every workload, in the order the README lists them.
const std::vector<Workload>& workloads();

/// Lookup by name; nullptr when unknown.
const Workload* find_workload(const std::string& name);

/// World size of every workload (the 4-core host's core count).
inline constexpr int kRanks = 4;

/// Generate the workload's graph from `seed` with the library's own
/// generators. Deterministic in (workload, seed, scale).
cagnet::Graph make_inputs(const Workload& w, std::uint64_t seed, Scale scale);

/// The paper's 3-layer GCN over `graph`, weights seeded from `seed`.
cagnet::GnnConfig model_config(const cagnet::Graph& graph, std::uint64_t seed);

/// Set every process-global runtime knob the workload depends on through
/// the public setters, so no CAGNET_* environment variable leaks in.
/// Throws cagnet::Error when CAGNET_FAULT is set: fault injection would
/// change what the benchmark measures.
void pin_knobs(const Workload& w);

/// One line naming every pinned knob and its value, read back from the
/// library's getters.
std::string describe_knobs();

}  // namespace perfbench
