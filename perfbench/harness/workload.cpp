#include "harness/workload.hpp"

#include <cstdlib>
#include <sstream>
#include <utility>

#include "src/comm/compress.hpp"
#include "src/comm/contract_check.hpp"
#include "src/core/dist_common.hpp"
#include "src/graph/datasets.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/error.hpp"
#include "src/util/parallel.hpp"

namespace perfbench {

using namespace cagnet;

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = [] {
    std::vector<Workload> w(4);
    w[0].name = "summa-2d";
    w[0].algebra = "2d";
    w[0].nominal_epoch_s = 0.115;
    w[0].inputs = "protein Table VI analog at 1/1024 (R-MAT, ~8.5k vertices, "
                  "~667k nonzeros, f=128, 256 classes), block layout";
    w[1].name = "replicated-15d";
    w[1].algebra = "1.5d-c2";
    w[1].nominal_epoch_s = 0.14;
    w[1].inputs = w[0].inputs;
    w[2].name = "halo-local-1d";
    w[2].algebra = "1d";
    w[2].partitioner = "greedy-bfs";
    w[2].halo = true;
    w[2].nominal_epoch_s = 0.1;
    w[2].inputs = "planted communities, 65536 vertices in 4096 communities "
                  "of 16, average degree ~13, ~3% of edges crossing, f=64, "
                  "16 classes, ids shuffled, greedy-bfs partition";
    w[3].name = "sampled-1d";
    w[3].algebra = "1d";
    w[3].sample = true;
    w[3].fanouts = {10, 5, 3};
    w[3].batch_size = 256;
    w[3].nominal_epoch_s = 0.2;
    w[3].inputs = "R-MAT, 32768 vertices, average degree ~15, f=64, "
                  "16 classes, fanouts 10,5,3, batch 256 per rank";
    return w;
  }();
  return all;
}

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

namespace {

/// Features uniform in [-1, 1], labels uniform over `classes`.
Graph finish_graph(Coo coo, Index f, Index classes, Rng& rng,
                   const std::string& name) {
  Graph g;
  g.name = name;
  const Index n = coo.rows();
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, Real{-1}, Real{1});
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (Index& label : g.labels) {
    label = static_cast<Index>(
        rng.next_below(static_cast<std::uint64_t>(classes)));
  }
  return g;
}

}  // namespace

Graph make_inputs(const Workload& w, std::uint64_t seed, Scale scale) {
  const bool smoke = scale == Scale::kSmoke;
  if (w.algebra != "1d") {
    SyntheticOptions opt;
    opt.scale = smoke ? 1.0 / 16384 : 1.0 / 1024;
    opt.seed = seed;
    return make_dataset("protein", opt);
  }
  // Both sizes make an epoch long (~0.1 s halo, ~0.2 s sampled) next to
  // the host's scheduling hiccups, so a hiccup lengthens nearly every
  // epoch a little instead of a few epochs a lot, and the p90 stays put.
  const Index n = smoke ? 1024 : (w.sample ? 32768 : 65536);
  constexpr Index kFeatures = 64;
  constexpr Index kClasses = 16;
  Rng rng(seed);
  Rng topo = rng.split(1);
  Rng rest = rng.split(2);
  if (w.halo) {
    // Twelve directed draws inside each vertex's 16-vertex community
    // (symmetrized, nearly a clique) plus n / 4 uniform edges (~0.5 per
    // vertex once symmetrized): ~3% of nonzeros cross communities. Small
    // communities keep the greedy-bfs cut, and so the halo volume, steady
    // across seeds: a part boundary splits few vertices' neighborhoods.
    const Index communities = n / 16;
    Coo coo = planted_partition(n, communities, /*intra_degree=*/12.0,
                                /*inter_degree=*/0.0, topo,
                                /*hub_fraction=*/0.0);
    const Coo cross = erdos_renyi(n, 0.25, topo);
    for (const Triple& t : cross.entries()) coo.add(t.row, t.col, t.val);
    coo.sort_and_combine();
    // Shuffle ids so the locality is there to be found by the
    // partitioner, not handed to the block layout.
    coo.permute(random_permutation(n, topo));
    return finish_graph(std::move(coo), kFeatures, kClasses, rest,
                        "planted");
  }
  return finish_graph(rmat(n, n * 8, topo), kFeatures, kClasses, rest,
                      "rmat");
}

GnnConfig model_config(const Graph& graph, std::uint64_t seed) {
  GnnConfig config =
      GnnConfig::three_layer(graph.feature_dim(), graph.num_classes, 16);
  config.seed = seed;
  return config;
}

void pin_knobs(const Workload& w) {
  const char* fault = std::getenv("CAGNET_FAULT");
  CAGNET_CHECK(fault == nullptr || fault[0] == '\0',
               "CAGNET_FAULT is set: the benchmark refuses to run with "
               "fault injection armed");
  dist::set_overlap_enabled(true);
  dist::set_epoch_cache_enabled(true);
  dist::set_halo_enabled(w.halo);
  dist::set_stale_k(0);
  dist::set_stale_bounds(1, 8);
  dist::set_preagg_enabled(false);
  set_compress_mode(CompressMode::kOff);
  dist::set_sample_enabled(w.sample);
  dist::set_sample_fanouts(w.fanouts);
  dist::set_sample_batch_size(w.batch_size);
  contract::set_enabled_for_testing(0);
  override_thread_budget(kRanks);
}

std::string describe_knobs() {
  std::ostringstream out;
  out << "overlap=" << dist::overlap_enabled()
      << " epoch_cache=" << dist::epoch_cache_enabled()
      << " halo=" << dist::halo_enabled() << " stale=" << dist::stale_k()
      << " stale_bounds=" << dist::stale_min_k() << ','
      << dist::stale_max_k() << " preagg=" << dist::preagg_enabled()
      << " compress=" << compress_mode_name(compress_mode())
      << " sample=" << dist::sample_enabled() << " fanouts=";
  const std::vector<Index>& fanouts = dist::sample_fanouts();
  for (std::size_t i = 0; i < fanouts.size(); ++i) {
    out << (i > 0 ? "," : "") << fanouts[i];
  }
  out << " batch=" << dist::sample_batch_size()
      << " check=" << contract::enabled() << " threads=" << thread_budget();
  return out.str();
}

}  // namespace perfbench
