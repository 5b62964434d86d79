// perfbench: run one benchmark workload and print its metrics.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--trace-file PATH]
//             [--commit ID] [--source-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs an untraced and
// a traced world with the same epochs and prints the per-layer metrics.
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is 0 only when
// every correctness check passed. perfbench/run.py builds this program and
// calls it; see perfbench/README.md.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/runner.hpp"

namespace perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
  bool smoke = false;
  std::string trace_file;
  std::string commit = "unknown";
  std::string source_digest = "unknown";
};

/// Strict parser: every flag is known, every value present and well formed.
Args parse_args(int argc, char** argv) {
  Args a;
  std::map<std::string, std::string> values;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    static const char* const kValued[] = {
        "--workload",   "--seed",   "--seconds",
        "--trace",      "--trace-file", "--commit", "--source-digest"};
    bool known = false;
    for (const char* k : kValued) known = known || flag == k;
    if (!known) throw std::invalid_argument("unknown flag " + flag);
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    values[flag] = argv[++i];
  }
  const auto need = [&](const char* flag) {
    const auto it = values.find(flag);
    if (it == values.end()) {
      throw std::invalid_argument(std::string("missing ") + flag);
    }
    return it->second;
  };
  const auto whole = [](const std::string& s, const char* flag) {
    std::size_t used = 0;
    const long long v = std::stoll(s, &used);
    if (used != s.size() || v < 0) {
      throw std::invalid_argument(std::string(flag) + " takes a whole number");
    }
    return v;
  };
  a.workload = need("--workload");
  a.seed = static_cast<std::uint64_t>(whole(need("--seed"), "--seed"));
  std::size_t used = 0;
  const std::string secs = need("--seconds");
  a.seconds = std::stod(secs, &used);
  if (used != secs.size() || !(a.seconds > 0)) {
    throw std::invalid_argument("--seconds takes a positive number");
  }
  const long long trace = whole(need("--trace"), "--trace");
  if (trace > 1) throw std::invalid_argument("--trace takes 0 or 1");
  a.trace = static_cast<int>(trace);
  if (values.count("--trace-file") != 0) a.trace_file = values["--trace-file"];
  if (values.count("--commit") != 0) a.commit = values["--commit"];
  if (values.count("--source-digest") != 0) {
    a.source_digest = values["--source-digest"];
  }
  return a;
}

void print_metrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("%-34s %16.9g %-8s%s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.empty() ? "" : "  ", m.note.c_str());
  }
}

/// The result line: exactly correct, attempted, failed, metrics.
void print_json(const Gate& gate, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
              "\"metrics\": {",
              gate.ok() ? "true" : "false", gate.attempted, gate.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i > 0 ? ", " : "", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

/// Run `body`, recording a throw as `epochs` failed epochs.
template <typename Body>
bool guarded(Gate& gate, long epochs, const char* what, Body&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    gate.attempted += epochs;
    gate.fail(epochs, std::string(what) + " threw: " + e.what());
    return false;
  }
}

/// Set-ups per run; the median is setup_s.
constexpr int kSetups = 9;

int run(const Args& args) {
  const Workload* w = find_workload(args.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n",
                 args.workload.c_str());
    return 2;
  }
  pin_knobs(*w);
  const Scale scale = args.smoke ? Scale::kSmoke : Scale::kFull;
  const long measured =
      args.smoke ? 20 : measured_epochs(*w, args.seconds);
  const cagnet::Graph graph = make_inputs(*w, args.seed, scale);
  const cagnet::GnnConfig config = model_config(graph, args.seed);

  std::printf("# workload %s  seed %llu  trace %d%s\n", w->name.c_str(),
              static_cast<unsigned long long>(args.seed), args.trace,
              args.smoke ? "  (smoke inputs)" : "");
  std::printf("# inputs: %s\n", w->inputs.c_str());
  std::printf("# graph: %lld vertices, %lld nonzeros, f=%lld, %lld classes\n",
              static_cast<long long>(graph.num_vertices()),
              static_cast<long long>(graph.num_edges()),
              static_cast<long long>(graph.feature_dim()),
              static_cast<long long>(graph.num_classes));
  std::printf("# model: 3-layer GCN, hidden 16, algebra %s, %d ranks, "
              "partitioner %s\n",
              w->algebra.c_str(), kRanks,
              w->partitioner.empty() ? "none (block layout)"
                                     : w->partitioner.c_str());
  std::printf("# pinned: %s\n", describe_knobs().c_str());
  std::printf("# build: %s  commit %s  source %s\n", PERFBENCH_BUILD_TYPE,
              args.commit.c_str(), args.source_digest.c_str());
  std::printf("# epochs: 1 first + 1 warm-up + %ld measured per world\n",
              measured);
  std::fflush(stdout);

  Gate gate;
  std::vector<Metric> metrics;
  const WorldPlan window{1, measured, false};
  WorldRun main_run;
  bool have_main = false;
  std::vector<double> setups;

  if (args.trace == 0) {
    // Repeated set-ups; the last world continues into the measured window.
    // The first epoch is deterministic, so every set-up repeats it.
    std::vector<cagnet::Real> first_losses;
    for (int s = 0; s < kSetups; ++s) {
      const WorldPlan plan = s + 1 == kSetups ? window : WorldPlan{};
      WorldRun run;
      if (!guarded(gate, plan.epochs(), "world",
                   [&] { run = run_world_once(*w, graph, config, plan); })) {
        continue;
      }
      check_world(run, gate);
      setups.push_back(run.setup_s);
      const std::vector<cagnet::Real>& losses = run.ranks.front().losses;
      if (first_losses.empty()) {
        first_losses = {losses.front()};
      } else {
        check_repeat(first_losses, losses, "set-up first epoch", gate);
      }
      if (plan.measured > 0) {
        main_run = std::move(run);
        have_main = true;
      }
    }
  } else {
    guarded(gate, window.epochs(), "untraced world", [&] {
      main_run = run_world_once(*w, graph, config, window);
      have_main = true;
    });
    if (have_main) check_world(main_run, gate);
  }
  const double rss = peak_rss_mb();
  const bool have_window = have_main && main_run.plan.measured > 0;

  SerialBaseline serial;
  guarded(gate, 1, "serial baseline",
          [&] { serial = run_serial(*w, graph, config, 4); });
  if (have_window && !w->sample) check_against_serial(main_run, serial, gate);
  if (have_window && w->sample) {
    // Sampled epochs are deterministic for a fixed seed: a fresh world
    // repeats the trajectory bitwise.
    const WorldPlan plan{2, 0, false};
    guarded(gate, plan.epochs(), "repeat world", [&] {
      const WorldRun again = run_world_once(*w, graph, config, plan);
      check_world(again, gate);
      check_repeat(again.ranks.front().losses, main_run.ranks.front().losses,
                   "sampled trajectory", gate);
    });
  }

  std::vector<Metric> e2e;
  if (have_window) {
    if (setups.empty()) setups.push_back(main_run.setup_s);
    e2e = end_to_end_metrics(main_run, setups, rss);
  }
  if (args.trace == 0) {
    metrics = e2e;
  } else if (have_window) {
    const WorldPlan traced_plan{1, measured, true};
    WorldRun traced;
    if (guarded(gate, traced_plan.epochs(), "traced world", [&] {
          traced = run_world_once(*w, graph, config, traced_plan);
        })) {
      check_world(traced, gate);
      check_traced_matches(main_run, traced, gate);
      const double untraced_p50 =
          window_times(main_run.ranks[0].epoch_s, main_run.marks).p50;
      metrics = per_layer_metrics(traced, untraced_p50, serial);
      if (!args.trace_file.empty()) {
        std::vector<const SpanStore*> stores;
        for (const auto& s : traced.stores) stores.push_back(s.get());
        write_chrome_trace(args.trace_file, stores);
        std::printf("# trace: %s\n", args.trace_file.c_str());
      }
    }
  }

  if (!have_window) gate.fail(1, "no measured window");
  std::printf("# end-to-end (untraced)\n");
  print_metrics(e2e);
  const double error_rate =
      gate.attempted > 0 ? static_cast<double>(gate.failed) /
                               static_cast<double>(gate.attempted)
                         : 1.0;
  std::printf("%-34s %16.9g %-8s  %ld of %ld epochs\n", "error_rate",
              error_rate, "ratio", gate.failed, gate.attempted);
  if (args.trace == 1 && !metrics.empty()) {
    std::printf("# per-layer (traced)\n");
    print_metrics(metrics);
  }
  for (const std::string& f : gate.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  print_json(gate, metrics);
  return gate.ok() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  try {
    args = perfbench::parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
