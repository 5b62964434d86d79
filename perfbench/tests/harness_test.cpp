// Tests of the benchmark harness on smoke-size inputs: tracing is
// observationally pure, span self-times account for each rank's measured
// epoch, and the correctness gate rejects what it should.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "harness/runner.hpp"

namespace perfbench {
namespace {

using cagnet::Real;

constexpr std::uint64_t kSeed = 5;

class PerWorkload : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    w_ = find_workload(GetParam());
    ASSERT_NE(w_, nullptr);
    pin_knobs(*w_);
    graph_ = make_inputs(*w_, kSeed, Scale::kSmoke);
    config_ = model_config(graph_, kSeed);
  }

  const Workload* w_ = nullptr;
  cagnet::Graph graph_;
  cagnet::GnnConfig config_;
};

TEST_P(PerWorkload, TracedMatchesUntracedBitwise) {
  const WorldRun plain = run_world_once(*w_, graph_, config_, {1, 4, false});
  const WorldRun traced = run_world_once(*w_, graph_, config_, {1, 4, true});
  Gate gate;
  check_world(plain, gate);
  check_world(traced, gate);
  check_traced_matches(plain, traced, gate);
  for (const std::string& f : gate.failures) ADD_FAILURE() << f;
  EXPECT_EQ(gate.attempted, 12);
  EXPECT_EQ(gate.failed, 0);
  // The meters saw real traffic, so the comparison was not vacuous.
  EXPECT_GT(plain.ranks[0].comm.total_words(), 0.0);
}

TEST_P(PerWorkload, SpanSelfTimesSumToEachRanksEpochTime) {
  const WorldPlan plan{1, 3, true};
  const WorldRun run = run_world_once(*w_, graph_, config_, plan);
  ASSERT_EQ(run.stores.size(), static_cast<std::size_t>(kRanks) + 1);
  for (int r = 0; r < kRanks; ++r) {
    const std::vector<Span>& spans =
        run.stores[static_cast<std::size_t>(r)]->spans();
    const std::vector<double> self = self_seconds(spans);
    const RankRecord& rec = run.ranks[static_cast<std::size_t>(r)];
    ASSERT_EQ(rec.epoch_s.size(), static_cast<std::size_t>(plan.measured));
    for (long m = 0; m < plan.measured; ++m) {
      const long epoch = plan.first_measured() + m;
      double sum = 0;
      int algebra_spans = 0;
      for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].epoch != epoch) continue;
        EXPECT_GE(self[i], 0.0);
        sum += self[i];
        if (std::strncmp(spans[i].name, "algebra.", 8) == 0) ++algebra_spans;
      }
      const double epoch_s = rec.epoch_s[static_cast<std::size_t>(m)];
      EXPECT_GT(algebra_spans, 0) << "rank " << r << " epoch " << epoch;
      EXPECT_NEAR(sum, epoch_s, 1e-9 + 1e-12 * epoch_s)
          << "rank " << r << " epoch " << epoch;
    }
  }
}

TEST_P(PerWorkload, GatePassesOnTheReferenceAndRejectsAWrongLoss) {
  const WorldRun run = run_world_once(*w_, graph_, config_, {1, 2, false});
  const SerialBaseline serial = run_serial(*w_, graph_, config_, 3);
  ASSERT_EQ(serial.losses.size(), 3u);
  Gate gate;
  check_world(run, gate);
  if (!w_->sample) check_against_serial(run, serial, gate);
  for (const std::string& f : gate.failures) ADD_FAILURE() << f;

  std::vector<Real> wrong = run.ranks[0].losses;
  wrong[1] = std::nextafter(wrong[1], Real{0});
  Gate repeat;
  check_repeat(wrong, run.ranks[0].losses, "perturbed", repeat);
  EXPECT_EQ(repeat.failed, 1);
  if (!w_->sample) {
    SerialBaseline off = serial;
    off.losses[2] *= 1 + 1e-6;
    Gate vs_serial;
    check_against_serial(run, off, vs_serial);
    EXPECT_EQ(vs_serial.failed, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         ::testing::Values("summa-2d", "replicated-15d",
                                           "halo-local-1d", "sampled-1d"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (c == '-') c = '_';
                           }
                           return name;
                         });

TEST(SelfSeconds, SubtractsTheUnionOfChildrenClippedToTheParent) {
  std::vector<Span> spans(4);
  spans[0] = {"root", 0, 0, 0, 1000, -1};
  spans[1] = {"a", 0, 0, 100, 400, 0};
  spans[2] = {"b", 0, 0, 300, 600, 0};   // overlaps a by 100 ns
  spans[3] = {"c", 0, 0, 900, 1500, 0};  // runs past the root's end
  const std::vector<double> self = self_seconds(spans);
  EXPECT_NEAR(self[0], 400e-9, 1e-15);  // 1000 - (500 + 100)
  EXPECT_NEAR(self[1], 300e-9, 1e-15);
  EXPECT_NEAR(self[3], 600e-9, 1e-15);
}

TEST(Stats, TimingsComeFromTheBestBlock) {
  // Blocks of ten epochs: the first all 1 s, the others alternating 1 s
  // and 3 s. The first block is the quiet one for every statistic.
  std::vector<double> epochs(10, 1.0);
  for (int i = 0; i < 10 * (kTimingBlocks - 1); ++i) {
    epochs.push_back(i % 2 == 0 ? 1.0 : 3.0);
  }
  std::vector<double> marks{0};
  for (double dt : epochs) marks.push_back(marks.back() + dt + 0.25);
  const WindowTimes t = window_times(epochs, marks);
  EXPECT_EQ(t.block_epochs, 10);
  EXPECT_EQ(t.p50, 1.0);
  EXPECT_EQ(t.p90, 1.0);
  EXPECT_DOUBLE_EQ(t.epochs_per_s, 10 / 12.5);
  EXPECT_EQ(window_times(epochs, {}).epochs_per_s, 0.0);

  std::vector<double> samples;
  for (int i = 1; i <= 100; ++i) samples.push_back(i);
  EXPECT_EQ(percentile_of(samples, 90), 90.0);
  samples.resize(33);
  EXPECT_EQ(percentile_of(samples, 90), 30.0);
  EXPECT_EQ(median_of({3, 1, 2}), 2.0);
  EXPECT_EQ(median_of({4, 1, 2, 3}), 2.5);
}

TEST(Knobs, PinningOverridesEveryKnobTheWorkloadsUse) {
  const Workload& sampled = *find_workload("sampled-1d");
  pin_knobs(sampled);
  const std::string knobs = describe_knobs();
  EXPECT_NE(knobs.find("sample=1"), std::string::npos) << knobs;
  EXPECT_NE(knobs.find("fanouts=10,5,3"), std::string::npos) << knobs;
  EXPECT_NE(knobs.find("batch=256"), std::string::npos) << knobs;
  EXPECT_NE(knobs.find("threads=4"), std::string::npos) << knobs;
  pin_knobs(*find_workload("halo-local-1d"));
  EXPECT_NE(describe_knobs().find("halo=1"), std::string::npos);
  EXPECT_NE(describe_knobs().find("sample=0"), std::string::npos);
}

}  // namespace
}  // namespace perfbench
