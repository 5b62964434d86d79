// Compressed-communication tests: codec units (error bounds, determinism,
// error feedback), the coded reductions' decode-sum semantics and
// metered words-on-wire, and trainer-level lossy convergence on the
// planted-partition graph — the acceptance contract of the lossy modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <mutex>
#include <string>
#include <vector>

#include "src/comm/comm.hpp"
#include "src/comm/compress.hpp"
#include "src/core/algebra_registry.hpp"
#include "src/graph/graph.hpp"
#include "src/sparse/generate.hpp"
#include "src/util/parallel.hpp"

namespace cagnet {
namespace {

/// Deterministic, sign-mixed, chunk-boundary-unfriendly test values.
std::vector<Real> wave(std::size_t n, int salt) {
  std::vector<Real> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = std::sin(0.05 * static_cast<double>(i + 1) * (salt + 1)) *
           (1.0 + 0.01 * static_cast<double>(i % 7));
  }
  return v;
}

/// Restore the process-global compression mode (and the runtime toggles)
/// on scope exit, so these tests behave identically whatever ambient
/// CAGNET_COMPRESS the suite was launched under.
class ModeGuard {
 public:
  ModeGuard()
      : mode_(compress_mode()), overlap_(dist::overlap_enabled()),
        halo_(dist::halo_enabled()) {}
  ~ModeGuard() {
    set_compress_mode(mode_);
    dist::set_overlap_enabled(overlap_);
    dist::set_halo_enabled(halo_);
  }

 private:
  CompressMode mode_;
  bool overlap_;
  bool halo_;
};

// ---- Codec units ----

TEST(CompressCodec, NamesParseAndRoundTrip) {
  for (CompressMode mode :
       {CompressMode::kOff, CompressMode::kFp16, CompressMode::kInt8,
        CompressMode::k1Bit}) {
    EXPECT_EQ(parse_compress_mode(compress_mode_name(mode)), mode);
  }
  EXPECT_THROW(parse_compress_mode("zstd"), Error);
  EXPECT_EQ(row_compress_mode() == CompressMode::k1Bit, false);
}

TEST(CompressCodec, EncodedSizesAndRatios) {
  const std::size_t n = 1000;  // 4 codec chunks: 256 + 256 + 256 + 232
  EXPECT_EQ(encoded_size_bytes(CompressMode::kOff, n), 8 * n);
  EXPECT_EQ(encoded_size_bytes(CompressMode::kFp16, n), 2 * n);
  EXPECT_EQ(encoded_size_bytes(CompressMode::kInt8, n), n + 4 * 4);
  EXPECT_EQ(encoded_size_bytes(CompressMode::k1Bit, n),
            8 * 4 + 3 * 32 + (232 + 7) / 8);

  const auto ratio = [n](CompressMode mode) {
    return static_cast<double>(encoded_size_bytes(CompressMode::kOff, n)) /
           static_cast<double>(encoded_size_bytes(mode, n));
  };
  EXPECT_DOUBLE_EQ(ratio(CompressMode::kFp16), 4.0);
  EXPECT_GE(ratio(CompressMode::kInt8), 3.0);   // ~7.9x
  EXPECT_GE(ratio(CompressMode::k1Bit), 20.0);  // ~51x
}

TEST(CompressCodec, Fp16RoundTripWithinHalfPrecision) {
  const std::size_t n = 700;
  const std::vector<Real> src = wave(n, 3);
  std::vector<std::uint8_t> enc(encoded_size_bytes(CompressMode::kFp16, n));
  std::vector<Real> dec(n);
  compress_encode(CompressMode::kFp16, src, enc.data(), nullptr);
  compress_decode(CompressMode::kFp16, enc.data(), n, dec.data());
  for (std::size_t i = 0; i < n; ++i) {
    // Round-to-nearest-even half: relative error <= 2^-11 for normals.
    EXPECT_LE(std::abs(dec[i] - src[i]),
              std::max(std::abs(src[i]) * 0x1p-11, 1e-7))
        << "i=" << i;
  }
}

TEST(CompressCodec, Int8ErrorBoundedByChunkScale) {
  const std::size_t n = 600;  // chunks of 256, 256, 88
  std::vector<Real> src = wave(n, 5);
  // Zero out the middle chunk to exercise the scale == 0 path.
  std::fill(src.begin() + 256, src.begin() + 512, Real{0});
  std::vector<std::uint8_t> enc(encoded_size_bytes(CompressMode::kInt8, n));
  std::vector<Real> dec(n);
  compress_encode(CompressMode::kInt8, src, enc.data(), nullptr);
  compress_decode(CompressMode::kInt8, enc.data(), n, dec.data());
  for (std::size_t c = 0; c < n; c += kCompressChunk) {
    const std::size_t hi = std::min(n, c + kCompressChunk);
    Real amax = 0;
    for (std::size_t i = c; i < hi; ++i) amax = std::max(amax, std::abs(src[i]));
    // |v - scale*round(v/scale)| <= scale/2, plus float-storage slack on
    // the scale itself.
    const Real bound = amax > 0 ? (amax / 127.0) * 0.5 * (1 + 1e-6) : 0;
    for (std::size_t i = c; i < hi; ++i) {
      EXPECT_LE(std::abs(dec[i] - src[i]), bound + 1e-12) << "i=" << i;
    }
  }
}

TEST(CompressCodec, OneBitPreservesChunkSumsAndSigns) {
  const std::size_t n = 520;  // chunks of 256, 256, 8
  const std::vector<Real> src = wave(n, 7);
  std::vector<std::uint8_t> enc(encoded_size_bytes(CompressMode::k1Bit, n));
  std::vector<Real> dec(n);
  compress_encode(CompressMode::k1Bit, src, enc.data(), nullptr);
  compress_decode(CompressMode::k1Bit, enc.data(), n, dec.data());
  for (std::size_t c = 0; c < n; c += kCompressChunk) {
    const std::size_t hi = std::min(n, c + kCompressChunk);
    Real sum_src = 0;
    Real sum_dec = 0;
    for (std::size_t i = c; i < hi; ++i) {
      sum_src += src[i];
      sum_dec += dec[i];
      // Sign bit routes each value to the matching chunk mean.
      if (src[i] >= 0) {
        EXPECT_GE(dec[i], 0) << "i=" << i;
      } else {
        EXPECT_LE(dec[i], 0) << "i=" << i;
      }
    }
    // count_pos * mean_pos + count_neg * mean_neg telescopes back to the
    // chunk sum, up to the float storage of the two means.
    EXPECT_NEAR(sum_dec, sum_src, 1e-4 * static_cast<double>(hi - c));
  }
}

TEST(CompressCodec, DecodeRangeMatchesFullDecodeBitwise) {
  const std::size_t n = 600;
  const std::vector<Real> src = wave(n, 11);
  const std::vector<std::pair<std::size_t, std::size_t>> ranges = {
      {0, n}, {5, n}, {250, 262}, {256, 512}, {300, 300}, {599, 600}};
  for (CompressMode mode :
       {CompressMode::kFp16, CompressMode::kInt8, CompressMode::k1Bit}) {
    std::vector<std::uint8_t> enc(encoded_size_bytes(mode, n));
    compress_encode(mode, src, enc.data(), nullptr);
    std::vector<Real> full(n);
    compress_decode(mode, enc.data(), n, full.data());
    for (const auto& [lo, hi] : ranges) {
      std::vector<Real> part(hi - lo, -999.0);
      compress_decode_range(mode, enc.data(), n, lo, hi, part.data());
      for (std::size_t i = lo; i < hi; ++i) {
        EXPECT_EQ(part[i - lo], full[i])
            << compress_mode_name(mode) << " [" << lo << "," << hi << ") i="
            << i;
      }
    }
  }
}

TEST(CompressCodec, BitwiseDeterministicAcrossThreadBudgets) {
  const int budget_before = thread_budget();
  const std::size_t n = 2048 + 130;
  const std::vector<Real> src = wave(n, 13);
  for (CompressMode mode :
       {CompressMode::kFp16, CompressMode::kInt8, CompressMode::k1Bit}) {
    std::vector<std::vector<std::uint8_t>> encs;
    std::vector<std::vector<Real>> decs;
    for (int budget : {1, 8}) {
      override_thread_budget(budget);
      std::vector<std::uint8_t> enc(encoded_size_bytes(mode, n));
      compress_encode(mode, src, enc.data(), nullptr);
      std::vector<Real> dec(n);
      compress_decode(mode, enc.data(), n, dec.data());
      encs.push_back(std::move(enc));
      decs.push_back(std::move(dec));
    }
    EXPECT_EQ(encs[0], encs[1]) << compress_mode_name(mode);
    EXPECT_EQ(decs[0], decs[1]) << compress_mode_name(mode);
  }
  override_thread_budget(budget_before);
}

TEST(CompressCodec, ErrorFeedbackTelescopes) {
  // With error feedback, decode_k = v + r_{k-1} - r_k, so the running sum
  // of decoded rounds satisfies sum + residual == rounds * v exactly (up
  // to fp accumulation) — quantization error never accumulates.
  const std::size_t n = 384;
  const std::vector<Real> src = wave(n, 17);
  for (CompressMode mode : {CompressMode::kInt8, CompressMode::k1Bit}) {
    std::vector<Real> residual;
    std::vector<std::uint8_t> enc(encoded_size_bytes(mode, n));
    std::vector<Real> dec(n);
    std::vector<Real> sum(n, 0);
    const int rounds = 7;
    for (int k = 0; k < rounds; ++k) {
      compress_encode(mode, src, enc.data(), &residual);
      compress_decode(mode, enc.data(), n, dec.data());
      for (std::size_t i = 0; i < n; ++i) sum[i] += dec[i];
    }
    ASSERT_EQ(residual.size(), n);
    double max_err = 0;
    for (std::size_t i = 0; i < n; ++i) {
      max_err = std::max(max_err,
                         std::abs(sum[i] + residual[i] - rounds * src[i]));
    }
    EXPECT_LE(max_err, 1e-9) << compress_mode_name(mode);
    // And the EF-corrected average is far closer to v than one raw round.
    double avg_err = 0;
    double one_shot_err = 0;
    compress_encode(mode, src, enc.data(), nullptr);
    compress_decode(mode, enc.data(), n, dec.data());
    for (std::size_t i = 0; i < n; ++i) {
      avg_err = std::max(avg_err, std::abs(sum[i] / rounds - src[i]));
      one_shot_err = std::max(one_shot_err, std::abs(dec[i] - src[i]));
    }
    EXPECT_LT(avg_err, one_shot_err) << compress_mode_name(mode);
  }
}

// ---- Coded reductions: decode-sum semantics and metered bytes ----

/// Post `op`, wait it, and release it: peers read this rank's encoded
/// send bytes until every rank has waited, so a CompressBuf may only be
/// reused or destroyed after the release.
void wait_and_release(Comm& comm, PendingOp op) {
  const std::uint64_t ticket = op.ticket();
  op.wait();
  comm.quiesce_op(ticket);
}

TEST(CompressedCollectives, AllreduceMatchesLocalDecodeSumAndMeter) {
  const std::size_t n = 1000;
  const int p = 4;
  for (CompressMode mode :
       {CompressMode::kFp16, CompressMode::kInt8, CompressMode::k1Bit}) {
    run_world(p, [&](Comm& world) {
      // Oracle: decode every rank's encoded contribution and sum in
      // ascending rank order — the documented deterministic element order.
      const std::size_t enc_bytes = encoded_size_bytes(mode, n);
      std::vector<std::uint8_t> enc(enc_bytes);
      std::vector<Real> dec(n);
      std::vector<Real> expect(n, 0);
      for (int r = 0; r < p; ++r) {
        const std::vector<Real> contrib = wave(n, r);
        compress_encode(mode, contrib, enc.data(), nullptr);
        compress_decode(mode, enc.data(), n, dec.data());
        for (std::size_t i = 0; i < n; ++i) expect[i] += dec[i];
      }

      const std::vector<Real> mine = wave(n, world.rank());
      std::vector<Real> out(n, -1);
      CompressBuf buf;
      const CostMeter before = world.meter();
      wait_and_release(world, world.iallreduce_sum(
                                  std::span<const Real>(mine),
                                  std::span<Real>(out), CommCategory::kDense,
                                  Codec{mode, &buf}));
      CostMeter delta = world.meter();
      delta.subtract(before);

      EXPECT_EQ(out, expect) << compress_mode_name(mode);
      // 2 E (P-1)/P wire bytes in Real-sized words, 2 lg P latency.
      EXPECT_DOUBLE_EQ(delta.words(CommCategory::kCompressed),
                       2.0 * static_cast<double>(enc_bytes) * (p - 1) / p /
                           sizeof(Real));
      EXPECT_DOUBLE_EQ(delta.latency_units(CommCategory::kCompressed),
                       2.0 * ceil_log2(p));
      EXPECT_EQ(delta.words(CommCategory::kDense), 0.0);
      EXPECT_EQ(delta.words(CommCategory::kHalo), 0.0);
    });
  }
}

TEST(CompressedCollectives, ReduceScatterMatchesOracleAndMeter) {
  // Uneven scatter chunks (one rank keeps nothing): the 1.5D keeper-only
  // form. The coded wire carries a u64 length header plus the encoded
  // contribution per rank, and each rank decodes only its own slice; it
  // is chosen only where it undercuts the exact wire
  // (reduce_scatter_compression_pays), so the same call stays exact for
  // fp16 and for int8 at P = 8.
  const std::size_t n = 300;
  struct Case {
    CompressMode mode;
    std::vector<std::size_t> lens;  ///< per-rank out lengths, sum n
    bool coded;
  };
  const std::vector<Case> cases = {
      {CompressMode::kInt8, {100, 50, 0, 150}, true},
      {CompressMode::kFp16, {100, 50, 0, 150}, false},
      {CompressMode::kInt8, {100, 50, 0, 50, 25, 25, 25, 25}, false},
  };
  for (const Case& c : cases) {
    const int p = static_cast<int>(c.lens.size());
    const CompressMode mode = c.mode;
    run_world(p, [&](Comm& world) {
      const int rank = world.rank();
      std::size_t lo = 0;
      for (int r = 0; r < rank; ++r) lo += c.lens[static_cast<std::size_t>(r)];
      const std::size_t len = c.lens[static_cast<std::size_t>(rank)];

      // Oracle: zero, then ranks ascending — of decoded slices on the
      // coded wire, of the exact contributions otherwise.
      const std::size_t enc_bytes = encoded_size_bytes(mode, n);
      std::vector<std::uint8_t> enc(enc_bytes);
      std::vector<Real> expect(len, 0);
      std::vector<Real> slice(len);
      for (int r = 0; r < p; ++r) {
        const std::vector<Real> contrib = wave(n, 100 + r);
        if (c.coded) {
          compress_encode(mode, contrib, enc.data(), nullptr);
          compress_decode_range(mode, enc.data(), n, lo, lo + len,
                                slice.data());
        } else {
          std::copy(contrib.begin() + static_cast<long>(lo),
                    contrib.begin() + static_cast<long>(lo + len),
                    slice.begin());
        }
        for (std::size_t i = 0; i < len; ++i) expect[i] += slice[i];
      }

      const std::vector<Real> mine = wave(n, 100 + rank);
      std::vector<Real> out(len, -1);
      CompressBuf buf;
      const CostMeter before = world.meter();
      wait_and_release(world, world.ireduce_scatter_sum(
                                  std::span<const Real>(mine),
                                  std::span<Real>(out), CommCategory::kDense,
                                  Codec{mode, &buf}));
      CostMeter delta = world.meter();
      delta.subtract(before);

      EXPECT_EQ(out, expect) << compress_mode_name(mode) << " P=" << p;
      if (c.coded) {
        const double gathered =
            static_cast<double>(p) * (sizeof(std::uint64_t) + enc_bytes);
        EXPECT_DOUBLE_EQ(delta.words(CommCategory::kCompressed),
                         gathered * (p - 1) / p / sizeof(Real));
        EXPECT_DOUBLE_EQ(delta.latency_units(CommCategory::kCompressed),
                         ceil_log2(p));
        EXPECT_EQ(delta.words(CommCategory::kDense), 0.0);
      } else {
        const auto exact_bytes = n * sizeof(Real) *
                                 static_cast<std::size_t>(p - 1) /
                                 static_cast<std::size_t>(p);
        EXPECT_DOUBLE_EQ(delta.words(CommCategory::kDense),
                         static_cast<double>(exact_bytes) / sizeof(Real));
        EXPECT_DOUBLE_EQ(delta.latency_units(CommCategory::kDense),
                         ceil_log2(p));
        EXPECT_EQ(delta.words(CommCategory::kCompressed), 0.0);
        EXPECT_EQ(delta.latency_units(CommCategory::kCompressed), 0.0);
        EXPECT_TRUE(buf.send.empty());  // nothing was encoded
      }
    });
  }
}

TEST(CompressedCollectives, SingleRankIsExactAndFree) {
  const std::size_t n = 333;
  run_world(1, [&](Comm& world) {
    const std::vector<Real> src = wave(n, 21);
    std::vector<Real> data(n, -1);
    CompressBuf buf;
    const CostMeter before = world.meter();
    world
        .iallreduce_sum(std::span<const Real>(src), std::span<Real>(data),
                        CommCategory::kDense, Codec{CompressMode::k1Bit, &buf})
        .wait();
    EXPECT_EQ(data, src);  // exact copy, no codec round-trip

    std::vector<Real> out(n, -1);
    world
        .ireduce_scatter_sum(std::span<const Real>(src), std::span<Real>(out),
                             CommCategory::kDense,
                             Codec{CompressMode::kInt8, &buf})
        .wait();
    EXPECT_EQ(out, src);
    EXPECT_TRUE(buf.send.empty());  // the exact op: nothing encoded

    CostMeter delta = world.meter();
    delta.subtract(before);
    EXPECT_EQ(delta.words(CommCategory::kCompressed), 0.0);
    EXPECT_EQ(delta.latency_units(CommCategory::kCompressed), 0.0);
    EXPECT_EQ(delta.words(CommCategory::kDense), 0.0);
    EXPECT_EQ(delta.latency_units(CommCategory::kDense), 0.0);
  });
}

// ---- Trainer-level: metered byte reduction and lossy convergence ----

/// Planted-partition graph whose labels follow the communities, so the
/// GCN can actually learn them and accuracy is a meaningful comparison.
Graph learnable_graph(Index n, Index communities, Index f, Index classes,
                      std::uint64_t seed) {
  Rng rng(seed);
  Graph g;
  g.name = "compress-test";
  Coo coo = planted_partition(n, communities, 10.0, 1.0, rng,
                              /*hub_fraction=*/0.0);
  g.adjacency = gcn_normalize(std::move(coo), /*symmetrize=*/true);
  g.features = Matrix(n, f);
  g.features.fill_uniform(rng, -1, 1);
  g.num_classes = classes;
  g.labels.resize(static_cast<std::size_t>(n));
  for (Index v = 0; v < n; ++v) {
    const Index community = v * communities / n;
    g.labels[static_cast<std::size_t>(v)] = community % classes;
    // A noisy community signature on top of the random features, so the
    // task is genuinely learnable and accuracy comparisons are meaningful.
    g.features(v, community % f) += Real{2};
  }
  return g;
}

struct TrainRun {
  std::vector<Real> losses;
  std::vector<Real> accuracies;
  std::vector<Matrix> weights;
  EpochStats stats;  ///< max-reduced, final epoch
};

TrainRun run_trainer(const std::string& algebra, const DistProblem& problem,
                     const GnnConfig& config, int p, int epochs) {
  TrainRun run;
  std::mutex mutex;
  run_world(p, [&](Comm& world) {
    auto trainer = make_dist_trainer(algebra, problem, config, world);
    std::vector<Real> losses;
    std::vector<Real> accuracies;
    for (int e = 0; e < epochs; ++e) {
      const EpochResult r = trainer->train_epoch();
      losses.push_back(r.loss);
      accuracies.push_back(r.accuracy);
    }
    const EpochStats reduced = trainer->reduce_epoch_stats();
    if (world.rank() == 0) {
      std::lock_guard<std::mutex> lock(mutex);
      run.losses = std::move(losses);
      run.accuracies = std::move(accuracies);
      run.weights = trainer->weights();
      run.stats = reduced;
    }
  });
  return run;
}

TEST(LossyTraining, MeteredGradientBytesShrinkOnWire) {
  // 2D at P=4: the only compressed traffic is the gradient slice-sum
  // all-reduce, so (exact kDense - lossy kDense) is exactly the gradient
  // words that moved to kCompressed — the metered words-on-wire reduction
  // the acceptance asks for (>= 3x int8, >= 20x 1-bit).
  ModeGuard guard;
  dist::set_halo_enabled(false);
  const Graph g = learnable_graph(128, 8, 12, 4, 31);
  const GnnConfig config = GnnConfig::three_layer(12, 4, 8);
  const DistProblem problem = DistProblem::prepare(g);

  set_compress_mode(CompressMode::kOff);
  const TrainRun exact = run_trainer("2d", problem, config, 4, 2);
  EXPECT_EQ(exact.stats.comm.words(CommCategory::kCompressed), 0.0);

  for (const auto& [mode, min_ratio] :
       std::vector<std::pair<CompressMode, double>>{
           {CompressMode::kInt8, 3.0}, {CompressMode::k1Bit, 20.0}}) {
    set_compress_mode(mode);
    const TrainRun lossy = run_trainer("2d", problem, config, 4, 2);
    const double moved =
        exact.stats.comm.words(CommCategory::kDense) -
        lossy.stats.comm.words(CommCategory::kDense);
    const double compressed =
        lossy.stats.comm.words(CommCategory::kCompressed);
    EXPECT_GT(moved, 0.0) << compress_mode_name(mode);
    EXPECT_GT(compressed, 0.0) << compress_mode_name(mode);
    EXPECT_GE(moved / compressed, min_ratio) << compress_mode_name(mode);
    // Every other category is value-independent and must not move.
    EXPECT_EQ(lossy.stats.comm.words(CommCategory::kSparse),
              exact.stats.comm.words(CommCategory::kSparse));
    EXPECT_EQ(lossy.stats.comm.words(CommCategory::kTranspose),
              exact.stats.comm.words(CommCategory::kTranspose));
  }
}

TEST(LossyTraining, CompressedOverlapMatchesBlockingBitwise) {
  // Within one lossy mode the overlap toggle must stay bitwise-neutral,
  // halo path included — same contract the exact runtime upholds.
  ModeGuard guard;
  const Graph g = learnable_graph(180, 9, 10, 3, 41);
  const GnnConfig config = GnnConfig::three_layer(10, 3, 8);
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");
  dist::set_halo_enabled(true);
  set_compress_mode(CompressMode::kInt8);

  dist::set_overlap_enabled(true);
  const TrainRun pipelined = run_trainer("1d", problem, config, 4, 3);
  dist::set_overlap_enabled(false);
  const TrainRun blocking = run_trainer("1d", problem, config, 4, 3);

  ASSERT_EQ(pipelined.losses.size(), blocking.losses.size());
  for (std::size_t e = 0; e < pipelined.losses.size(); ++e) {
    EXPECT_EQ(pipelined.losses[e], blocking.losses[e]) << "epoch " << e;
  }
  ASSERT_EQ(pipelined.weights.size(), blocking.weights.size());
  for (std::size_t l = 0; l < pipelined.weights.size(); ++l) {
    EXPECT_LE(Matrix::max_abs_diff(pipelined.weights[l],
                                   blocking.weights[l]),
              Real{0})
        << "layer " << l;
  }
  EXPECT_EQ(pipelined.stats.comm.words(CommCategory::kCompressed),
            blocking.stats.comm.words(CommCategory::kCompressed));
}

TEST(LossyTraining, LossyModesReachExactAccuracyWithinTolerance) {
  // The acceptance parity/convergence contract: on the planted-partition
  // trainer every lossy mode must land within tolerance of the exact
  // run's final loss and accuracy (error feedback keeps the gradient
  // quantization from biasing SGD; halo rows are fp16/int8 only).
  ModeGuard guard;
  const Graph g = learnable_graph(240, 8, 12, 4, 51);
  GnnConfig config = GnnConfig::three_layer(12, 4, 16);
  config.learning_rate = 0.3;
  const int epochs = 60;
  const DistProblem problem = DistProblem::prepare(g, 4, "greedy-bfs");
  dist::set_halo_enabled(true);

  set_compress_mode(CompressMode::kOff);
  const TrainRun exact = run_trainer("1d", problem, config, 4, epochs);
  ASSERT_TRUE(std::isfinite(exact.losses.back()));
  // Community labels are learnable; demand real training so the lossy
  // comparison below is not vacuously satisfied at chance accuracy.
  ASSERT_GE(exact.accuracies.back(), 0.8);

  for (CompressMode mode :
       {CompressMode::kFp16, CompressMode::kInt8, CompressMode::k1Bit}) {
    set_compress_mode(mode);
    const TrainRun lossy = run_trainer("1d", problem, config, 4, epochs);
    EXPECT_TRUE(std::isfinite(lossy.losses.back()))
        << compress_mode_name(mode);
    EXPECT_NEAR(lossy.losses.back(), exact.losses.back(),
                0.1 * exact.losses.back() + 0.05)
        << compress_mode_name(mode);
    EXPECT_GE(lossy.accuracies.back(), exact.accuracies.back() - 0.05)
        << compress_mode_name(mode);
  }
}

}  // namespace
}  // namespace cagnet
