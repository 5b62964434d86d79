// The paper's 1D block-row algorithm (Section IV-A, Algorithm 1).
//
// Data distribution (Table III): A column-partitioned (equivalently A^T
// block-row partitioned), H^l and G^l block-row partitioned, W replicated.
//
// Per layer:
//   forward   Z = A^T H W : P broadcast stages of H_j (Algorithm 1); the
//                           local A^T_ij H_j products accumulate into T_i.
//   sigma               : rows are whole, so even log_softmax needs no
//                           communication (Section IV-A.2).
//   backward  AG^l      : 1D outer product A_i G_i summed by reduce-scatter
//                           of the O(nf) per-rank partials (IV-A.3).
//   Y = (H)^T AG^l      : small outer product + f x f all-reduce (IV-A.4).
//
// Metered cost matches Section IV-A.5 with edgecut = n(P-1)/P (the random /
// broadcast-based bound; Algorithm 1 broadcasts rather than doing
// individualized request-and-send, exactly as the paper argues in IV-A.8).
//
// Halo mode (CAGNET_HALO / dist::set_halo_enabled) implements the IV-A.8
// request-and-send instead: a HaloPlan built once from the local A^T
// sparsity exchanges exactly the remote H rows each rank needs (kHalo,
// edgecut_P(A) * f words per layer), pipelined behind the stage SpMMs
// (the self block multiplies while remote rows are in flight; each
// peer's rows are drained zero-copy as they land), and the
// backward outer product sends only its structurally nonzero
// contribution rows when the halo_backward_profitable gate passes (a
// random partition keeps the reduce-scatter) — with losses and weights
// bitwise identical to the broadcast path. Row-block boundaries follow
// the DistProblem partition when its part count is P (partition-aware
// layout), so a locality partitioner shrinks the exchanged halo.
//
// Only the distributed algebra lives here; the training loop itself is the
// shared DistEngine (see dist_engine.hpp).
#pragma once

#include <memory>
#include <vector>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// 1D block-row distributed algebra: rows-whole layout, so the engine's
/// default times_weight / gather_feature_rows (purely local) apply.
class Algebra1D final : public DistSpmmAlgebra {
 public:
  /// Collective constructor: call on every rank of `world`.
  Algebra1D(const DistProblem& problem, Comm world, MachineModel machine);

  const char* name() const override { return "1d"; }
  Comm& world() override { return world_; }
  /// The 1D layout is the pure row stripe sampled training needs: whole
  /// rows, whole features, no replicas — the world is the sample comm.
  Comm* sample_comm() override { return &world_; }
  Index row_lo() const override { return row_lo_; }
  Index row_hi() const override { return row_hi_; }

  void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) override;
  void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) override;
  /// Arm the halo plan's bounded-staleness state for this epoch
  /// (dist::halo_begin_epoch); collective in adaptive mode, a no-op when
  /// CAGNET_STALE is off or halo mode is inactive.
  void begin_epoch(int epoch) override;
  /// True when the sparsity-aware halo exchange replaces the broadcasts
  /// (dist::halo_enabled() at construction and P > 1). Purely local.
  bool halo_active() const { return use_halo_; }
  /// True when the backward reduce-scatter is also replaced by the
  /// mirrored contribution exchange (halo mode and the
  /// dist::halo_backward_profitable gate passed at construction).
  bool backward_halo_active() const { return use_halo_ && use_bwd_halo_; }
  void begin_reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                              Matrix& y_full, EpochStats& stats) override;
  void finish_gradients(EpochStats& stats) override;
  void drain() noexcept override { dist::drain_comm(world_); }

 protected:
  Comm& gather_comm() override { return world_; }

 private:
  void spmm_a_halo(const Matrix& g, Matrix& u, EpochStats& stats);

  Comm world_;

  Index n_ = 0;
  Index row_lo_ = 0;
  Index row_hi_ = 0;
  /// Partition-aware block boundaries (P+1): the DistProblem partition's
  /// offsets when it was prepared for P parts, even block_range otherwise.
  std::vector<Index> row_starts_;

  /// at_blocks_[j] = A^T(rows of this rank, rows of rank j): the j-th
  /// summand of Algorithm 1's accumulation loop.
  std::vector<Csr> at_blocks_;
  /// A(:, local rows) as CSR (n x local_rows): the outer-product operand.
  Csr a_col_block_;

  bool use_halo_ = false;  ///< sparsity-aware exchange instead of broadcasts
  bool use_bwd_halo_ = false;  ///< backward contribution exchange (gated)
  dist::HaloPlan halo_;    ///< built once, replayed every epoch/layer

  Matrix hj_recv_;    ///< broadcast-stage receive buffer (reused)
  Matrix hj_recv2_;   ///< double-buffer partner (overlapped prefetch)
  Matrix u_partial_;  ///< O(nf) outer-product partial (reused)
  dist::PendingGradReduce grad_pending_;  ///< deferred Y reductions
  /// Codec staging of the compressed U reduce-scatter (CAGNET_COMPRESS
  /// row modes). Error feedback stays off: U is a fresh activation
  /// gradient each layer, not an accumulating signal.
  CompressBuf u_cbuf_;
  std::uint64_t u_release_ticket_ = 0;  ///< last u reduce-scatter (release)
  bool has_u_release_ = false;
};

/// The 1D trainer: the shared engine driven by Algebra1D.
class Dist1D final : public DistEngine {
 public:
  /// Collective constructor: call on every rank of `world`.
  Dist1D(const DistProblem& problem, GnnConfig config, Comm world,
         MachineModel machine = MachineModel::summit());
};

}  // namespace cagnet
