// The paper's block 2D (SUMMA-based) algorithm: Section IV-C, Algorithm 2.
// This is the variant CAGNET implements and evaluates (Figs. 2-3).
//
// Data distribution (Table IV): A, H^l, G^l block-2D on a sqrt(P) x sqrt(P)
// grid; W replicated. Per layer:
//
//   forward  T = A^T H     : SUMMA SpMM — stage k broadcasts A^T_ik along
//                            process row i (sparse) and H_kj along process
//                            column j (dense).
//            Z = T W       : "partial SUMMA" — T_im broadcast along the
//                            process row; W is replicated so only T moves.
//            sigma         : ReLU is elementwise (free); the output-layer
//                            log_softmax needs full rows, hence a row-wise
//                            all-gather (Section IV-C.2).
//   backward U = A G^l     : SUMMA SpMM on the transposed adjacency. A is
//                            obtained from A^T by a distributed transpose
//                            (pairwise exchange (i,j) <-> (j,i) + local
//                            transpose) — the paper's "trpose" phase.
//            G^(l-1)       : U (W^l)^T ⊙ relu'(Z^(l-1)); U is re-used from
//                            the row-wise all-gather performed for Y.
//            Y^l           : (H^(l-1))^T (A G^l) via row all-gather of U,
//                            local GEMM, column-wise reduction, and final
//                            all-gather to keep Y replicated (IV-C.4).
//
// Only the distributed algebra lives here; the training loop itself is the
// shared DistEngine (see dist_engine.hpp).
#pragma once

#include <memory>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// Block-2D SUMMA algebra: both vertex rows and feature columns are
/// partitioned, so it overrides the feature-dimension hooks
/// (times_weight, gather_feature_rows) with their SUMMA realizations.
class Algebra2D final : public DistSpmmAlgebra {
 public:
  /// Collective constructor; world size must be a perfect square.
  Algebra2D(const DistProblem& problem, Comm world, MachineModel machine);

  const char* name() const override { return "2d"; }
  Comm& world() override { return grid_.world; }
  Index row_lo() const override { return row_lo_; }
  Index row_hi() const override { return row_hi_; }
  std::pair<Index, Index> feat_slice(Index f) const override {
    return block_range(f, grid_.pc, grid_.j);
  }
  bool rows_whole() const override { return false; }
  bool owns_loss_rows() const override { return grid_.j == 0; }

  void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) override;
  void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) override;
  void times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                    EpochStats& stats) override;
  void gather_feature_rows(const Matrix& local, Index f, Matrix& full,
                           EpochStats& stats) override;
  void begin_reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                              Matrix& y_full, EpochStats& stats) override;
  void finish_gradients(EpochStats& stats) override;

  /// Distributed transpose A^T -> A (and back): swap blocks across the
  /// diagonal and transpose locally (the paper's "trpose" phase, charged
  /// twice per epoch).
  void begin_backward(EpochStats& stats) override;
  void end_backward(EpochStats& stats) override;

  void drain() noexcept override {
    dist::drain_comm(grid_.row);
    dist::drain_comm(grid_.col);
  }

  int grid_dim() const { return grid_.pr; }

 protected:
  /// Column communicator spans one process per row block (rank order = i),
  /// so gathering full-row outputs along it assembles H^L everywhere.
  Comm& gather_comm() override { return grid_.col; }

 private:
  /// SUMMA T = S * D where S is this rank's sparse block family (row
  /// broadcasts of `my_sparse`, cached across epochs in `cache`) and D the
  /// dense blocks (column broadcasts of `my_dense`); accumulates into `t`
  /// (resized, storage reused). Used by both A^T H (forward) and A G
  /// (backward).
  void summa_spmm(const Csr& my_sparse, dist::SparseStageCache& cache,
                  const Matrix& my_dense, Matrix& t, EpochStats& stats);

  Grid2D grid_;

  Index n_ = 0;
  Index row_lo_ = 0, row_hi_ = 0;  ///< vertex rows of process row i
  Index col_lo_ = 0, col_hi_ = 0;  ///< vertex cols of process column j

  Csr at_block_;  ///< A^T(rows_i, cols_j)
  Csr a_block_;   ///< A(rows_i, cols_j), materialized in backward epoch 1
                  ///< and kept across epochs while the cache is enabled

  dist::DistWorkspace ws_;           ///< reused dense/staging buffers
  dist::PendingGradReduce grad_pending_;  ///< deferred Y reductions
  dist::SparseStageCache at_cache_;  ///< forward-SUMMA received A^T blocks
  dist::SparseStageCache a_cache_;   ///< backward-SUMMA received A blocks
  dist::TransposeCache trpose_cache_;
};

/// The 2D trainer: the shared engine driven by Algebra2D.
class Dist2D final : public DistEngine {
 public:
  /// Collective constructor; world size must be a perfect square.
  Dist2D(const DistProblem& problem, GnnConfig config, Comm world,
         MachineModel machine = MachineModel::summit());
};

}  // namespace cagnet
