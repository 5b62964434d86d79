#include "src/core/dist2d.hpp"

#include "src/util/error.hpp"

namespace cagnet {

Algebra2D::Algebra2D(const DistProblem& problem, Comm world,
                     MachineModel machine)
    : DistSpmmAlgebra(machine), grid_(Grid2D::create_square(world)) {
  n_ = problem.graph->num_vertices();
  const int q = grid_.pr;
  std::tie(row_lo_, row_hi_) = block_range(n_, q, grid_.i);
  std::tie(col_lo_, col_hi_) = block_range(n_, q, grid_.j);

  at_block_ = problem.at.block(row_lo_, row_hi_, col_lo_, col_hi_);
}

void Algebra2D::summa_spmm(const Csr& my_sparse,
                           dist::SparseStageCache& cache,
                           const Matrix& my_dense, Matrix& t,
                           EpochStats& stats) {
  // Stage k: A-block (i,k) travels along process row i; dense block (k,j)
  // travels along process column j. The shared loop double-buffers both
  // (stage k+1 in flight behind stage k's SpMM) and replays the cached
  // sparse charges in cached epochs.
  const int q = grid_.pr;
  {
    // Release point for this rank's earlier row-comm sources (partial-
    // SUMMA T panels, gradient slice gathers): their readers drained a
    // whole layer ago, and `t` (their backing buffer in the forward pass)
    // is rewritten below.
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    grid_.row.quiesce();
  }
  t.resize(local_rows(), my_dense.cols());
  t.set_zero();
  dist::summa_stage_loop(
      my_sparse, cache, grid_.row, my_dense, grid_.col,
      [&](int k) {
        const auto [k_lo, k_hi] = block_range(n_, q, k);
        return k_hi - k_lo;
      },
      q, t, machine(), stats, ws_);
}

void Algebra2D::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  summa_spmm(at_block_, at_cache_, h, t, stats);
}

void Algebra2D::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  CAGNET_CHECK(a_block_.rows() > 0 || local_rows() == 0,
               "spmm_a outside begin_backward/end_backward");
  summa_spmm(a_block_, a_cache_, g, u, stats);
}

void Algebra2D::times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                             EpochStats& stats) {
  // "Partial SUMMA" Z = T W: W is replicated, so only T moves, along the
  // process row.
  dist::partial_summa_times_weight(t, w, grid_.pr, grid_.j, grid_.row,
                                   machine(), stats, ws_, z);
}

void Algebra2D::gather_feature_rows(const Matrix& local, Index f,
                                    Matrix& full, EpochStats& stats) {
  dist::allgather_feature_rows(local, f, grid_.pc, grid_.row,
                               stats.profiler, ws_, full);
}

void Algebra2D::begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                       Index f_out, Matrix& y_full,
                                       EpochStats& stats) {
  dist::begin_assemble_weight_gradient(y_partial, f_in, f_out, grid_.col,
                                       stats.profiler, grad_pending_,
                                       y_full);
}

void Algebra2D::finish_gradients(EpochStats& stats) {
  dist::finish_assemble_weight_gradient(grid_.pc, grid_.row,
                                        stats.profiler, grad_pending_);
}

void Algebra2D::begin_backward(EpochStats& stats) {
  ScopedPhase scope(stats.profiler, Phase::kTranspose);
  if (trpose_cache_.ready && dist::epoch_cache_enabled()) {
    // a_block_ is still materialized from epoch 1; replay the charges.
    grid_.world.meter().merge_sum(trpose_cache_.begin_charges);
    return;
  }
  const int transpose_peer = grid_.j * grid_.pr + grid_.i;
  CostMeter before = grid_.world.meter();
  a_block_ = dist::exchange_csr(at_block_, transpose_peer, grid_.world,
                                CommCategory::kTranspose)
                 .transposed();
  trpose_cache_.begin_charges = grid_.world.meter();
  trpose_cache_.begin_charges.subtract(before);
}

void Algebra2D::end_backward(EpochStats& stats) {
  // Transpose back (A -> A^T), restoring the forward orientation; together
  // with begin_backward this is the paper's twice-per-epoch cost.
  ScopedPhase scope(stats.profiler, Phase::kTranspose);
  if (trpose_cache_.ready && dist::epoch_cache_enabled()) {
    grid_.world.meter().merge_sum(trpose_cache_.end_charges);
    return;
  }
  const int transpose_peer = grid_.j * grid_.pr + grid_.i;
  CostMeter before = grid_.world.meter();
  const Csr restored = dist::exchange_csr(a_block_, transpose_peer,
                                          grid_.world,
                                          CommCategory::kTranspose)
                           .transposed();
  CAGNET_CHECK(restored.nnz() == at_block_.nnz(),
               "transpose round-trip changed the block");
  trpose_cache_.end_charges = grid_.world.meter();
  trpose_cache_.end_charges.subtract(before);
  if (dist::epoch_cache_enabled()) {
    trpose_cache_.ready = true;  // keep a_block_ for the next epoch
  } else {
    a_block_ = Csr();
  }
}

Dist2D::Dist2D(const DistProblem& problem, GnnConfig config, Comm world,
               MachineModel machine)
    : DistEngine(problem, std::move(config),
                 std::make_unique<Algebra2D>(problem, std::move(world),
                                             machine)) {}

}  // namespace cagnet
