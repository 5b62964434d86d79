#include "src/core/dist3d.hpp"

#include "src/util/error.hpp"

namespace cagnet {

Algebra3D::Algebra3D(const DistProblem& problem, Comm world,
                     MachineModel machine)
    : DistSpmmAlgebra(machine), grid_(Grid3D::create_cube(world)) {
  n_ = problem.graph->num_vertices();
  const int q = grid_.q;

  std::tie(coarse_lo_, coarse_hi_) = block_range(n_, q, grid_.i);
  std::tie(fine_lo_, fine_hi_) = fine_range(n_, q, grid_.i, grid_.k);

  const auto [ac0, ac1] = fine_range(n_, q, grid_.j, grid_.k);
  at_block_ = problem.at.block(coarse_lo_, coarse_hi_, ac0, ac1);

  jplane_ = grid_.world.split(/*color=*/grid_.j,
                              /*key=*/grid_.i * q + grid_.k);
}

void Algebra3D::split3d_spmm(const Csr& my_sparse,
                             dist::SparseStageCache& cache,
                             const Matrix& my_dense, Matrix& out,
                             EpochStats& stats) {
  const int q = grid_.q;
  const Index coarse_rows = coarse_hi_ - coarse_lo_;
  const Index w = my_dense.cols();
  // The pre-reduction partial: (n/q x f/q), the P^(1/3)-replicated
  // intermediate of Section IV-D.1. The shared loop double-buffers the
  // per-layer SUMMA stages and replays the cached sparse charges in cached
  // epochs.
  {
    // Release points for this rank's earlier sources: fiber peers read
    // t_partial_ (previous reduce-scatter), row peers read the partial-
    // SUMMA T panels and gradient slice gathers — all rewritten below or
    // by the engine buffers backing them. Readers drained a whole layer
    // ago, so this is a handful of atomic loads.
    ScopedPhase scope(stats.profiler, Phase::kDenseComm);
    grid_.fiber.quiesce();
    grid_.row.quiesce();
  }
  t_partial_.resize(coarse_rows, w);
  t_partial_.set_zero();
  dist::summa_stage_loop(
      my_sparse, cache, grid_.row, my_dense, grid_.col,
      [&](int s) {
        const auto [d_lo, d_hi] = fine_range(n_, q, s, grid_.k);
        return d_hi - d_lo;
      },
      q, t_partial_, machine(), stats, ws_);

  // Fiber reduce-scatter: sum layer partials, splitting C_i into its fine
  // slabs F_{i,kk}; fiber rank kk keeps slab kk. The nonblocking form
  // computes this rank's slab as soon as all partials are posted and
  // skips the blocking call's release — the release of t_partial_ is
  // deferred to the quiesce at the next call — so the rest of the layer
  // (partial SUMMA, gathers) proceeds without waiting for fiber
  // stragglers.
  out.resize(fine_hi_ - fine_lo_, w);
  ScopedPhase scope(stats.profiler, Phase::kDenseComm);
  grid_.fiber
      .ireduce_scatter_sum(std::span<const Real>(t_partial_.flat()),
                           out.flat(), CommCategory::kDense)
      .wait();
}

Csr Algebra3D::transpose_3d(const Csr& my_block) {
  const int q = grid_.q;
  // Local transpose: M[C_i, F_{j,k}] -> M^T[F_{j,k}, C_i].
  const Csr bt = my_block.transposed();

  // Round d: send the column slab F_{i, (k+d)%q} of bt to rank
  // (i', j', k') = (j, i, (k+d)%q). The map is a bijection for each d, and
  // across rounds every target receives the q pieces it must stack.
  std::vector<Csr> pieces(static_cast<std::size_t>(q));
  for (int d = 0; d < q; ++d) {
    const int kk = (grid_.k + d) % q;
    const auto [g0, g1] = fine_range(n_, q, grid_.i, kk);
    const Csr piece =
        bt.block(0, bt.rows(), g0 - coarse_lo_, g1 - coarse_lo_);
    const int dest = kk * q * q + grid_.j * q + grid_.i;
    const Csr recv = dist::route_csr(piece, dest, grid_.world,
                                     CommCategory::kTranspose);
    // In round d we receive from (j, i, (k-d) mod q): its piece carries the
    // row slab F_{i, k_src} of the assembled block.
    const int k_src = ((grid_.k - d) % q + q) % q;
    pieces[static_cast<std::size_t>(k_src)] = recv;
  }
  Csr assembled = Csr::vstack(pieces);
  CAGNET_CHECK(assembled.rows() == coarse_hi_ - coarse_lo_,
               "transpose_3d: assembled row count mismatch");
  return assembled;
}

void Algebra3D::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  split3d_spmm(at_block_, at_cache_, h, t, stats);
}

void Algebra3D::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  CAGNET_CHECK(a_block_.rows() > 0 || coarse_hi_ == coarse_lo_,
               "spmm_a outside begin_backward/end_backward");
  split3d_spmm(a_block_, a_cache_, g, u, stats);
}

void Algebra3D::times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                             EpochStats& stats) {
  // Partial Split-3D-SpMM Z = T W: W is replicated, so only T moves, along
  // within-layer process rows (contraction over the f dimension needs no
  // fiber reduction).
  dist::partial_summa_times_weight(t, w, grid_.q, grid_.j, grid_.row,
                                   machine(), stats, ws_, z);
}

void Algebra3D::gather_feature_rows(const Matrix& local, Index f,
                                    Matrix& full, EpochStats& stats) {
  // Within-layer row all-gather (Section IV-D.2 — no cross-layer or
  // cross-row communication).
  dist::allgather_feature_rows(local, f, grid_.q, grid_.row, stats.profiler,
                               ws_, full);
}

void Algebra3D::begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                       Index f_out, Matrix& y_full,
                                       EpochStats& stats) {
  dist::begin_assemble_weight_gradient(y_partial, f_in, f_out, jplane_,
                                       stats.profiler, grad_pending_,
                                       y_full);
}

void Algebra3D::finish_gradients(EpochStats& stats) {
  dist::finish_assemble_weight_gradient(grid_.q, grid_.row,
                                        stats.profiler, grad_pending_);
}

void Algebra3D::begin_backward(EpochStats& stats) {
  ScopedPhase scope(stats.profiler, Phase::kTranspose);
  if (trpose_cache_.ready && dist::epoch_cache_enabled()) {
    // a_block_ is still materialized from epoch 1; replay the charges.
    grid_.world.meter().merge_sum(trpose_cache_.begin_charges);
    return;
  }
  CostMeter before = grid_.world.meter();
  a_block_ = transpose_3d(at_block_);
  trpose_cache_.begin_charges = grid_.world.meter();
  trpose_cache_.begin_charges.subtract(before);
}

void Algebra3D::end_backward(EpochStats& stats) {
  ScopedPhase scope(stats.profiler, Phase::kTranspose);
  if (trpose_cache_.ready && dist::epoch_cache_enabled()) {
    grid_.world.meter().merge_sum(trpose_cache_.end_charges);
    return;
  }
  CostMeter before = grid_.world.meter();
  const Csr restored = transpose_3d(a_block_);
  CAGNET_CHECK(restored.nnz() == at_block_.nnz(),
               "3D transpose round-trip changed the block");
  trpose_cache_.end_charges = grid_.world.meter();
  trpose_cache_.end_charges.subtract(before);
  if (dist::epoch_cache_enabled()) {
    trpose_cache_.ready = true;  // keep a_block_ for the next epoch
  } else {
    a_block_ = Csr();
  }
}

Dist3D::Dist3D(const DistProblem& problem, GnnConfig config, Comm world,
               MachineModel machine)
    : DistEngine(problem, std::move(config),
                 std::make_unique<Algebra3D>(problem, std::move(world),
                                             machine)) {}

}  // namespace cagnet
