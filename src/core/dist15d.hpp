// 1.5D block-row algorithm with c-fold dense replication (Section IV-B).
//
// The paper discusses this family qualitatively (Koanantakool-style 1.5D
// SpMM) and argues that its extra memory is hard to justify for GNNs where
// d = O(f); it gives no formulas or implementation. We implement it so the
// communication/memory trade-off can be measured (DESIGN.md experiment E9).
//
// Layout: P = G * c ranks as G "groups" x c "teams" (team index t = rank %
// c, group g = rank / c). Vertex rows are split into G coarse blocks R_g.
//   H^l, G^l: block R_g, *replicated* across the c team members of group g
//             (the c-fold dense memory cost).
//   A^T:      rank (g, t) owns A^T[R_g, R_j] for all j ≡ t (mod c) — the
//             block row's columns are striped across the team, so A itself
//             is not replicated.
// Forward: slice t (the G ranks sharing t) runs Algorithm-1-style broadcast
// stages over only its stripe's j's — a 1/c reduction of broadcast volume —
// followed by a team all-reduce of the partial T. Backward: the outer
// product reduces within the slice (reduce-scatter onto the j ≡ t ranks)
// and finishes with a team broadcast.
//
// Only the distributed algebra lives here; the training loop itself is the
// shared DistEngine (see dist_engine.hpp).
#pragma once

#include <map>
#include <memory>

#include "src/core/dist_engine.hpp"

namespace cagnet {

/// 1.5D replicated block-row algebra: rows-whole layout (the engine's
/// default times_weight / gather_feature_rows apply); loss rows are primary
/// only on team member 0 of each group.
class Algebra15D final : public DistSpmmAlgebra {
 public:
  /// Collective constructor; replication must divide the world size.
  Algebra15D(const DistProblem& problem, Comm world, int replication,
             MachineModel machine);

  const char* name() const override { return "1.5d"; }
  Comm& world() override { return world_; }
  Index row_lo() const override { return row_lo_; }
  Index row_hi() const override { return row_hi_; }
  bool owns_loss_rows() const override { return t_ == 0; }

  void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) override;
  void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) override;
  /// Arm the slice halo plan's bounded-staleness state for this epoch
  /// (dist::halo_begin_epoch); collective over the slice in adaptive
  /// mode, a no-op when CAGNET_STALE is off or halo mode is inactive.
  void begin_epoch(int epoch) override;

  /// spmm_at defers the team (replica) all-reduce of T as row-chunked
  /// nonblocking ops, and this override interleaves their waits with the
  /// local Z = T W GEMM chunk by chunk — with overlap on, the reduction of
  /// chunk c+1 is in flight while chunk c multiplies. Results and metered
  /// charges are bitwise identical in both overlap modes.
  void times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                    EpochStats& stats) override;

  void begin_reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                              Matrix& y_full, EpochStats& stats) override;
  void finish_gradients(EpochStats& stats) override;
  void drain() noexcept override {
    dist::drain_comm(slice_);
    dist::drain_comm(team_);
  }

  int replication() const { return c_; }
  int groups() const { return groups_; }
  /// True when the sparsity-aware halo exchange replaces the stripe
  /// broadcasts (dist::halo_enabled() at construction and G > 1).
  bool halo_active() const { return use_halo_; }
  /// True when the backward slice reduce-scatter is also replaced by the
  /// mirrored contribution exchange. Gated at construction: the exchange
  /// moves per-peer contribution rows rather than pre-reduced chunks, so
  /// it only wins when the slice-wide worst-case landed volume stays
  /// within the reduce-scatter's charge (a locality partitioner regime;
  /// a random partition keeps the reduce-scatter).
  bool backward_halo_active() const { return use_bwd_halo_; }

 protected:
  /// Slices hold identical replicas; slice ranks are ordered by group,
  /// i.e. by row block, so the slice all-gather assembles H^L.
  Comm& gather_comm() override { return slice_; }

 private:
  Comm world_;
  Comm team_;   ///< the c replicas of this group's dense blocks
  Comm slice_;  ///< the G ranks sharing this team index t

  int c_ = 1;       ///< replication factor
  int groups_ = 1;  ///< G = P / c
  int t_ = 0;       ///< team index (column stripe)
  int g_ = 0;       ///< group index (vertex block)

  Index n_ = 0;
  Index row_lo_ = 0, row_hi_ = 0;  ///< R_g
  /// Partition-aware group boundaries (G+1): the DistProblem partition's
  /// offsets when it was prepared for G parts, even block_range otherwise.
  std::vector<Index> row_starts_;

  bool use_halo_ = false;  ///< sparsity-aware stripe exchange (forward)
  bool use_bwd_halo_ = false;  ///< mirrored contribution exchange (backward)
  dist::HaloPlan halo_;    ///< over the slice; built once, replayed
  /// Backward pack addressing: the plan's need_rows remapped into the
  /// stacked stripe layout of u_partial_ (stacked block base of peer j +
  /// peer-local row), built once alongside the plan.
  std::vector<Index> bwd_pack_rows_;
  Index self_stacked_row0_ = 0;  ///< stacked base of this group's block

  /// at_stripe_[j] for j ≡ t (mod c): A^T[R_g, R_j].
  std::map<int, Csr> at_stripe_;
  /// a_stripe_[j] = A[R_j, R_g] (transposes of the above), the backward
  /// outer-product operands.
  std::map<int, Csr> a_stripe_;

  Matrix hj_recv_;    ///< broadcast-stage receive buffer (reused)
  Matrix hj_recv2_;   ///< double-buffer partner (overlapped prefetch)
  Matrix u_partial_;  ///< stacked stripe outer-product partial (reused)

  /// Deferred team (replica) all-reduce of T, posted by spmm_at (settled
  /// at its post with overlap off) and drained chunk-by-chunk in
  /// times_weight. The chunk charges
  /// telescope (cumulative-bytes differences) so their sum is bitwise the
  /// blocking all-reduce charge for any team size.
  struct DeferredTeamReduce {
    bool active = false;
    std::vector<PendingOp> ops;                       ///< one per row chunk
    std::vector<std::pair<Index, Index>> rows;        ///< chunk row ranges
    std::vector<std::pair<double, double>> charges;   ///< (lat, words)
  };
  DeferredTeamReduce deferred_;
  dist::PendingGradReduce grad_pending_;  ///< deferred Y reductions
  /// Codec staging of the compressed slice reduce-scatter (row modes;
  /// error feedback off — U is fresh each layer).
  CompressBuf u_cbuf_;
  std::uint64_t u_release_ticket_ = 0;  ///< last u reduce-scatter (release)
  bool has_u_release_ = false;
  Matrix t_reduced_;   ///< out-of-place reduced T (reused)
  Matrix t_chunk_;     ///< reduced-T row chunk staged for the GEMM (reused)
  Matrix z_chunk_;     ///< per-chunk GEMM output (reused)
};

/// The 1.5D trainer: the shared engine driven by Algebra15D.
class Dist15D final : public DistEngine {
 public:
  /// Collective constructor; replication must divide the world size.
  Dist15D(const DistProblem& problem, GnnConfig config, Comm world,
          int replication, MachineModel machine = MachineModel::summit());
};

}  // namespace cagnet
