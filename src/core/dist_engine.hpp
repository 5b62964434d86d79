// The shared distributed GCN training engine.
//
// The paper's four partitioning algorithms (1D, 1.5D, 2D, 3D) differ *only*
// in how they realize the distributed SpMM A^T H (forward) and A G
// (backward) plus the collectives that keep W and Y replicated. Everything
// else — weight/optimizer state, the per-layer forward (distributed SpMM ->
// local GEMM -> ReLU / log-softmax), the loss/accuracy reduction, the
// backward recurrence, the SGD step, and EpochStats collection — is
// identical across the families. DistEngine owns that shared epoch;
// DistSpmmAlgebra is the strategy interface each partitioning implements
// (see DESIGN.md, "Engine / algebra split"). Adding a new partitioning is
// one algebra subclass plus a registry entry (algebra_registry.hpp).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "src/core/dist_common.hpp"
#include "src/gnn/optimizer.hpp"

namespace cagnet {

namespace dist {
class SampledRunner;
}  // namespace dist

/// Distributed linear algebra of one partitioning scheme. All methods are
/// collective over world(); every rank must call them in lockstep (the same
/// contract as Comm). An algebra is stateful only in its partitioned
/// adjacency blocks and communicators — activations, weights, and optimizer
/// state live in the engine.
///
/// Local data layout contract: each rank owns the H/G/Z row block
/// [row_lo(), row_hi()) and, of an f-wide feature dimension, the column
/// slice feat_slice(f). 1D/1.5D keep rows whole (feat_slice = [0, f)); the
/// 2D/3D families split features across process columns.
class DistSpmmAlgebra {
 public:
  explicit DistSpmmAlgebra(MachineModel machine) : machine_(machine) {}
  virtual ~DistSpmmAlgebra() = default;

  DistSpmmAlgebra(const DistSpmmAlgebra&) = delete;
  DistSpmmAlgebra& operator=(const DistSpmmAlgebra&) = delete;

  /// Registry / display name ("1d", "2d", ...). Purely local.
  virtual const char* name() const = 0;

  /// The world communicator (loss reduction, stats, meter deltas). The
  /// returned Comm's meter carries every charge this algebra makes, since
  /// meters are shared across split sub-communicators.
  virtual Comm& world() = 0;

  /// Target machine for modeled local-kernel work and for folding overlap
  /// regions (CostMeter overlap accounting). Purely local.
  const MachineModel& machine() const { return machine_; }

  // ---- Local layout (all purely local queries) ----

  /// First global row of this rank's H/G/Z blocks.
  virtual Index row_lo() const = 0;
  /// One past the last global row of this rank's H/G/Z blocks.
  virtual Index row_hi() const = 0;
  /// Row count of this rank's H/G/Z blocks.
  Index local_rows() const { return row_hi() - row_lo(); }

  /// Column range [c0, c1) of an f-wide feature dimension stored locally.
  virtual std::pair<Index, Index> feat_slice(Index f) const { return {0, f}; }

  /// True when local blocks hold whole feature rows (feat_slice is the
  /// identity) so gather_feature_rows is a no-op the engine may skip.
  /// Must be uniform across the world — the engine branches on it around
  /// collectives. Per-rank slice arithmetic is NOT a substitute: a 1-wide
  /// feature dimension on a multi-column grid gives some ranks the full
  /// slice and others an empty one.
  virtual bool rows_whole() const { return true; }

  /// True when this rank's output rows are the primary copy for loss and
  /// accuracy terms (replicas — 1.5D team members t > 0, 2D/3D process
  /// columns j > 0 — contribute nothing to the global reduction).
  virtual bool owns_loss_rows() const { return true; }

  /// Communicator of the sampled minibatch path, or nullptr when this
  /// algebra cannot host it. Sampled training needs a pure row-stripe
  /// layout — every rank owning whole rows [row_lo, row_hi) of H and the
  /// matching A^T stripe to sample in-neighbors from — so only the 1D
  /// family qualifies today; feature-sliced (2D/3D) and team-replicated
  /// (1.5D) layouts return nullptr and DistEngine raises a typed Error.
  virtual Comm* sample_comm() { return nullptr; }

  // ---- The distributed operations of one GCN layer ----
  //
  // All results are written into caller-owned output matrices whose
  // storage is reused across layers and epochs (Matrix::resize), so the
  // per-epoch hot path stops allocating after the first epoch. Outputs
  // must not alias inputs.

  /// Forward propagation T = A^T H: `h` is the local block of H^(l-1),
  /// `t` receives the local block of T in the same layout. Collective.
  /// Charges: the family's broadcast/reduction stages — kSparse for
  /// adjacency blocks (2D/3D SUMMA stages; replayed from the epoch cache
  /// after epoch 1), kDense for activation panels and the completing
  /// reductions. With overlap enabled, stage k+1's blocks are in flight
  /// behind stage k's local SpMM, and (1.5D) the team reduction of T may
  /// be left pending for times_weight to drain — charges and results are
  /// bitwise identical either way.
  virtual void spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) = 0;

  /// Backward propagation U = A G: `g` is the local block of G^l, `u`
  /// receives the local block of U. Called between begin_backward() and
  /// end_backward() (the 2D/3D families materialize A there). Collective;
  /// charges like spmm_at (on the transposed-adjacency blocks).
  virtual void spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) = 0;

  /// Z = T W with W replicated: `t` is the local block of T, `z` receives
  /// the local block of Z. Default: purely local GEMM (rows-whole
  /// layouts; charges nothing); the 2D/3D families override with their
  /// partial-SUMMA row broadcasts (kDense), and 1.5D overrides in overlap
  /// mode to drain the deferred team reduction of T chunk-by-chunk behind
  /// the GEMM. Collective whenever communication is involved.
  virtual void times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                            EpochStats& stats);

  /// Assemble full rows (local_rows x f) from the local feature slice —
  /// the row-wise all-gather forced by log-softmax's row dependence and
  /// reused for the weight-gradient operand. Default: identity copy
  /// (rows-whole layouts move nothing; the engine skips the call). The
  /// 2D/3D overrides are collective over the process row and charge
  /// kDense for the received slices.
  virtual void gather_feature_rows(const Matrix& local, Index f,
                                   Matrix& full, EpochStats& stats);

  /// Complete the weight gradient Y^l = (H^(l-1))^T (A G^l): `y_partial`
  /// is this rank's partial (feat_slice(f_in) width x f_out); `y_full`
  /// receives the fully replicated (f_in x f_out) gradient on every rank.
  /// Collective; charges kDense for the all-reduce (and, 2D/3D, the slice
  /// all-gather). The synchronous form: begin + finish, so it must not be
  /// called while other layers' reductions are still begun.
  virtual void reduce_gradients(Matrix& y_partial, Index f_in, Index f_out,
                                Matrix& y_full, EpochStats& stats) {
    begin_reduce_gradients(y_partial, f_in, f_out, y_full, stats);
    finish_gradients(stats);
  }

  /// reduce_gradients split in two: begin posts the reduction of this
  /// layer's partial through the nonblocking layer (staging a copy, so
  /// `y_partial` is released immediately) and returns; finish — called
  /// once per epoch, after the backward recurrence — completes every
  /// posted reduction into its `y_full`. The reductions are therefore in
  /// flight behind the remaining backward layers' compute (with overlap
  /// off each is settled at its post). Every charge value is an integer
  /// count of bytes over the 8-byte word — an exactly-representable
  /// dyadic — so per-category sums are order-independent and bitwise
  /// equal in both modes.
  virtual void begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                      Index f_out, Matrix& y_full,
                                      EpochStats& stats) = 0;
  virtual void finish_gradients(EpochStats& stats) = 0;

  /// Assemble the full (n x f) output on every rank from the full-row local
  /// output block (parity tests and inference). Default: rank-ordered
  /// all-gather over gather_comm(), charged as kControl so it never
  /// perturbs the modeled training volumes. Collective.
  virtual Matrix gather_output(const Matrix& output_rows, Index n);

  // ---- Epoch hooks ----

  /// Called at the start of each full-batch epoch with the absolute epoch
  /// number, or with -1 to disarm before an out-of-band forward (sampled
  /// inference). The 1D/1.5D families arm their halo plan's adaptive-rate
  /// state here (dist::halo_begin_epoch); collective in adaptive stale
  /// mode (the per-epoch want-flag exchange runs inside), a purely local
  /// decision otherwise. A no-op by default and whenever CAGNET_STALE is
  /// off.
  virtual void begin_epoch(int epoch) { (void)epoch; }

  /// Called before the backward recurrence; the 2D/3D families run their
  /// distributed transpose A^T -> A here (the paper's "trpose" phase,
  /// charged as kTranspose; replayed from the transpose cache after
  /// epoch 1). Collective for those families, a local no-op by default.
  virtual void begin_backward(EpochStats& stats) { (void)stats; }

  /// Called after the backward recurrence; undoes begin_backward()
  /// (charged/replayed symmetrically). Collective for the transpose
  /// families, a local no-op by default.
  virtual void end_backward(EpochStats& stats) { (void)stats; }

  /// Release every nonblocking-collective source peers may still be
  /// reading (quiesce this algebra's communicators, swallowing abort
  /// errors). The engine destructor calls it before the activation
  /// buffers those peers read from are freed; charges nothing.
  virtual void drain() noexcept {}

 protected:
  /// Communicator whose rank-ordered all-gather of full-row output blocks
  /// assembles H^L: world (1D), the slice (1.5D), the process column (2D),
  /// the j-plane (3D).
  virtual Comm& gather_comm() = 0;

 private:
  MachineModel machine_;
};

/// The single shared trainer: one full-batch GCN epoch (forward, loss,
/// backward, SGD step) expressed against a DistSpmmAlgebra. Owns the
/// replicated weights/optimizer, the local activation caches, and the
/// per-epoch EpochStats.
class DistEngine : public DistTrainer {
 public:
  /// Collective constructor: call on every rank of the algebra's world.
  DistEngine(const DistProblem& problem, GnnConfig config,
             std::unique_ptr<DistSpmmAlgebra> algebra);

  /// Drains the algebra's pending nonblocking reads (see
  /// DistSpmmAlgebra::drain) before the activation buffers are freed.
  ~DistEngine() override;

  /// One full-batch epoch (forward, loss, backward, SGD step). Collective
  /// over the algebra's world; the returned loss/accuracy are already
  /// globally reduced (the reduction itself is charged as kControl).
  /// last_epoch_stats().comm afterwards holds this rank's per-epoch meter
  /// delta, including the overlap-accounting totals.
  EpochResult train_epoch() override;

  /// Stats of the most recent epoch (this rank's view). Purely local.
  const EpochStats& last_epoch_stats() const override { return stats_; }

  /// Collective: the most recent epoch's stats max-reduced over the world
  /// (bulk-synchronous epochs are paced by the slowest rank); the
  /// reduction travels as kControl.
  EpochStats reduce_epoch_stats() const override;

  /// Collective: assemble the full (n x f) output log-probability matrix
  /// on every rank (kControl traffic; parity tests and inference). For a
  /// partitioned problem the rows are un-permuted back to original vertex
  /// order, so callers never see the internal relabeling.
  Matrix gather_output() override;

  /// Replicated weight matrices (bitwise identical on every rank by
  /// construction). Purely local.
  const std::vector<Matrix>& weights() const override { return weights_; }

  /// Replace the replicated weights (checkpoint restore). Purely local —
  /// call with identical matrices on every rank (e.g. loaded from the
  /// same checkpoint file) to keep the replication invariant; shapes must
  /// match the configured model exactly.
  void set_weights(const std::vector<Matrix>& weights) override;

  /// Training configuration (identical on every rank). Purely local.
  const GnnConfig& config() const { return config_; }
  /// The partitioning strategy driving this engine. Purely local access;
  /// calling algebra methods directly re-enters the collective contract.
  DistSpmmAlgebra& algebra() { return *algebra_; }
  const DistSpmmAlgebra& algebra() const { return *algebra_; }

  /// Full rows of this rank's block of H^L (valid after an epoch).
  /// Purely local.
  const Matrix& local_output() const { return output_rows_; }

  /// Align the absolute-epoch counter (checkpoint resume). The sampled
  /// path keys its shuffle/sampling RNG streams by absolute epoch, so
  /// restarting from a checkpoint must resume the streams where the
  /// uninterrupted run would be — the recovery drills assert bitwise
  /// parity through this hook. Purely local.
  void set_start_epoch(int epoch) override;

 private:
  const Matrix& forward();
  void backward();
  void step();
  EpochResult train_epoch_sampled();

  const DistProblem& problem_;
  GnnConfig config_;
  std::unique_ptr<DistSpmmAlgebra> algebra_;

  std::optional<Optimizer> optimizer_;
  std::vector<Matrix> weights_;
  std::vector<Matrix> gradients_;
  std::vector<Matrix> h_;  ///< local blocks of H^l, l = 0..L
  std::vector<Matrix> z_;  ///< local blocks of Z^l, l = 1..L
  Matrix output_rows_;     ///< full rows of this rank's H^L block

  // Reusable epoch workspaces: sized on first use, allocation-free after
  // the first epoch (Matrix::resize reuses storage).
  Matrix t_buf_;       ///< T = A^T H
  Matrix zrows_buf_;   ///< gathered full rows of Z^L
  Matrix u_buf_;       ///< U = A G
  Matrix u_rows_buf_;  ///< gathered full rows of U
  Matrix g_buf_;       ///< G^l (ping)
  Matrix g_next_buf_;  ///< G^(l-1) (pong)
  Matrix dh_buf_;      ///< U (W^l)^T before the ReLU mask
  Matrix y_buf_;       ///< weight-gradient slice partial
  Matrix w_rows_buf_;  ///< feat-sliced rows of W for the G recurrence

  /// Sampled minibatch state (dist::SampledRunner), constructed lazily on
  /// the first sampled epoch. Declared after algebra_ so its pending
  /// exchanges are quiesced (engine destructor drains the world) before
  /// its pack buffers die.
  std::unique_ptr<dist::SampledRunner> sampler_;
  /// Absolute epoch counter (sampled RNG stream key; see set_start_epoch).
  int epoch_ = 0;

  EpochStats stats_;
};

}  // namespace cagnet
