// Simulated message-passing runtime.
//
// This is the repo's stand-in for torch.distributed/NCCL on Summit (see
// DESIGN.md, "Substitutions"). A *world* of P ranks runs as P threads in one
// process. A Comm exposes MPI-flavoured collectives whose semantics match
// the operations the paper's algorithms are written in terms of: broadcast,
// all-reduce, reduce-scatter, all-gather(v), and pairwise exchange. Data is
// genuinely moved between rank-private buffers (so algorithm correctness is
// real), and every operation charges its textbook alpha-beta cost to the
// rank's CostMeter (so communication volumes are real too).
//
// Contract (same as MPI): a collective must be invoked by every member of
// the communicator, in the same program order. All spans must stay alive
// until the call returns.
//
// One implementation per collective: every op is a publication on a
// channel (AsyncChannel) plus a typed completion (PendingOp::complete_impl)
// that moves this rank's data and charges the meter. The i-prefixed
// collectives (ibroadcast_from, ireduce_scatter_sum, iallgatherv_into,
// iallreduce_sum, ialltoallv_*) post on a ring of 16 channels and return a
// PendingOp whose wait() runs the completion. Posts must follow the same
// program order on every rank; waits may be out of order. Between post and
// wait a rank may compute and may run other collectives on any
// communicator — this is what the SUMMA double-buffering in src/core/
// exploits. The blocking collectives are the same ops posted on the
// communicator's dedicated synchronous channel, waited at once, and
// released (every rank completed) before they return, so blocking calls
// never consume the ring's in-flight budget. See DESIGN.md, "Nonblocking
// runtime and overlap accounting".
#pragma once

#include <atomic>
#include <cstring>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "src/comm/compress.hpp"
#include "src/comm/contract_check.hpp"
#include "src/comm/costmeter.hpp"
#include "src/comm/fault.hpp"
#include "src/util/error.hpp"
#include "src/util/types.hpp"

namespace cagnet {

class Profiler;  // src/util/profiler.hpp; coded reductions time their
                 // codec work under Phase::kCompressPack

/// ceil(log2(p)) with ceil_log2(1) == 0: the latency factor of a
/// tree-structured collective.
double ceil_log2(int p);

namespace detail {

/// Channels per communicator for nonblocking collectives; also the cap on
/// posted-but-unwaited operations per rank (posting more is diagnosed, not
/// deadlocked).
inline constexpr int kAsyncChannels = 16;

/// Which collective a channel generation carries; published per rank so
/// mismatched program order is diagnosed at wait().
enum class OpKind : std::uint8_t {
  kNone = 0,
  kBcast,
  kReduceScatter,
  kAllgatherv,
  kAllreduce,
  kAllreduceMax,
  kAlltoallv,
  kRoute,
  kExchange,
  kBarrier,
  kCodedAllreduce,      ///< iallreduce_sum with a lossy codec
  kCodedReduceScatter,  ///< ireduce_scatter_sum with a lossy codec
};

/// Display name of an op kind (diagnostics and CommAborted of ops posted
/// without a public name, i.e. the nonblocking ones).
const char* op_kind_name(OpKind kind);

/// How a posted op completes. kAsync ops ride the 16-channel ring and are
/// completed by the caller's wait(). kBlocking ops ride the communicator's
/// synchronous channel and are waited and released inside the blocking
/// call (Comm::run_blocking). kSilent is kBlocking for the control plane
/// (barrier, split): no seam events and no charge.
enum class PostMode : std::uint8_t { kAsync, kBlocking, kSilent };

/// Identity of the operation a seam event or abort belongs to: the
/// observing rank, the traffic category, and the op's display name. Built
/// once per collective call and threaded through the publish/await/charge
/// hooks and every abort throw, so a CommAborted always names rank, phase,
/// and op kind no matter where the unwind started.
struct OpContext {
  int rank;
  CommCategory cat;
  const char* op;
};

/// Throw the peer-failure form of CommAborted: the world died under this
/// rank while it was inside `ctx`'s operation.
[[noreturn]] void throw_peer_aborted(const OpContext& ctx, FaultSite site);

/// Rendezvous state of one nonblocking-collective channel. Channels are
/// recycled in generations: the op with ticket T uses channel T % K at
/// generation T / K. `posted` and `finished` count cumulatively across
/// generations; generation G's payload is readable once posted reaches
/// size*(G+1), and the channel is recyclable for G+1 once finished reaches
/// size*(G+1). Slot writes happen-before the posting increment (release)
/// and slot reads happen-before the finishing increment, so recycling
/// never races with a straggling reader.
struct AsyncChannel {
  explicit AsyncChannel(int n)
      : posted_by(static_cast<std::size_t>(n)),
        ptr(static_cast<std::size_t>(n), nullptr),
        ptr2(static_cast<std::size_t>(n), nullptr),
        len(static_cast<std::size_t>(n), 0),
        kind(static_cast<std::size_t>(n), OpKind::kNone),
        root(static_cast<std::size_t>(n), -1) {}

  std::atomic<std::uint64_t> posted{0};
  std::atomic<std::uint64_t> finished{0};
  /// Per-rank cumulative post counts (posted == sum of these). They give
  /// the per-source drain of an alltoallv something finer to await than
  /// "everyone has posted": rank r's slots for generation G are readable
  /// once posted_by[r] reaches G+1, so a drainer can consume source r's
  /// chunk while slower ranks are still computing toward their posts.
  std::vector<std::atomic<std::uint64_t>> posted_by;
  /// Parked-waiter count gating the notify syscalls: posters bump their
  /// counter (seq_cst) and notify only when this is nonzero; waiters
  /// advertise themselves (seq_cst) before parking. The seq_cst total
  /// order makes a missed wake a cycle, hence impossible.
  std::atomic<int> waiters{0};
  std::vector<const void*> ptr;  ///< per-rank published source
  std::vector<const void*> ptr2; ///< secondary publication (alltoallv: the
                                 ///< per-destination offsets array)
  std::vector<std::size_t> len;  ///< per-rank published element count
  std::vector<OpKind> kind;      ///< per-rank op kind (order validation)
  std::vector<int> root;         ///< per-rank root (order validation)
};

struct CommState;

/// World-wide abort fan-out shared by a world and every communicator split
/// off it. A failing rank sets the flag and poisons every registered
/// state's channels (bump + notify), so waiters parked on futexes anywhere
/// in the communicator tree — nonblocking waits, per-source drains, and
/// blocking collectives on the synchronous channel, including on split
/// sub-communicators — wake, observe the flag, and unwind.
struct AbortHub {
  std::atomic<bool> aborted{false};
  std::mutex mutex;
  std::vector<std::weak_ptr<CommState>> states;
  /// World-lifetime fault schedule captured from the process-global plan
  /// at run_world entry; null is the everything-disabled fast path.
  std::shared_ptr<FaultPlan> fault;
  /// Strong refs to every state carrying a contract checker, so run_world
  /// can audit split sub-communicators at teardown even after the rank
  /// threads dropped theirs. Empty when the checker is disabled.
  std::vector<std::shared_ptr<CommState>> checked_states;

  void register_state(const std::shared_ptr<CommState>& state);  // comm.cpp
  void poison();  // comm.cpp
};

/// Shared state of one communicator: a ring of AsyncChannels for the
/// nonblocking collectives plus one synchronous channel (the last entry
/// of `channels`) for the blocking ones. Every channel carries its own
/// ordering (see AsyncChannel).
struct CommState {
  CommState(int n, std::shared_ptr<AbortHub> abort_hub)
      : size(n),
        next_ticket(static_cast<std::size_t>(n), 0),
        sync_ticket(static_cast<std::size_t>(n), 0),
        outstanding(static_cast<std::size_t>(n), 0),
        staging(static_cast<std::size_t>(n)),
        in_collective(static_cast<std::size_t>(n)),
        hub(std::move(abort_hub)) {
    channels.reserve(kAsyncChannels + 1);
    for (int c = 0; c <= kAsyncChannels; ++c) {
      channels.push_back(std::make_unique<AsyncChannel>(n));
    }
    if (contract::enabled()) {
      checker = std::make_unique<contract::Checker>(n);
    }
  }

  const int size;
  /// Process-unique identity. A raw CommState pointer is NOT a safe
  /// identity across worlds: a rebuilt world's allocation can land on a
  /// freed predecessor's address, and anything keyed on the pointer (the
  /// compress-buffer binding) would silently adopt stale state from the
  /// dead world. The uid is never recycled, so a binding check against it
  /// always detects a new communicator.
  const std::uint64_t uid = next_uid();
  /// kAsyncChannels ring channels, then the synchronous channel.
  std::vector<std::unique_ptr<AsyncChannel>> channels;
  std::vector<std::uint64_t> next_ticket;  // per rank; owner-written only
  std::vector<std::uint64_t> sync_ticket;  // per rank; blocking ops posted
  std::vector<int> outstanding;            // per-rank posted-unwaited count
  /// Per-rank completion target of the in-place all-reduce (its result
  /// may not overwrite a contribution peers are still reading); owner
  /// access only.
  std::vector<std::vector<unsigned char>> staging;
  /// Per-rank count of open slot-reading regions (blocking collective
  /// bodies, nonblocking waits, per-source drains). On the abort path a
  /// dying rank drains these before its unwind frees the buffers it
  /// published — see CollectiveWindow.
  std::vector<std::atomic<int>> in_collective;
  /// Lifecycle auditor (null unless contract::enabled() held at
  /// construction); split sub-communicators build their own.
  std::unique_ptr<contract::Checker> checker;
  /// Shared with every communicator split off this one, so a rank failure
  /// anywhere in the world also unblocks nonblocking waits on
  /// sub-communicators.
  std::shared_ptr<AbortHub> hub;

  AsyncChannel& sync_channel() { return *channels.back(); }

 private:
  static std::uint64_t next_uid() {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }
};

/// Block until `counter` (cumulative across channel generations) reaches
/// `target`: a few yields for the near-miss case, then a futex park
/// (atomic wait) that burns no cycles — on an oversubscribed host the
/// rank being waited on needs them. Throws CommAborted (naming `ctx`'s
/// rank/op/category) as soon as the world aborts: AbortHub::poison bumps
/// and notifies every counter, so parked waiters wake. Posts precede
/// waits by a whole compute stage in the double-buffered loops, so the
/// fast path is a single load.
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const std::atomic<bool>& aborted, const OpContext& ctx);

/// Counter bump + conditional wake, the posting half of await_counter's
/// protocol. A channel's posted and finished counts are only ever awaited
/// at whole generations (multiples of the communicator size), so for
/// them `generation` is that size and only the bump completing one wakes
/// the waiters — one wake per rendezvous instead of one per rank.
// [[hot-path]]
inline void bump_counter(std::atomic<std::uint64_t>& counter,
                         const std::atomic<int>& waiters,
                         std::uint64_t generation = 1) {
  const std::uint64_t now =
      counter.fetch_add(1, std::memory_order_seq_cst) + 1;
  if (now % generation == 0 && waiters.load(std::memory_order_seq_cst) != 0) {
    counter.notify_all();
  }
}

/// The transport seam: every payload publication, completion await, and
/// meter charge in the runtime reports itself here. With no fault plan
/// installed this is a null-pointer test (no lock, no allocation, no
/// charge perturbation); with one armed it is where kills, delays, and
/// poisoned payloads are injected (src/comm/fault.hpp).
// [[hot-path]]
inline void seam_event(const CommState& st, const OpContext& ctx,
                       FaultSite site) {
  FaultPlan* plan = st.hub->fault.get();
  if (plan != nullptr) [[unlikely]] {
    try {
      plan->on_event(ctx.rank, ctx.cat, site, ctx.op);
    } catch (...) {
      // Poison at throw time, not at run_world's catch: the dying rank's
      // own stack unwind completes in-flight ops, and those completions
      // block on peers who in turn block on this rank — a mutual wait
      // that only resolves if the abort flag is already up world-wide
      // when the unwind's awaits run.
      st.hub->poison();
      throw;
    }
  }
}

/// Program-order mismatch diagnostic naming this rank, the op it is
/// waiting on (ctx's name + category), the offending peer, and what that
/// peer posted instead. Out-of-line (comm.cpp) — built only on the
/// failure path.
std::string order_mismatch(const OpContext& ctx, int peer, OpKind got);

/// The one size-mismatch diagnostic of every size-uniform op: throws an
/// Error naming the op, its category, this rank and the first peer whose
/// published element count differs from this rank's.
void check_uniform_len(const OpContext& ctx,
                       const std::vector<std::size_t>& len);

/// RAII bracket around one slot-reading region (a blocking collective
/// body, a nonblocking wait, a per-source drain). Healthy worlds pay two
/// uncontended atomic RMWs. Its real job is the abort path: a rank whose
/// exception escapes the region poisons the world immediately (so no peer
/// starts a new read of this rank's published buffers) and then blocks
/// until every other rank's open regions drain, because a peer that
/// passed its await before the poison landed may still be mid-read of a
/// buffer this rank's unwind is about to free. Peers exit their regions
/// in bounded time — parked ones are poison-woken and throw, active ones
/// throw at their next await — and each dying rank closes its own region
/// before waiting on the others', so mutual aborts cannot cycle.
/// ThreadSanitizer found the use-after-free window this closes (a killed
/// rank's teardown racing a straggling reader); the acquire/release pair
/// on the region counter is also the happens-before edge that orders the
/// reader's last load before the dying rank's free.
class CollectiveWindow {
 public:
  CollectiveWindow(CommState& st, int rank)
      : st_(st),
        rank_(rank),
        entry_exceptions_(std::uncaught_exceptions()) {
    st_.in_collective[static_cast<std::size_t>(rank)].fetch_add(
        1, std::memory_order_seq_cst);
  }
  ~CollectiveWindow();  // comm.cpp

  CollectiveWindow(const CollectiveWindow&) = delete;
  CollectiveWindow& operator=(const CollectiveWindow&) = delete;

 private:
  CommState& st_;
  int rank_;
  int entry_exceptions_;  ///< uncaught count at entry; more at exit = unwind
};

}  // namespace detail

/// Concatenation of per-rank variable-length contributions, with offsets.
template <typename T>
struct Gathered {
  std::vector<T> data;
  std::vector<std::size_t> offsets;  ///< size+1 entries; rank r owns
                                     ///< [offsets[r], offsets[r+1])
  std::span<const T> chunk(int r) const {
    return {data.data() + offsets[static_cast<std::size_t>(r)],
            offsets[static_cast<std::size_t>(r) + 1] -
                offsets[static_cast<std::size_t>(r)]};
  }
};

/// Reusable state of one coded-reduction stream: this rank's encoded
/// wire bytes (peers decode straight out of them), a decode scratch, and
/// the optional error-feedback residual (see src/comm/compress.hpp).
/// A buf is bound to a (communicator, element count) pair on first use;
/// using it with a different communicator or length resets the residual,
/// because feedback accumulated against other peers or another buffer
/// shape would be meaningless noise (tests/comm_test.cpp asserts the
/// reset). Reuse the same buf across rounds of the same reduction — that
/// reuse is what carries the quantization error forward.
struct CompressBuf {
  std::vector<std::uint8_t> send;    ///< this rank's encoded wire bytes
  std::vector<Real> residual;        ///< error-feedback carry
  std::vector<Real> scratch;         ///< decode workspace
  bool error_feedback = false;       ///< apply residual feedback on encode
  std::uint64_t bound_comm = 0;  ///< uid of the bound communicator (0 = none)
  std::size_t bound_n = 0;       ///< bound element count
};

/// The optional lossy wire codec of a reduction (Comm::iallreduce_sum /
/// Comm::ireduce_scatter_sum): the mode and the caller's CompressBuf,
/// whose send bytes carry the op and whose residual carries the error
/// feedback. Encode (at post) and decode (at wait) seconds land in
/// Phase::kCompressPack of `profiler` when one is given. A default Codec,
/// mode kOff, or a one-rank communicator leave the op exact (as does a
/// reduce-scatter whose coded wire would not be smaller).
struct Codec {
  CompressMode mode = CompressMode::kOff;
  CompressBuf* buf = nullptr;
  Profiler* profiler = nullptr;
};

/// Handle to a posted-but-possibly-incomplete nonblocking collective.
/// Move-only. wait() blocks until every member has posted the matching op,
/// performs this rank's data movement, charges the meter exactly as the
/// blocking form would, and releases the channel; a second wait() is a
/// no-op, diagnosed as a ContractViolation when the contract checker is
/// armed (gate repeat waits on pending()). A
/// PendingOp that is destroyed while still pending completes itself first
/// (like a blocking wait), swallowing abort errors so unwinding a failed
/// world never terminates.
///
/// Caller contract: every span passed to the posting call must stay valid
/// and unmodified until *every* rank has waited the op (sources are read by
/// peers at their own wait), and output spans must not alias any rank's
/// contribution.
class PendingOp {
 public:
  PendingOp() = default;  ///< empty handle; pending() is false

  PendingOp(PendingOp&& other) noexcept { *this = std::move(other); }
  PendingOp& operator=(PendingOp&& other) noexcept {
    if (this != &other) {
      complete_for_destroy();
      state_ = std::move(other.state_);
      name_ = other.name_;
      meter_ = other.meter_;
      ticket_ = other.ticket_;
      out_ = other.out_;
      out_len_ = other.out_len_;
      src_len_ = other.src_len_;
      gathered_ = other.gathered_;
      drained_mask_ = other.drained_mask_;
      landed_mask_ = other.landed_mask_;
      complete_ = other.complete_;
      codec_profiler_ = other.codec_profiler_;
      rank_ = other.rank_;
      root_ = other.root_;
      cat_ = other.cat_;
      mode_ = other.mode_;
      kind_ = other.kind_;
      codec_mode_ = other.codec_mode_;
      charged_ = other.charged_;
      waited_ = other.waited_;
      other.state_.reset();
      other.complete_ = nullptr;
      other.waited_ = false;  // moved-from behaves like an empty handle
    }
    return *this;
  }

  PendingOp(const PendingOp&) = delete;
  PendingOp& operator=(const PendingOp&) = delete;

  ~PendingOp() { complete_for_destroy(); }

  /// True between post and wait.
  bool pending() const { return state_ != nullptr; }

  /// True for an ialltoallv_post op (drained source by source).
  bool per_source() const {
    return kind_ == detail::OpKind::kAlltoallv && gathered_ == nullptr;
  }

  /// Posting-order index of this op on its communicator (valid while
  /// pending). Record it before wait() to later release this op's
  /// sources with Comm::quiesce_op.
  std::uint64_t ticket() const { return ticket_; }

  /// Complete the op: block for all posts, move this rank's data, charge
  /// the meter, release the channel. No-op when not pending — but a
  /// second wait() on an already-completed handle is diagnosed as a
  /// ContractViolation when the contract checker is armed (gate a
  /// maybe-completed wait on pending() instead of relying on the no-op).
  void wait();

  // ---- Per-source drain (alltoallv-post ops only; see
  // Comm::ialltoallv_post). ----

  /// Block until `src` alone has posted the matching alltoallv, then
  /// return a read-only view of the chunk it addressed to this rank —
  /// straight into src's send buffer, no staging copy. Charges 1 latency
  /// unit + the chunk's words (nothing for src == rank(), mirroring the
  /// blocking form's self-chunk exclusion), so draining every source sums
  /// bitwise to the blocking alltoallv_into charge. Call at most once per
  /// source; the view stays readable until this communicator's release
  /// point for the op (quiesce / quiesce_op), exactly like any posted
  /// source. A source already landed by await_all_sources returns at once
  /// (its charge was applied there). Worlds wider than 64 ranks are
  /// diagnosed (the drain ledger is a 64-bit mask).
  template <typename T>
  std::span<const T> await_source(int src) {
    CAGNET_CHECK(pending(), "await_source on a non-pending op");
    CAGNET_CHECK(per_source(),
                 "await_source: op was not posted with ialltoallv_post");
    CAGNET_CHECK(src >= 0 && src < state_->size,
                 "await_source: source rank out of range");
    CAGNET_CHECK(src < 64, "await_source: drain supports at most 64 ranks");
    CAGNET_CHECK((drained_mask_ & (std::uint64_t{1} << src)) == 0,
                 "await_source: source already drained");
    const detail::OpContext ctx{rank_, cat_, "ialltoallv_post drain"};
    detail::CollectiveWindow window(*state_, rank_);
    detail::seam_event(*state_, ctx, FaultSite::kWait);
    land_source(src, sizeof(T), ctx);
    drained_mask_ |= std::uint64_t{1} << src;
    const detail::AsyncChannel& ch = channel();
    const auto* offs = static_cast<const std::size_t*>(
        ch.ptr2[static_cast<std::size_t>(src)]);
    const auto me = static_cast<std::size_t>(rank_);
    return {static_cast<const T*>(ch.ptr[static_cast<std::size_t>(src)]) +
                offs[me],
            offs[me + 1] - offs[me]};
  }

  /// Caller-certified empty chunk: charge the per-source latency unit and
  /// mark `src` drained WITHOUT awaiting its post or reading its slots.
  /// Use when the exchange plan guarantees src addressed nothing to this
  /// rank (both sides derive chunk sizes from the same plan): there is
  /// nothing to read, so there is no reason to couple this rank's
  /// progress to that peer's schedule. Safe because publication slots are
  /// per-rank and the counters cumulative — the skipped peer's eventual
  /// post conflicts with nothing. Charges still telescope bitwise to the
  /// blocking form's (1 latency unit, zero words).
  void skip_source(int src) {
    CAGNET_CHECK(pending(), "skip_source on a non-pending op");
    CAGNET_CHECK(per_source(),
                 "skip_source: op was not posted with ialltoallv_post");
    CAGNET_CHECK(src >= 0 && src < state_->size && src < 64,
                 "skip_source: source rank out of range");
    const std::uint64_t bit = std::uint64_t{1} << src;
    CAGNET_CHECK((drained_mask_ & bit) == 0,
                 "skip_source: source already drained");
    if ((landed_mask_ & bit) == 0 && src != rank_) charge(1.0, 0);
    drained_mask_ |= bit;
    landed_mask_ |= bit;
  }

  /// Wait at post for a per-source drain: await and charge every source
  /// not yet landed, leaving the op pending so each chunk is still read
  /// through await_source (which then returns without blocking) and the
  /// channel is released by the final wait(). Charges are the ones the
  /// individual drains would apply, so both schedules meter identically.
  void await_all_sources();  // comm.cpp

 private:
  friend class Comm;

  /// Await `src`'s post (never for this rank), check it posted the
  /// matching op, and charge its chunk (1 latency unit + its words; none
  /// for the self chunk). No-op for a source already landed.
  void land_source(int src, std::size_t elem_bytes,
                   const detail::OpContext& ctx);  // comm.cpp

  void complete_for_destroy() noexcept {
    if (!pending()) return;
    // Destroyed by a stack unwind: this rank is failing, and the frames
    // owning this op's sources are about to be freed while peers may
    // still read them. Failing the world first makes the wait's window
    // close on an aborted world, which waits out every peer's open reads.
    if (std::uncaught_exceptions() > 0) state_->hub->poison();
    try {
      wait();
    } catch (...) {
      // Unwinding a failed world: peers were released by the abort flag;
      // there is nothing left to complete.
      state_.reset();
    }
  }

  /// `bytes` is a double so a coded op can charge its fractional
  /// Real-sized word count exactly.
  // [[hot-path]]
  void charge(double latency_units, double bytes) {
    if (!charged_) return;
    detail::seam_event(*state_, {rank_, cat_, name_}, FaultSite::kCharge);
    if (auto* ck = state_->checker.get()) ck->on_charge(rank_, name_, cat_);
    meter_->add(cat_, latency_units, bytes / sizeof(Real));
  }

  template <typename T>
  static void complete_impl(PendingOp& op);

  /// Completion of a coded reduction: decode every rank's published wire
  /// bytes in ascending rank order, sum into this rank's output, and
  /// charge kCompressed with the bytes actually on the wire. Out-of-line
  /// (comm.cpp).
  static void complete_coded(PendingOp& op);

  /// The channel the op posted on and its generation there: ring tickets
  /// cycle through the kAsyncChannels ring channels, blocking ops own the
  /// synchronous channel one generation per ticket. Derived rather than
  /// stored, which keeps the handle small (see the members below).
  detail::AsyncChannel& channel() const {
    return mode_ == detail::PostMode::kAsync
               ? *state_->channels[ticket_ % detail::kAsyncChannels]
               : state_->sync_channel();
  }
  std::uint64_t generation() const {
    return mode_ == detail::PostMode::kAsync
               ? ticket_ / detail::kAsyncChannels
               : ticket_;
  }

  /// Completion of an ialltoallv_post op: land (await + charge) every
  /// source not landed yet — no data is copied; an undrained chunk was
  /// abandoned — then wait()'s shared epilogue releases the channel. Makes
  /// wait()/destruction equivalent to a full drain charge-wise.
  template <typename T>
  static void complete_drain_impl(PendingOp& op) {
    const detail::OpContext ctx{op.rank_, op.cat_, "ialltoallv_post drain"};
    for (int r = 0; r < op.state_->size; ++r) {
      if (r != op.rank_) op.land_source(r, sizeof(T), ctx);
    }
  }

  // Members, widest first, with the channel and generation derived: the
  // handle fits the 128-byte heap block class (see the static_assert
  // below the class).
  std::shared_ptr<detail::CommState> state_;
  const char* name_ = nullptr;  ///< display name (seam events, charges)
  CostMeter* meter_ = nullptr;
  std::uint64_t ticket_ = 0;
  void* out_ = nullptr;          ///< this rank's destination (kind-specific)
  std::size_t out_len_ = 0;      ///< destination element count
  std::size_t src_len_ = 0;      ///< this rank's contribution element count
  /// Gathered<T>* for iallgatherv_into / ialltoallv_into; the caller's
  /// CompressBuf* for the coded kinds.
  void* gathered_ = nullptr;
  std::uint64_t drained_mask_ = 0;  ///< sources the caller consumed
  std::uint64_t landed_mask_ = 0;   ///< sources awaited and charged
  void (*complete_)(PendingOp&) = nullptr;  ///< typed movement + charge
  Profiler* codec_profiler_ = nullptr;  ///< the coded kinds' codec timer
  int rank_ = 0;
  int root_ = -1;
  CommCategory cat_ = CommCategory::kControl;
  detail::PostMode mode_ = detail::PostMode::kAsync;
  detail::OpKind kind_ = detail::OpKind::kNone;
  CompressMode codec_mode_ = CompressMode::kOff;  ///< the coded kinds' codec
  bool charged_ = true;
  bool waited_ = false;  ///< completed by an explicit wait (double-wait check)
};

// Rank threads grow vectors of handles (the deferred reductions' slots)
// and free the outgrown blocks into their heaps, where small allocations
// made later on the rank (e.g. a caller's end-of-world result copies)
// reuse them. In a larger block class those copies land at the top of the
// rank's heap and, freed later by another thread, keep it from shrinking
// between worlds: at 144 bytes, replicated-15d's peak RSS rose ~10%.
static_assert(sizeof(PendingOp) <= 120,
              "PendingOp must stay within the 128-byte heap block class");

/// One rank's endpoint of a simulated communicator. Default-constructed
/// Comms are *invalid* (valid() is false); every collective, barrier, and
/// split on an invalid Comm fails with a diagnostic instead of crashing.
/// Obtain valid Comms from run_world or split(). Copies share the
/// communicator state and the rank's meter, so they are interchangeable.
class Comm {
 public:
  Comm() = default;  ///< invalid; assign from run_world / split

  /// This rank's index in [0, size()).
  int rank() const { return rank_; }
  /// Number of members; 0 for an invalid Comm.
  int size() const { return state_ ? state_->size : 0; }
  /// False for a default-constructed Comm (no collective may be called).
  bool valid() const { return state_ != nullptr; }

  /// The calling rank's cost meter (shared across split communicators).
  CostMeter& meter() const {
    check_valid("meter");
    return *meter_;
  }

  /// Synchronize all members (one rendezvous on the synchronous channel;
  /// charges nothing).
  void barrier() const;

  /// Report a named zero-cost protocol event at the transport seam
  /// (FaultSite::kCharge) without moving data or charging the meter. This
  /// gives fault plans a deterministic, nameable injection point for
  /// decisions that suppress communication — e.g. the bounded-staleness
  /// halo path reports "halo stale skip" when it replays cached rows
  /// instead of exchanging, so chaos drills can kill or delay a rank at
  /// exactly that seam. Purely local: no rendezvous, no ordering effect.
  void notify_event(CommCategory cat, const char* op) {
    check_valid("notify_event");
    if (state_->hub->fault == nullptr) return;
    // A window, like the post seam's: a kill here must not free sources
    // peers are still reading (see Comm::post_async).
    detail::CollectiveWindow window(*state_, rank_);
    detail::seam_event(*state_, {rank_, cat, op}, FaultSite::kCharge);
  }

  /// Block until every member has completed (waited) every nonblocking op
  /// posted so far on this communicator — the release point after which
  /// the source buffers of those ops may be modified or freed. Unlike
  /// barrier() this is not a phase: it costs a handful of atomic loads
  /// when peers have already drained, and it charges nothing. The
  /// double-buffered loops call it before reusing a broadcast source.
  /// CAUTION: quiescing while an op that peers deliberately wait *later*
  /// (e.g. a deferred gradient reduction) is outstanding deadlocks; use
  /// quiesce_op to release one specific op instead.
  void quiesce() const;

  /// Block until every member has completed one specific op, identified
  /// by the PendingOp::ticket() recorded at post time — the single-op
  /// release form of quiesce. Waits only on that op's channel (channel
  /// generations complete in order), so deliberately-still-pending ops
  /// elsewhere cause no deadlock.
  void quiesce_op(std::uint64_t ticket) const;

  /// Collective split into disjoint sub-communicators by color; ranks are
  /// ordered by (key, parent rank) within each color. Every member of this
  /// communicator must call. The sub-communicator shares this rank's meter
  /// and the world's abort flag.
  Comm split(int color, int key) const;

  // ---- Collectives. `cat` selects the CostMeter category. Each one is
  // the matching channel op posted on the synchronous channel, waited,
  // and released before it returns (run_blocking), so its movement and
  // charge are the nonblocking form's completion. ----

  /// In-place broadcast from `root` to all members. Charges lg(P) latency
  /// units and data.size() words to every rank (nothing when P == 1).
  template <typename T>
  void broadcast(std::span<T> data, int root, CommCategory cat) {
    check_valid("broadcast");
    check_member(root);
    // The root's buffer is only read, every other buffer only written, so
    // in place is the broadcast_from completion with src == dst.
    run_blocking(post_bcast(std::span<const T>(data), data, root, cat, true,
                            "broadcast", detail::PostMode::kBlocking));
  }

  /// Broadcast that reads directly from the root's existing buffer: the
  /// root passes its data as `src` (left untouched) and an empty `dst`;
  /// every other rank passes an empty `src` and receives into `dst`. This
  /// is the zero-staging-copy form the SUMMA loops use so roots never
  /// materialize a second copy of the block they already hold. Charged
  /// exactly like broadcast.
  template <typename T>
  void broadcast_from(std::span<const T> src, std::span<T> dst, int root,
                      CommCategory cat) {
    check_valid("broadcast_from");
    check_member(root);
    run_blocking(post_bcast(src, dst, root, cat, true, "broadcast_from",
                            detail::PostMode::kBlocking));
  }

  /// In-place elementwise sum over all members; every rank ends with the
  /// total. Cost: Rabenseifner (reduce-scatter + all-gather): 2 lg(P)
  /// latency units and 2 n (P-1)/P words.
  template <typename T>
  void allreduce_sum(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_sum");
    allreduce_in_place(data, cat, detail::OpKind::kAllreduce,
                       "allreduce_sum");
  }

  /// In-place elementwise max over all members. Charged like
  /// allreduce_sum.
  template <typename T>
  void allreduce_max(std::span<T> data, CommCategory cat) {
    check_valid("allreduce_max");
    allreduce_in_place(data, cat, detail::OpKind::kAllreduceMax,
                       "allreduce_max");
  }

  /// Reduce-scatter with sum: `contrib` (same length on every rank) is the
  /// full-length vector of partial sums; rank r receives the reduced slice
  /// [chunk_offset(r), chunk_offset(r)+out.size()) into `out`, where chunk
  /// boundaries are the concatenation of every rank's out.size(). Charges
  /// lg(P) latency units and total (P-1)/P words.
  template <typename T>
  void reduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                          CommCategory cat) {
    check_valid("reduce_scatter_sum");
    run_blocking(post_async(detail::OpKind::kReduceScatter, contrib.data(),
                            out.size(), /*root=*/0, cat, true,
                            &PendingOp::complete_impl<T>, out.data(),
                            out.size(), contrib.size(), nullptr, nullptr,
                            "reduce_scatter_sum",
                            detail::PostMode::kBlocking));
  }

  /// All-gather of variable-size chunks. Charges lg(P) latency units and
  /// the received words (everything but this rank's own chunk).
  template <typename T>
  Gathered<T> allgatherv(std::span<const T> mine, CommCategory cat) {
    Gathered<T> result;
    allgatherv_into(mine, result, cat);
    return result;
  }

  /// All-gather of variable-size chunks into a caller-owned Gathered whose
  /// storage is reused across calls (the allocation-free hot-path form).
  /// `mine` must not alias `out.data`. Charged like allgatherv.
  template <typename T>
  void allgatherv_into(std::span<const T> mine, Gathered<T>& out,
                       CommCategory cat) {
    check_valid("allgatherv_into");
    run_blocking(post_allgatherv(mine, out, cat, true, "allgatherv_into",
                                 detail::PostMode::kBlocking));
  }

  /// Pairwise exchange: send `send` to `peer` and receive its message.
  /// Both sides must name each other — a route whose completion also
  /// checks that `peer` named this rank (a non-reciprocal pairing throws
  /// an Error naming both ranks). peer == rank() is a local copy. Charges
  /// 1 latency unit and the received words (nothing for self).
  template <typename T>
  std::vector<T> exchange(std::span<const T> send, int peer,
                          CommCategory cat) {
    check_valid("exchange");
    return route_impl(send, peer, cat, detail::OpKind::kExchange,
                      "exchange");
  }

  /// Permutation all-to-all: every rank sends one message to `dest`; the
  /// destinations across ranks must form a permutation (each rank receives
  /// exactly one message). This is the redistribution primitive of the 3D
  /// distributed transpose. dest == rank() is a local copy. Charges 1
  /// latency unit and the received words (nothing for self-delivery).
  template <typename T>
  std::vector<T> route(std::span<const T> send, int dest, CommCategory cat) {
    check_valid("route");
    return route_impl(send, dest, cat, detail::OpKind::kRoute, "route");
  }

  /// Individualized all-to-all with variable chunk sizes: `send` holds this
  /// rank's outgoing data split per destination by `send_offsets` (size()+1
  /// monotone element offsets; destination d's chunk is
  /// [send_offsets[d], send_offsets[d+1])). Every rank receives the
  /// rank-ordered concatenation of the chunks addressed to it into `out`
  /// (storage reused). This is the request-and-send primitive of the
  /// sparsity-aware halo exchange (Section IV-A.8). Charges P-1 latency
  /// units and the received words (everything but the self chunk).
  template <typename T>
  void alltoallv_into(std::span<const T> send,
                      std::span<const std::size_t> send_offsets,
                      Gathered<T>& out, CommCategory cat) {
    check_valid("alltoallv_into");
    check_offsets(send.size(), send_offsets, "alltoallv_into");
    run_blocking(post_async(detail::OpKind::kAlltoallv, send.data(),
                            send.size(), /*root=*/0, cat, true,
                            &PendingOp::complete_impl<T>, nullptr, 0,
                            send.size(), &out, send_offsets.data(),
                            "alltoallv_into", detail::PostMode::kBlocking));
  }

  // ---- Nonblocking collectives. Posts are nonblocking (a lock-free
  // publication on the ring); data moves and the meter is charged at
  // PendingOp::wait() by the same completion the blocking forms run, so
  // charges are identical. `charged = false`
  // suppresses the automatic charge for callers that account the traffic
  // themselves (e.g. an op split into chunks whose per-chunk integer
  // charges would not sum to the unsplit op's).
  //
  // Coded reductions (the CAGNET_COMPRESS paths): iallreduce_sum and
  // ireduce_scatter_sum take an optional Codec. A lossy codec changes
  // only the payload, not the collective: the op is an ordinary
  // PendingOp on the ring whose published source is the encoded bytes
  // in codec.buf->send (stable until the op's release point, like any
  // source), whose wait decode-sums in ascending rank order (identical on
  // every rank, bitwise reproducible for any thread count), and which
  // charges CommCategory::kCompressed with the ACTUAL post-compression
  // bytes (converted to Real-sized words, hence fractional values).
  // No codec, mode kOff, or P == 1 post the exact op unchanged. ----

  /// Nonblocking broadcast_from: the root posts `src` (left untouched and
  /// readable by peers until every rank has waited); every other rank
  /// receives into `dst` at its own wait(). Charged like broadcast.
  template <typename T>
  PendingOp ibroadcast_from(std::span<const T> src, std::span<T> dst,
                            int root, CommCategory cat, bool charged = true) {
    check_valid("ibroadcast_from");
    check_member(root);
    return post_bcast(src, dst, root, cat, charged, nullptr,
                      detail::PostMode::kAsync);
  }

  /// Nonblocking reduce_scatter_sum (same chunking contract as the
  /// blocking form). `out` must not alias any rank's `contrib`. Charged
  /// like reduce_scatter_sum.
  template <typename T>
  PendingOp ireduce_scatter_sum(std::span<const T> contrib, std::span<T> out,
                                CommCategory cat, bool charged = true) {
    check_valid("ireduce_scatter_sum");
    return post_async(detail::OpKind::kReduceScatter, contrib.data(),
                      out.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, out.data(), out.size(),
                      contrib.size(), nullptr);
  }

  /// ireduce_scatter_sum with an optional lossy codec. When the codec is
  /// active and coding undercuts the exact wire
  /// (reduce_scatter_compression_pays — rank-uniform, it depends only on
  /// mode, length and size()), every rank encodes its full contribution
  /// at post behind a u64 out-length header, and the wait decodes this
  /// rank's slice of every rank's bytes, summing in ascending rank order;
  /// the op charges kCompressed with lg(P) latency units and the
  /// gathered bytes' (P-1)/P, headers included. Otherwise it is the exact
  /// op above.
  PendingOp ireduce_scatter_sum(std::span<const Real> contrib,
                                std::span<Real> out, CommCategory cat,
                                const Codec& codec);  // comm.cpp

  /// Nonblocking allgatherv_into. `out` (resized at wait) must outlive the
  /// op and `mine` must not alias `out.data`. Charged like allgatherv.
  template <typename T>
  PendingOp iallgatherv_into(std::span<const T> mine, Gathered<T>& out,
                             CommCategory cat, bool charged = true) {
    check_valid("iallgatherv_into");
    return post_allgatherv(mine, out, cat, charged, nullptr,
                           detail::PostMode::kAsync);
  }

  /// Nonblocking *out-of-place* all-reduce sum: every rank posts `contrib`
  /// (stable until all ranks waited) and receives the elementwise total
  /// into `out` (same length, must not alias any contribution). The
  /// out-of-place form is what allows peers to complete at different
  /// times without a trailing rendezvous. Charged like allreduce_sum.
  template <typename T>
  PendingOp iallreduce_sum(std::span<const T> contrib, std::span<T> out,
                           CommCategory cat, bool charged = true) {
    check_valid("iallreduce_sum");
    CAGNET_CHECK(contrib.size() == out.size(),
                 "iallreduce_sum: contrib/out length mismatch");
    return post_async(detail::OpKind::kAllreduce, contrib.data(),
                      contrib.size(), /*root=*/0, cat, charged,
                      &PendingOp::complete_impl<T>, out.data(), out.size(),
                      contrib.size(), nullptr);
  }

  /// iallreduce_sum with an optional lossy codec. An active codec encodes
  /// `contrib` at post (so `contrib` is free on return) and the wait
  /// decode-sums every rank's bytes in ascending rank order — the same
  /// result on every rank; the op charges kCompressed with 2 lg(P)
  /// latency units and 2 E (P-1)/P bytes, E the encoded size. Otherwise
  /// it is the exact op above.
  PendingOp iallreduce_sum(std::span<const Real> contrib, std::span<Real> out,
                           CommCategory cat, const Codec& codec);  // comm.cpp

  /// Nonblocking alltoallv_into. `send` AND `send_offsets` must stay valid
  /// and unmodified until every rank has waited (peers read both at their
  /// own waits); `out` (resized at wait) must outlive the op and must not
  /// alias any rank's send buffer. Charged like alltoallv_into.
  template <typename T>
  PendingOp ialltoallv_into(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            Gathered<T>& out, CommCategory cat,
                            bool charged = true) {
    check_valid("ialltoallv_into");
    check_offsets(send.size(), send_offsets, "ialltoallv_into");
    return post_async(detail::OpKind::kAlltoallv, send.data(), send.size(),
                      /*root=*/0, cat, charged, &PendingOp::complete_impl<T>,
                      nullptr, 0, send.size(), &out, send_offsets.data());
  }

  /// Nonblocking alltoallv without a gathered destination, made for
  /// per-source draining: the caller pulls each peer's chunk with
  /// PendingOp::await_source — zero-copy views into the peers' send
  /// buffers, available as soon as *that* peer has posted — and the final
  /// wait() awaits + charges any sources left undrained, so total charges
  /// are bitwise the blocking alltoallv_into's regardless of how many
  /// chunks the caller consumed. `send` and `send_offsets` obey the same
  /// lifetime contract as ialltoallv_into. This is the halo pipeline's
  /// primitive (remote rows are multiplied as they land; see
  /// dist_common.cpp). At most 64 ranks (the drain ledger is a bitmask).
  template <typename T>
  PendingOp ialltoallv_post(std::span<const T> send,
                            std::span<const std::size_t> send_offsets,
                            CommCategory cat, bool charged = true) {
    check_valid("ialltoallv_post");
    check_offsets(send.size(), send_offsets, "ialltoallv_post");
    CAGNET_CHECK(size() <= 64,
                 "ialltoallv_post: per-source drain supports at most 64 "
                 "ranks; use ialltoallv_into");
    return post_async(detail::OpKind::kAlltoallv, send.data(), send.size(),
                      /*root=*/0, cat, charged,
                      &PendingOp::complete_drain_impl<T>, nullptr, 0,
                      send.size(), nullptr, send_offsets.data());
  }

 private:
  friend void run_world(int, const std::function<void(Comm&)>&,
                        std::vector<CostMeter>*);
  friend class PendingOp;

  Comm(std::shared_ptr<detail::CommState> state, int rank, CostMeter* meter)
      : state_(std::move(state)), rank_(rank), meter_(meter) {}

  void check_member(int r) const {
    CAGNET_CHECK(r >= 0 && r < size(), "rank out of range");
  }

  /// Diagnose use of a default-constructed (invalid) Comm.
  void check_valid(const char* what) const {
    CAGNET_CHECK(state_ != nullptr,
                 std::string(what) +
                     " on an invalid Comm (default-constructed; obtain one "
                     "from run_world or split)");
  }

  /// Purely local alltoallv offsets validation: size()+1 monotone entries
  /// spanning exactly the send buffer.
  void check_offsets(std::size_t send_len,
                     std::span<const std::size_t> offsets,
                     const char* what) const {
    CAGNET_CHECK(offsets.size() == static_cast<std::size_t>(size()) + 1,
                 std::string(what) + ": offsets must have size()+1 entries");
    CAGNET_CHECK(offsets.front() == 0 && offsets.back() == send_len,
                 std::string(what) + ": offsets must span the send buffer");
    for (std::size_t i = 0; i + 1 < offsets.size(); ++i) {
      CAGNET_CHECK(offsets[i] <= offsets[i + 1],
                   std::string(what) + ": offsets must be monotone");
    }
  }

  /// Bind `buf` to this communicator and element count; a change of
  /// either resets the error-feedback residual (feedback accumulated on
  /// another communicator or buffer shape must not leak into this one).
  void rebind_compress_buf(CompressBuf& buf, std::size_t n) const {
    if (buf.bound_comm != state_->uid || buf.bound_n != n) {
      buf.residual.clear();
      buf.bound_comm = state_->uid;
      buf.bound_n = n;
    }
  }

  /// Encode `contrib` into codec.buf's send bytes (behind a u64
  /// out-length header for the reduce-scatter) and post them as a coded
  /// op of `kind` on the ring. Out-of-line (comm.cpp).
  PendingOp post_coded(detail::OpKind kind, std::span<const Real> contrib,
                       std::span<Real> out, const Codec& codec) const;

  /// Claim the next ticket (on the ring for kAsync, on the synchronous
  /// channel otherwise), publish this rank's slot on its channel, and hand
  /// back the armed PendingOp. `name` (null: op_kind_name(kind)) is what
  /// seam events, charges and aborts report. Out-of-line (comm.cpp).
  PendingOp post_async(detail::OpKind kind, const void* publish_ptr,
                       std::size_t publish_len, int root, CommCategory cat,
                       bool charged, void (*complete)(PendingOp&), void* out,
                       std::size_t out_len, std::size_t src_len,
                       void* gathered, const void* publish_ptr2 = nullptr,
                       const char* name = nullptr,
                       detail::PostMode mode = detail::PostMode::kAsync) const;

  /// The synchronous-channel half of every blocking collective: wait the
  /// op just posted there, then release — block until every member has
  /// completed it, so peers are done reading this rank's sources and the
  /// caller may reuse them. Out-of-line (comm.cpp).
  void run_blocking(PendingOp op) const;

  template <typename T>
  PendingOp post_bcast(std::span<const T> src, std::span<T> dst, int root,
                       CommCategory cat, bool charged, const char* name,
                       detail::PostMode mode) const {
    const bool is_root = rank_ == root;
    return post_async(detail::OpKind::kBcast,
                      is_root ? static_cast<const void*>(src.data()) : nullptr,
                      is_root ? src.size() : dst.size(), root, cat, charged,
                      &PendingOp::complete_impl<T>, dst.data(), dst.size(),
                      src.size(), nullptr, nullptr, name, mode);
  }

  template <typename T>
  PendingOp post_allgatherv(std::span<const T> mine, Gathered<T>& out,
                            CommCategory cat, bool charged, const char* name,
                            detail::PostMode mode) const {
    return post_async(detail::OpKind::kAllgatherv, mine.data(), mine.size(),
                      /*root=*/0, cat, charged, &PendingOp::complete_impl<T>,
                      nullptr, 0, mine.size(), &out, nullptr, name, mode);
  }

  /// In-place all-reduce: peers read `data` until the release, so the
  /// completion lands in this rank's CommState staging and is copied back
  /// afterwards.
  template <typename T>
  void allreduce_in_place(std::span<T> data, CommCategory cat,
                          detail::OpKind kind, const char* name) {
    auto& staging = state_->staging[static_cast<std::size_t>(rank_)];
    staging.resize(data.size() * sizeof(T));
    T* result = reinterpret_cast<T*>(staging.data());
    run_blocking(post_async(kind, data.data(), data.size(), /*root=*/0, cat,
                            true, &PendingOp::complete_impl<T>, result,
                            data.size(), data.size(), nullptr, nullptr, name,
                            detail::PostMode::kBlocking));
    if (!data.empty()) {
      std::memcpy(data.data(), result, data.size() * sizeof(T));
    }
  }

  /// Route / exchange: the destination is published through ptr2 (it
  /// lives on this frame until the release).
  template <typename T>
  std::vector<T> route_impl(std::span<const T> send, int dest,
                            CommCategory cat, detail::OpKind kind,
                            const char* name) {
    check_member(dest);
    std::vector<T> recv;
    run_blocking(post_async(kind, send.data(), send.size(), /*root=*/0, cat,
                            true, &PendingOp::complete_impl<T>, &recv, 0,
                            send.size(), nullptr, &dest, name,
                            detail::PostMode::kBlocking));
    return recv;
  }

  std::shared_ptr<detail::CommState> state_;
  int rank_ = 0;
  CostMeter* meter_ = nullptr;
};

template <typename T>
void PendingOp::complete_impl(PendingOp& op) {
  const detail::AsyncChannel& ch = op.channel();
  const int p = op.state_->size;
  const detail::OpContext ctx{op.rank_, op.cat_, op.name_};
  if (op.kind_ == detail::OpKind::kBcast && op.rank_ == op.root_) {
    // Passive root completion: peers may not have posted yet (wait()
    // skipped the await), so validate nothing and charge from this
    // rank's own published length.
    if (p > 1) op.charge(ceil_log2(p), op.src_len_ * sizeof(T));
    return;
  }
  for (int r = 0; r < p; ++r) {
    CAGNET_CHECK(ch.kind[static_cast<std::size_t>(r)] == op.kind_ &&
                     ch.root[static_cast<std::size_t>(r)] == op.root_,
                 detail::order_mismatch(ctx, r,
                                        ch.kind[static_cast<std::size_t>(r)]));
  }
  const auto slot = [&](int r) {
    return static_cast<const T*>(ch.ptr[static_cast<std::size_t>(r)]);
  };
  const auto me = static_cast<std::size_t>(op.rank_);
  switch (op.kind_) {
    case detail::OpKind::kBcast: {
      detail::check_uniform_len(ctx, ch.len);
      const std::size_t n = ch.len[me];
      if (n > 0) std::memcpy(op.out_, slot(op.root_), n * sizeof(T));
      if (p > 1) op.charge(ceil_log2(p), n * sizeof(T));
      break;
    }
    case detail::OpKind::kReduceScatter: {
      std::size_t offset = 0;
      std::size_t total = 0;
      for (int r = 0; r < p; ++r) {
        if (r == op.rank_) offset = total;
        total += ch.len[static_cast<std::size_t>(r)];
      }
      CAGNET_CHECK(op.src_len_ == total,
                   std::string(op.name_) +
                       ": contribution length != sum of outputs");
      // Chunk-by-chunk with contiguous inner loops so the accumulation
      // vectorizes; the per-element order is zero, then ranks ascending.
      T* out = static_cast<T*>(op.out_);
      std::fill(out, out + op.out_len_, T{});
      for (int r = 0; r < p; ++r) {
        const T* src = slot(r) + offset;
        for (std::size_t i = 0; i < op.out_len_; ++i) out[i] += src[i];
      }
      op.charge(ceil_log2(p),
                total * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAllgatherv: {
      auto& out = *static_cast<Gathered<T>*>(op.gathered_);
      out.offsets.resize(static_cast<std::size_t>(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        out.offsets[static_cast<std::size_t>(r) + 1] =
            out.offsets[static_cast<std::size_t>(r)] +
            ch.len[static_cast<std::size_t>(r)];
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        const auto len = ch.len[static_cast<std::size_t>(r)];
        if (len == 0) continue;
        std::memcpy(out.data.data() + out.offsets[static_cast<std::size_t>(r)],
                    slot(r), len * sizeof(T));
      }
      op.charge(ceil_log2(p), (out.data.size() - op.src_len_) * sizeof(T));
      break;
    }
    case detail::OpKind::kAllreduce:
    case detail::OpKind::kAllreduceMax: {
      detail::check_uniform_len(ctx, ch.len);
      const bool is_max = op.kind_ == detail::OpKind::kAllreduceMax;
      const std::size_t n = op.out_len_;
      T* out = static_cast<T*>(op.out_);
      for (std::size_t i = 0; i < n; ++i) {
        T acc = slot(0)[i];
        for (int r = 1; r < p; ++r) {
          const T v = slot(r)[i];
          if (!is_max) {
            acc += v;
          } else if (v > acc) {
            acc = v;
          }
        }
        out[i] = acc;
      }
      op.charge(2.0 * ceil_log2(p),
                2 * n * sizeof(T) * (p - 1) /
                    static_cast<std::size_t>(std::max(p, 1)));
      break;
    }
    case detail::OpKind::kAlltoallv: {
      // Per-source offsets from each rank's published (send, offsets)
      // pair; the self chunk is excluded from the charge.
      auto& out = *static_cast<Gathered<T>*>(op.gathered_);
      const auto offs = [&](int r) {
        return static_cast<const std::size_t*>(
            ch.ptr2[static_cast<std::size_t>(r)]);
      };
      out.offsets.resize(static_cast<std::size_t>(p) + 1);
      out.offsets[0] = 0;
      for (int r = 0; r < p; ++r) {
        out.offsets[static_cast<std::size_t>(r) + 1] =
            out.offsets[static_cast<std::size_t>(r)] + offs(r)[me + 1] -
            offs(r)[me];
      }
      out.data.resize(out.offsets.back());
      for (int r = 0; r < p; ++r) {
        const std::size_t len = offs(r)[me + 1] - offs(r)[me];
        if (len == 0) continue;
        std::memcpy(out.data.data() + out.offsets[static_cast<std::size_t>(r)],
                    slot(r) + offs(r)[me], len * sizeof(T));
      }
      const std::size_t self_chunk =
          offs(op.rank_)[me + 1] - offs(op.rank_)[me];
      op.charge(p > 1 ? static_cast<double>(p - 1) : 0.0,
                (out.data.size() - self_chunk) * sizeof(T));
      break;
    }
    case detail::OpKind::kRoute:
    case detail::OpKind::kExchange: {
      const auto dest = [&](int r) {
        return *static_cast<const int*>(ch.ptr2[static_cast<std::size_t>(r)]);
      };
      int src = -1;
      if (op.kind_ == detail::OpKind::kExchange) {
        // The peer this rank sends to must have named this rank back.
        src = dest(op.rank_);
        CAGNET_CHECK(dest(src) == op.rank_,
                     std::string("exchange [") + comm_category_name(op.cat_) +
                         "]: rank " + std::to_string(op.rank_) +
                         " named peer " + std::to_string(src) + ", but rank " +
                         std::to_string(src) + " named peer " +
                         std::to_string(dest(src)));
      } else {
        for (int r = 0; r < p && src < 0; ++r) {
          if (dest(r) == op.rank_) src = r;
        }
        CAGNET_CHECK(src >= 0, "route: destinations do not form a permutation");
      }
      auto& recv = *static_cast<std::vector<T>*>(op.out_);
      const std::size_t len = ch.len[static_cast<std::size_t>(src)];
      recv.resize(len);
      if (len > 0) std::memcpy(recv.data(), slot(src), len * sizeof(T));
      if (src != op.rank_) op.charge(1.0, len * sizeof(T));
      break;
    }
    case detail::OpKind::kBarrier:
      break;
    case detail::OpKind::kCodedAllreduce:
    case detail::OpKind::kCodedReduceScatter:  // complete_coded's
    case detail::OpKind::kNone:
      CAGNET_CHECK(false, "completing an unarmed PendingOp");
  }
}

/// Launch a world of `p` ranks, each running `fn(comm)` on its own thread.
/// Rethrows the first rank exception after joining all threads. Peers
/// blocked anywhere — nonblocking waits, per-source drains, or blocking
/// collectives on the synchronous channel, on the world or any split
/// sub-communicator — are released by the abort machinery (every channel
/// counter is poison-wakeable) and unwind with a typed
/// CommAborted naming their rank, op, and category. The thread pool and
/// the process-wide knobs are untouched by an abort, so the caller may
/// immediately launch a fresh world (the recovery driver in
/// src/core/recovery.hpp does). The world consults the process-global
/// fault plan (src/comm/fault.hpp) at entry; with none installed the
/// transport seam is inert. If `meters_out` is non-null it receives each
/// rank's final CostMeter.
void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out = nullptr);

}  // namespace cagnet
