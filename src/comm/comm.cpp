#include "src/comm/comm.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <thread>
#include <utility>

#include "src/util/parallel.hpp"
#include "src/util/profiler.hpp"

namespace cagnet {

double ceil_log2(int p) {
  CAGNET_CHECK(p >= 1, "ceil_log2 of non-positive value");
  double bits = 0;
  int v = 1;
  while (v < p) {
    v <<= 1;
    bits += 1;
  }
  return bits;
}

namespace detail {

const char* op_kind_name(OpKind kind) {
  switch (kind) {
    case OpKind::kNone:
      return "none";
    case OpKind::kBcast:
      return "ibroadcast_from";
    case OpKind::kReduceScatter:
      return "ireduce_scatter_sum";
    case OpKind::kAllgatherv:
      return "iallgatherv_into";
    case OpKind::kAllreduce:
      return "iallreduce_sum";
    case OpKind::kAlltoallv:
      return "ialltoallv";
    case OpKind::kAllreduceMax:
      return "allreduce_max";
    case OpKind::kRoute:
      return "route";
    case OpKind::kExchange:
      return "exchange";
    case OpKind::kBarrier:
      return "barrier";
    case OpKind::kCodedAllreduce:
      return "coded iallreduce_sum";
    case OpKind::kCodedReduceScatter:
      return "coded ireduce_scatter_sum";
  }
  return "?";
}

void throw_peer_aborted(const OpContext& ctx, FaultSite site) {
  throw CommAborted(ctx.rank, ctx.op, ctx.cat, site, "a peer rank failed");
}

std::string order_mismatch(const OpContext& ctx, int peer, OpKind got) {
  std::string msg = "collective: ranks disagree on op order: rank ";
  msg += std::to_string(ctx.rank);
  msg += " waiting on ";
  msg += ctx.op;
  msg += " [";
  msg += comm_category_name(ctx.cat);
  msg += "], rank ";
  msg += std::to_string(peer);
  msg += " posted ";
  msg += op_kind_name(got);
  return msg;
}

void check_uniform_len(const OpContext& ctx,
                       const std::vector<std::size_t>& len) {
  const std::size_t mine = len[static_cast<std::size_t>(ctx.rank)];
  for (std::size_t r = 0; r < len.size(); ++r) {
    CAGNET_CHECK(len[r] == mine,
                 std::string(ctx.op) + " [" + comm_category_name(ctx.cat) +
                     "]: ranks disagree on element count (rank " +
                     std::to_string(ctx.rank) + " passed " +
                     std::to_string(mine) + ", rank " + std::to_string(r) +
                     " passed " + std::to_string(len[r]) + ")");
  }
}

void AbortHub::register_state(const std::shared_ptr<CommState>& state) {
  std::lock_guard<std::mutex> lock(mutex);
  states.push_back(state);
  // A checked state is also retained strongly: run_world audits every
  // communicator (world and splits) after the rank threads joined, by
  // which time the ranks' own refs to split states are gone.
  if (state->checker != nullptr) checked_states.push_back(state);
}

void AbortHub::poison() {
  aborted.store(true);
  std::lock_guard<std::mutex> lock(mutex);
  for (const auto& weak : states) {
    const auto state = weak.lock();
    if (!state) continue;
    // Any value change wakes parked waiters; they observe the flag and
    // unwind. The counters are meaningless once the world is dead. The
    // synchronous channel is in `channels` too, so peers parked in a
    // blocking collective — on split sub-communicators as well — wake.
    for (const auto& channel : state->channels) {
      channel->posted.fetch_add(1, std::memory_order_release);
      channel->posted.notify_all();
      channel->finished.fetch_add(1, std::memory_order_release);
      channel->finished.notify_all();
      for (auto& by : channel->posted_by) {
        by.fetch_add(1, std::memory_order_release);
        by.notify_all();
      }
    }
  }
}

// [[hot-path]]
void await_counter(const std::atomic<std::uint64_t>& counter,
                   std::atomic<int>& waiters, std::uint64_t target,
                   const std::atomic<bool>& aborted, const OpContext& ctx) {
  // Fast path: the double-buffered loops post a whole compute stage before
  // they wait, so the counter usually already covers the target. When it
  // does not, park on the counter's futex — on an oversubscribed host the
  // cycles a spinning waiter would burn are cycles the rank it waits on
  // needs, and a sleep loop pays its wake-up latency on every sync.
  std::uint64_t cur = counter.load(std::memory_order_acquire);
  int spins = 0;
  while (cur < target) {
    if (aborted.load(std::memory_order_relaxed)) {
      throw_peer_aborted(ctx, FaultSite::kWait);
    }
    if (++spins <= 4) {
      std::this_thread::yield();  // let the posting rank run first
    } else {
      waiters.fetch_add(1, std::memory_order_seq_cst);
      counter.wait(cur, std::memory_order_seq_cst);
      waiters.fetch_sub(1, std::memory_order_seq_cst);
    }
    cur = counter.load(std::memory_order_acquire);
  }
  if (aborted.load(std::memory_order_relaxed)) {
    throw_peer_aborted(ctx, FaultSite::kWait);
  }
}

namespace {

/// Block until every rank but `rank` has left its slot-reading regions.
/// Abort-path only; must not throw (it runs inside unwinds). Terminates
/// because every open region exits in bounded time once the world is
/// poisoned: parked readers are woken by the poison bumps and throw at
/// their abort checks, active readers throw at their next await, and each
/// region exit under an aborted world notifies this waiter.
void await_window_drain(CommState& st, int rank) noexcept {
  for (int r = 0; r < st.size; ++r) {
    if (r == rank) continue;
    auto& depth = st.in_collective[static_cast<std::size_t>(r)];
    // The acquire load pairs with the region exit's release decrement:
    // everything the reader did inside the region happens-before this
    // rank's subsequent buffer frees.
    int cur = depth.load(std::memory_order_acquire);
    while (cur > 0) {
      depth.wait(cur, std::memory_order_acquire);
      cur = depth.load(std::memory_order_acquire);
    }
  }
}

}  // namespace

CollectiveWindow::~CollectiveWindow() {
  const bool unwinding = std::uncaught_exceptions() > entry_exceptions_;
  if (unwinding) {
    // Poison before closing the region: once the flag is up (seq_cst, as
    // is the region entry), no peer can pass an abort check and start a
    // new read of this rank's published buffers — any later region entry
    // is ordered after the poison in the seq_cst total order, so its
    // first await observes the flag and throws before touching a slot.
    st_.hub->poison();
  }
  auto& me = st_.in_collective[static_cast<std::size_t>(rank_)];
  me.fetch_sub(1, std::memory_order_release);
  if (st_.hub->aborted.load(std::memory_order_seq_cst)) {
    me.notify_all();  // a dying peer may be draining our region
    // Close-own-then-wait: this rank's region is already closed, so two
    // ranks dying at once drain each other without a cycle. Only after
    // every straggling reader left may the unwind free this rank's
    // published sources.
    await_window_drain(st_, rank_);
  }
}

}  // namespace detail

void Comm::barrier() const {
  check_valid("barrier");
  run_blocking(post_async(detail::OpKind::kBarrier, nullptr, 0, /*root=*/0,
                          CommCategory::kControl, false,
                          &PendingOp::complete_impl<char>, nullptr, 0, 0,
                          nullptr, nullptr, "barrier",
                          detail::PostMode::kSilent));
}

void Comm::quiesce() const {
  check_valid("quiesce");
  const detail::OpContext ctx{rank_, CommCategory::kControl, "quiesce"};
  auto& st = *state_;
  // A release point is where the caller may free its sources next: on an
  // aborted world the window's close waits out peers' reads of them.
  detail::CollectiveWindow window(st, rank_);
  // All ranks post in the same program order, so this rank's ticket count
  // is the communicator-wide count of posted ops. Channel C carried the
  // tickets congruent to C mod K; each must be finished by every rank.
  const std::uint64_t n = st.next_ticket[static_cast<std::size_t>(rank_)];
  for (std::uint64_t c = 0; c < detail::kAsyncChannels; ++c) {
    if (n <= c) break;
    const std::uint64_t ops_on_channel =
        (n - 1 - c) / static_cast<std::uint64_t>(detail::kAsyncChannels) + 1;
    detail::await_counter(
        st.channels[c]->finished, st.channels[c]->waiters,
        static_cast<std::uint64_t>(st.size) * ops_on_channel,
        st.hub->aborted, ctx);
  }
}

void Comm::quiesce_op(std::uint64_t ticket) const {
  check_valid("quiesce_op");
  const detail::OpContext ctx{rank_, CommCategory::kControl, "quiesce_op"};
  auto& st = *state_;
  if (auto* ck = st.checker.get()) ck->on_release(rank_, ticket, ctx.op);
  detail::CollectiveWindow window(st, rank_);  // see quiesce()
  // Generations on a channel complete strictly in order (the recycle gate
  // serializes them), so finishing this op's generation implies the op —
  // and nothing on any other channel — is globally finished.
  auto& ch = *st.channels[ticket % static_cast<std::uint64_t>(
                                       detail::kAsyncChannels)];
  const std::uint64_t gen =
      ticket / static_cast<std::uint64_t>(detail::kAsyncChannels);
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * (gen + 1),
                        st.hub->aborted, ctx);
}

PendingOp Comm::post_async(detail::OpKind kind, const void* publish_ptr,
                           std::size_t publish_len, int root,
                           CommCategory cat, bool charged,
                           void (*complete)(PendingOp&), void* out,
                           std::size_t out_len, std::size_t src_len,
                           void* gathered, const void* publish_ptr2,
                           const char* name, detail::PostMode mode) const {
  auto& st = *state_;
  const auto rank = static_cast<std::size_t>(rank_);
  const bool async = mode == detail::PostMode::kAsync;
  const detail::OpContext ctx{rank_, cat,
                              name != nullptr ? name
                                              : detail::op_kind_name(kind)};
  // Blocking ops own the synchronous channel (one in flight per rank, and
  // released before the next), so they never touch the ring's budget or
  // its tickets.
  CAGNET_CHECK(
      !async || st.outstanding[rank] < detail::kAsyncChannels,
      "too many posted-but-unwaited nonblocking collectives on one "
      "communicator (max 16 in flight per rank); wait() some first");
  if (mode != detail::PostMode::kSilent && st.hub->fault != nullptr) {
    // A kill here unwinds the caller's frames, which may own sources of
    // this rank's earlier, waited but unreleased posts that peers are
    // still reading: inside a window the unwinding rank poisons the world
    // and waits out every peer's open read before those frames go. Only
    // a fault plan makes the seam throw.
    detail::CollectiveWindow window(st, rank_);
    detail::seam_event(st, ctx, FaultSite::kPost);
  }
  const std::uint64_t ticket =
      async ? st.next_ticket[rank]++ : st.sync_ticket[rank]++;
  auto& ch = async ? *st.channels[ticket % static_cast<std::uint64_t>(
                                              detail::kAsyncChannels)]
                   : st.sync_channel();
  const std::uint64_t gen =
      async ? ticket / static_cast<std::uint64_t>(detail::kAsyncChannels)
            : ticket;
  // Recycle gate: every rank must have finished the channel's previous
  // generation before its slots may be overwritten.
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * gen,
                        st.hub->aborted, ctx);
  if (auto* ck = st.checker.get(); ck != nullptr && async) {
    // Re-assert the gate with the value this rank just observed, and audit
    // ticket issuance, before any slot is overwritten.
    ck->on_post(rank_, ticket, ctx.op, cat,
                ch.finished.load(std::memory_order_acquire),
                static_cast<std::uint64_t>(st.size) * gen);
  }
  ch.ptr[rank] = publish_ptr;
  ch.ptr2[rank] = publish_ptr2;
  ch.len[rank] = publish_len;
  ch.kind[rank] = kind;
  ch.root[rank] = root;
  // Per-rank counter first: a per-source drainer that sees it also sees
  // the slot writes above (release/acquire through the counter).
  detail::bump_counter(ch.posted_by[rank], ch.waiters);
  detail::bump_counter(ch.posted, ch.waiters,
                       static_cast<std::uint64_t>(st.size));
  if (async) st.outstanding[rank]++;

  PendingOp op;
  op.state_ = state_;
  op.name_ = ctx.op;
  op.mode_ = mode;
  op.rank_ = rank_;
  op.meter_ = meter_;
  op.ticket_ = ticket;
  op.cat_ = cat;
  op.root_ = root;
  op.charged_ = charged && mode != detail::PostMode::kSilent;
  op.kind_ = kind;
  op.out_ = out;
  op.out_len_ = out_len;
  op.src_len_ = src_len;
  op.gathered_ = gathered;
  op.complete_ = complete;
  return op;
}

void Comm::run_blocking(PendingOp op) const {
  auto& st = *state_;
  const detail::OpContext ctx{rank_, op.cat_, op.name_};
  contract::BlockingScope contract_scope(st.checker.get(), rank_, ctx.op,
                                         ctx.cat);
  // The blocking op's one wait event is reported here, under its public
  // name, rather than by PendingOp::wait.
  if (op.mode_ == detail::PostMode::kBlocking) {
    detail::seam_event(st, ctx, FaultSite::kWait);
  }
  const std::uint64_t gen = op.generation();
  op.wait();
  // The release is a window of its own, not nested around wait()'s: a
  // dying rank drains its peers' windows after closing its own, and a
  // still-open outer window would make two dying ranks wait on each other.
  detail::CollectiveWindow window(st, rank_);
  auto& ch = st.sync_channel();
  detail::await_counter(ch.finished, ch.waiters,
                        static_cast<std::uint64_t>(st.size) * (gen + 1),
                        st.hub->aborted, ctx);
}

void PendingOp::wait() {
  if (!pending()) {
    // The no-op is the documented idempotent behaviour; under the
    // contract checker a repeated wait on a completed handle is a
    // diagnosed misuse (it usually means two owners think they complete
    // the same op).
    if (waited_) {
      contract::diagnose_double_wait(rank_, name_, cat_);
    }
    return;
  }
  // A handle can legally outlive its Comm (the teardown audit diagnoses
  // it, but diagnosing requires surviving it): hold the state so the
  // window and channel stay valid past the state_.reset() below even when
  // this handle carried the last reference.
  const std::shared_ptr<detail::CommState> keep = state_;
  auto& st = *keep;
  detail::CollectiveWindow window(st, rank_);
  // A broadcast root moves no data and reads no peer slot at its own
  // wait: it completes passively (charge + bookkeeping) without awaiting
  // peers' posts, so stage roots never stall on stragglers. Its source —
  // like every op source — stays readable until the communicator's
  // release point (quiesce / quiesce_op, or a blocking op's own release).
  // Per-source-drain alltoallvs likewise skip the aggregate await: their
  // completer awaits exactly the sources still undrained, so a rank that
  // drained or skipped every source never stalls on peers it needs
  // nothing from.
  const bool passive_root =
      kind_ == detail::OpKind::kBcast && rank_ == root_;
  const bool per_source_drain = per_source();
  const bool async = mode_ == detail::PostMode::kAsync;
  const detail::OpContext ctx{rank_, cat_, name_};
  detail::AsyncChannel& ch = channel();
  if (async) detail::seam_event(st, ctx, FaultSite::kWait);
  if (!passive_root && !per_source_drain) {
    detail::await_counter(ch.posted, ch.waiters,
                          static_cast<std::uint64_t>(st.size) *
                              (generation() + 1),
                          st.hub->aborted, ctx);
  }
  complete_(*this);
  detail::bump_counter(ch.finished, ch.waiters,
                       static_cast<std::uint64_t>(st.size));
  if (async) {
    st.outstanding[static_cast<std::size_t>(rank_)]--;
    if (auto* ck = st.checker.get()) ck->on_complete(rank_);
  }
  waited_ = true;
  state_.reset();
  complete_ = nullptr;
}

void PendingOp::land_source(int src, std::size_t elem_bytes,
                            const detail::OpContext& ctx) {
  const std::uint64_t bit = std::uint64_t{1} << src;
  if ((landed_mask_ & bit) != 0) return;
  const auto s = static_cast<std::size_t>(src);
  detail::AsyncChannel& ch = channel();
  if (src != rank_) {
    detail::await_counter(ch.posted_by[s], ch.waiters, generation() + 1,
                          state_->hub->aborted, ctx);
  }
  CAGNET_CHECK(ch.kind[s] == kind_ && ch.root[s] == root_,
               detail::order_mismatch(ctx, src, ch.kind[s]));
  const auto* offs = static_cast<const std::size_t*>(ch.ptr2[s]);
  const auto me = static_cast<std::size_t>(rank_);
  if (src != rank_) charge(1.0, (offs[me + 1] - offs[me]) * elem_bytes);
  landed_mask_ |= bit;
}

void PendingOp::await_all_sources() {
  CAGNET_CHECK(pending() && per_source(),
               "await_all_sources: op is not a pending ialltoallv_post");
  detail::CollectiveWindow window(*state_, rank_);
  complete_(*this);
}

Comm Comm::split(int color, int key) const {
  check_valid("split");
  // Control-plane rendezvous: silent (no seam events, no charge), like the
  // world's own construction. First every rank learns every (color, key).
  const std::array<int, 2> mine = {color, key};
  Gathered<int> all;
  run_blocking(post_allgatherv(std::span<const int>(mine), all,
                               CommCategory::kControl, false, "split",
                               detail::PostMode::kSilent));
  std::vector<std::pair<int, int>> group;  // (key, parent rank)
  for (int r = 0; r < size(); ++r) {
    if (all.chunk(r)[0] == color) group.push_back({all.chunk(r)[1], r});
  }
  std::sort(group.begin(), group.end());
  const int new_rank = static_cast<int>(
      std::find(group.begin(), group.end(), std::make_pair(key, rank_)) -
      group.begin());

  // Then each group leader creates the sub-communicator (registered with
  // the world's abort hub, so failures anywhere wake its waiters too) and
  // hands its handle to the group: the leaders publish the handle's
  // address, members copy the handle, and a final barrier keeps every
  // leader's handle alive until its members hold their own reference.
  std::shared_ptr<detail::CommState> state;
  if (new_rank == 0) {
    state = std::make_shared<detail::CommState>(
        static_cast<int>(group.size()), state_->hub);
    state_->hub->register_state(state);
  }
  const std::array<std::uintptr_t, 1> handle = {
      new_rank == 0 ? reinterpret_cast<std::uintptr_t>(&state) : 0};
  Gathered<std::uintptr_t> handles;
  run_blocking(post_allgatherv(std::span<const std::uintptr_t>(handle),
                               handles, CommCategory::kControl, false,
                               "split", detail::PostMode::kSilent));
  if (new_rank != 0) {
    state = *reinterpret_cast<const std::shared_ptr<detail::CommState>*>(
        handles.data[static_cast<std::size_t>(group.front().second)]);
  }
  barrier();
  return Comm(std::move(state), new_rank, meter_);
}

PendingOp Comm::iallreduce_sum(std::span<const Real> contrib,
                               std::span<Real> out, CommCategory cat,
                               const Codec& codec) {
  check_valid("iallreduce_sum");
  if (codec.buf == nullptr || codec.mode == CompressMode::kOff ||
      size() == 1) {
    return iallreduce_sum(contrib, out, cat);
  }
  CAGNET_CHECK(contrib.size() == out.size(),
               "iallreduce_sum: contrib/out length mismatch");
  return post_coded(detail::OpKind::kCodedAllreduce, contrib, out, codec);
}

PendingOp Comm::ireduce_scatter_sum(std::span<const Real> contrib,
                                    std::span<Real> out, CommCategory cat,
                                    const Codec& codec) {
  check_valid("ireduce_scatter_sum");
  // The coded wire gathers every rank's full encoded contribution, so it
  // only pays at small worlds / high codec ratios (int8 up to P ~ 7,
  // fp16 never); false for kOff and P == 1 too.
  if (codec.buf == nullptr ||
      !reduce_scatter_compression_pays(codec.mode, contrib.size(), size())) {
    return ireduce_scatter_sum(contrib, out, cat);
  }
  return post_coded(detail::OpKind::kCodedReduceScatter, contrib, out,
                    codec);
}

PendingOp Comm::post_coded(detail::OpKind kind, std::span<const Real> contrib,
                           std::span<Real> out, const Codec& codec) const {
  CompressBuf& buf = *codec.buf;
  rebind_compress_buf(buf, contrib.size());
  {
    std::optional<ScopedPhase> scope;
    if (codec.profiler != nullptr) {
      scope.emplace(*codec.profiler, Phase::kCompressPack);
    }
    // Reduce-scatter wire per rank: [u64 out-length][encoded
    // contribution]. The headers give every rank the chunk boundaries,
    // which may differ per rank (the 1.5D keeper-only form).
    const std::size_t header =
        kind == detail::OpKind::kCodedReduceScatter ? sizeof(std::uint64_t)
                                                    : 0;
    buf.send.resize(header + encoded_size_bytes(codec.mode, contrib.size()));
    if (header != 0) {
      const std::uint64_t out_len = out.size();
      std::memcpy(buf.send.data(), &out_len, sizeof(out_len));
    }
    compress_encode(codec.mode, contrib, buf.send.data() + header,
                    buf.error_feedback ? &buf.residual : nullptr);
  }
  PendingOp op = post_async(kind, buf.send.data(), buf.send.size(),
                            /*root=*/0, CommCategory::kCompressed, true,
                            &PendingOp::complete_coded, out.data(),
                            out.size(), contrib.size(), &buf);
  op.codec_mode_ = codec.mode;
  op.codec_profiler_ = codec.profiler;
  return op;
}

void PendingOp::complete_coded(PendingOp& op) {
  const detail::AsyncChannel& ch = op.channel();
  const int p = op.state_->size;
  const detail::OpContext ctx{op.rank_, op.cat_, op.name_};
  for (int r = 0; r < p; ++r) {
    CAGNET_CHECK(ch.kind[static_cast<std::size_t>(r)] == op.kind_,
                 detail::order_mismatch(ctx, r,
                                        ch.kind[static_cast<std::size_t>(r)]));
  }
  // A wire length is a function of the element count alone.
  detail::check_uniform_len(ctx, ch.len);
  const auto bytes = [&](int r) {
    return static_cast<const std::uint8_t*>(
        ch.ptr[static_cast<std::size_t>(r)]);
  };
  const CompressMode mode = op.codec_mode_;
  CompressBuf& buf = *static_cast<CompressBuf*>(op.gathered_);
  const std::size_t n = op.src_len_;
  Real* out = static_cast<Real*>(op.out_);
  std::optional<ScopedPhase> scope;
  if (op.codec_profiler_ != nullptr) {
    scope.emplace(*op.codec_profiler_, Phase::kCompressPack);
  }
  if (op.kind_ == detail::OpKind::kCodedAllreduce) {
    // Decode-sum in ascending rank order (the exact all-reduce's
    // per-element accumulation order), identically on every rank.
    buf.scratch.resize(n);
    for (int r = 0; r < p; ++r) {
      if (r == 0) {
        compress_decode(mode, bytes(r), n, out);
      } else {
        compress_decode(mode, bytes(r), n, buf.scratch.data());
        for (std::size_t i = 0; i < n; ++i) out[i] += buf.scratch[i];
      }
    }
    const auto enc = static_cast<double>(encoded_size_bytes(mode, n));
    op.charge(2.0 * ceil_log2(p), 2.0 * enc * (p - 1) / p);
    return;
  }
  // Reduce-scatter: each rank decodes only its own slice of every
  // contribution, at the offset the out-length headers give it.
  std::size_t my_lo = 0;
  std::size_t total_out = 0;
  for (int r = 0; r < p; ++r) {
    std::uint64_t out_len = 0;
    std::memcpy(&out_len, bytes(r), sizeof(out_len));
    if (r == op.rank_) my_lo = total_out;
    total_out += static_cast<std::size_t>(out_len);
  }
  CAGNET_CHECK(total_out == n,
               std::string(op.name_) +
                   ": contribution length != sum of outputs");
  // Zero, then accumulate ranks ascending — the exact form's order.
  std::fill(out, out + op.out_len_, Real{0});
  buf.scratch.resize(op.out_len_);
  for (int r = 0; r < p; ++r) {
    compress_decode_range(mode, bytes(r) + sizeof(std::uint64_t), n, my_lo,
                          my_lo + op.out_len_, buf.scratch.data());
    for (std::size_t i = 0; i < op.out_len_; ++i) out[i] += buf.scratch[i];
  }
  const std::size_t gathered =
      static_cast<std::size_t>(p) * ch.len[static_cast<std::size_t>(op.rank_)];
  op.charge(ceil_log2(p), static_cast<double>(gathered) * (p - 1) / p);
}

namespace {

/// True for the "a peer rank failed" form of CommAborted: a casualty of
/// someone else's failure, not a root cause. Which rank wins the race to
/// run_world's error slot is timing-dependent (under TSan's scheduling a
/// casualty regularly beats the rank that actually died), so run_world
/// keeps the first *root-cause* error it sees and only reports a casualty
/// when nothing better ever arrives.
bool is_secondary_abort(const std::exception_ptr& error) noexcept {
  try {
    std::rethrow_exception(error);
  } catch (const CommAborted& e) {
    return e.cause() == "a peer rank failed";
  } catch (...) {
    return false;
  }
}

}  // namespace

void run_world(int p, const std::function<void(Comm&)>& fn,
               std::vector<CostMeter>* meters_out) {
  CAGNET_CHECK(p >= 1, "world size must be at least 1");
  auto hub = std::make_shared<detail::AbortHub>();
  // Capture the process-global fault schedule for this world's lifetime
  // (null keeps the transport seam inert). The lazy CAGNET_FAULT parse
  // happens here, on the launching thread, so a malformed spec is a
  // catchable Error at the run_world call site.
  hub->fault = fault_plan();
  auto state = std::make_shared<detail::CommState>(p, hub);
  hub->register_state(state);
  std::vector<CostMeter> meters(static_cast<std::size_t>(p));
  // P rank threads run concurrently; split the kernel thread budget among
  // them so nested SpMM parallelism cannot oversubscribe the host.
  ScopedThreadBudgetShare budget_share(p);

  std::exception_ptr first_error = nullptr;
  bool first_error_secondary = false;
  std::mutex error_mutex;

  // The rank threads ARE the simulated machine, not pool work — the one
  // sanctioned raw-thread site. lint:allow(naked-thread)
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(p));
  for (int r = 0; r < p; ++r) {
    threads.emplace_back([&, r] {
      Comm comm(state, r, &meters[static_cast<std::size_t>(r)]);
      try {
        fn(comm);
      } catch (...) {
        // Classify the exception on its OWN thread, before publishing:
        // each rank owns its in-flight exception object, so reading it
        // here is race-free, whereas rethrowing the stored first_error
        // would read another rank's exception object while that rank's
        // unwind may be freeing it. The flag travels with the pointer.
        const bool mine_secondary =
            is_secondary_abort(std::current_exception());
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error || (first_error_secondary && !mine_secondary)) {
            first_error = std::current_exception();
            first_error_secondary = mine_secondary;
          }
        }
        // Poison every registered communicator state: the abort flag goes
        // up, then every channel counter and phase gate is bumped and
        // notified, so peers parked anywhere — nonblocking waits,
        // per-source drains, or blocking collectives' rendezvous, on the
        // world or any split sub-communicator — wake, observe the flag,
        // and unwind with a typed CommAborted.
        hub->poison();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Take the hub's strong refs whatever the outcome: each checked state
  // also refers back to the hub, a cycle that would leak the world.
  std::vector<std::shared_ptr<detail::CommState>> checked_states;
  {
    std::lock_guard<std::mutex> lock(hub->mutex);
    checked_states.swap(hub->checked_states);
  }
  if (first_error) std::rethrow_exception(first_error);
  // Teardown audit (contract checker armed, non-abort path only — a
  // poisoned world tears down mid-op by design): every communicator this
  // world created, splits included, must have retired all its posted ops.
  for (const auto& checked : checked_states) {
    checked->checker->verify_teardown();
  }
  if (meters_out) *meters_out = std::move(meters);
}

}  // namespace cagnet
