// Per-rank phase profiler matching the cost breakdown of the paper's Fig. 3.
//
// The paper reports per-epoch time split into: scomm (sparse-matrix
// communication), dcomm (dense-matrix communication), trpose (distributed
// transposes), spmm (local SpMM), and misc (everything else, including local
// GEMM). Each rank owns a Profiler; the trainer merges them with a max-reduce
// per phase because a bulk-synchronous epoch is dictated by the slowest rank.
#pragma once

#include <array>
#include <cstddef>
#include <string>

#include "src/util/timer.hpp"

namespace cagnet {

/// Phases of one training epoch, in the paper's Fig. 3 vocabulary, plus
/// the halo-pack phase the sparsity-aware exchange adds ("hpack": the
/// host-side row pack/unpack of the demand-driven halo path — serialized
/// staging work the paper's Fig. 3 has no slot for, reported separately
/// so it cannot hide inside misc).
enum class Phase : std::size_t {
  kMisc = 0,    ///< local GEMM, activations, optimizer, bookkeeping
  kTranspose,   ///< distributed transpose of the adjacency ("trpose")
  kDenseComm,   ///< dense-matrix collectives ("dcomm")
  kSparseComm,  ///< sparse-matrix collectives ("scomm")
  kSpmm,          ///< local sparse x dense multiplies
  kHaloPack,      ///< halo-exchange row pack/unpack ("hpack")
  kCompressPack,  ///< lossy-codec encode/decode ("cpack")
  kCount
};

/// Short display name matching the paper's figure legend.
const char* phase_name(Phase p);

/// Accumulates wall seconds per phase for one rank.
class Profiler {
 public:
  static constexpr std::size_t kNumPhases =
      static_cast<std::size_t>(Phase::kCount);

  void add(Phase p, double seconds) {
    seconds_[static_cast<std::size_t>(p)] += seconds;
  }

  double seconds(Phase p) const {
    return seconds_[static_cast<std::size_t>(p)];
  }

  double total_seconds() const;

  void clear() { seconds_ = {}; }

  /// Per-phase max across two profilers (per-phase slowest-rank merge).
  void merge_max(const Profiler& other);

  /// One-line "phase=secs" summary.
  std::string to_string() const;

 private:
  std::array<double, kNumPhases> seconds_ = {};
};

/// RAII scope timer: adds its lifetime to `profiler[phase]` on destruction.
/// Scopes on one thread and profiler nest exclusively: an inner scope's
/// seconds go to its own phase only and are taken out of the enclosing
/// scope's, so every second lands in exactly one phase (e.g. a coded
/// reduction's codec work inside a caller's dcomm scope counts as cpack).
class ScopedPhase {
 public:
  ScopedPhase(Profiler& profiler, Phase phase)
      : profiler_(profiler), phase_(phase), outer_(innermost_) {
    innermost_ = this;
  }
  ~ScopedPhase() {
    const double seconds = timer_.seconds();
    profiler_.add(phase_, seconds - nested_);
    if (outer_ != nullptr && &outer_->profiler_ == &profiler_) {
      outer_->nested_ += seconds;
    }
    innermost_ = outer_;
  }

  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;

 private:
  /// The open scope this thread entered last (the chain runs outward).
  static inline thread_local ScopedPhase* innermost_ = nullptr;

  Profiler& profiler_;
  Phase phase_;
  ScopedPhase* outer_;
  double nested_ = 0.0;  ///< seconds of scopes nested in this one
  WallTimer timer_;
};

}  // namespace cagnet
