// Per-rank alpha-beta communication accounting.
//
// Every collective in the simulated runtime charges its textbook cost
// (Chan et al. / Thakur et al., the same sources the paper cites) to the
// calling rank's meter, split by traffic category so Fig. 3's scomm/dcomm/
// trpose decomposition can be regenerated.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <string>

#include "src/comm/machine.hpp"

namespace cagnet {

/// What kind of payload a communication operation carried.
enum class CommCategory : std::uint8_t {
  kDense = 0,   ///< activations, gradients, intermediate dense products
  kSparse,      ///< adjacency submatrices (SUMMA broadcasts of A)
  kTranspose,   ///< distributed transpose traffic
  kHalo,        ///< demand-driven halo rows (the 1D family's sparsity-aware
                ///< forward exchange; edgecut_P(A) * f words per layer)
  kCompressed,  ///< lossy-codec payloads, metered at actual post-compression
                ///< bytes (in Real-sized words, so fractional values appear)
  kControl,     ///< harness/bookkeeping traffic, excluded from modeled time
  kCount
};

const char* comm_category_name(CommCategory c);

class CostMeter {
 public:
  static constexpr std::size_t kNumCategories =
      static_cast<std::size_t>(CommCategory::kCount);

  /// Charge `latency_units` alpha-terms (e.g. lg P for a broadcast) and
  /// `words` 8-byte words of bandwidth to a category.
  void add(CommCategory cat, double latency_units, double words);

  double latency_units(CommCategory cat) const;
  double words(CommCategory cat) const;

  /// Totals excluding kControl.
  double total_latency_units() const;
  double total_words() const;

  /// alpha * latency + beta * words for one category (kControl -> 0).
  double modeled_seconds(const MachineModel& m, CommCategory cat) const;
  /// Sum of modeled seconds over all metered categories.
  double modeled_seconds(const MachineModel& m) const;

  // ---- Overlap accounting (nonblocking runtime) ----
  //
  // An *overlapped region* is one compute block that ran while previously
  // posted nonblocking collectives were in flight. The runtime charges
  // words/latency identically whether or not overlap is on — volumes are
  // the paper's measurements and never change — but for each region the
  // meter additionally records the region's modeled comm seconds c (the
  // alpha-beta value of the charges attributed to it) and compute seconds
  // w, accumulating both the serialized reading c + w and the overlapped
  // reading max(c, w). The difference is the modeled time the overlap
  // hides; EpochStats::modeled_seconds_overlap subtracts it.

  /// Open a region: charges added until end_overlap_region are attributed
  /// to it. Regions may not nest.
  void begin_overlap_region();

  /// Close the open region, folding its charge delta with `m` and pairing
  /// it against `compute_seconds` of modeled local-kernel work.
  void end_overlap_region(const MachineModel& m, double compute_seconds);

  /// Sum over regions of comm + compute (the no-overlap reading).
  double overlap_serialized_seconds() const { return overlap_serialized_; }
  /// Sum over regions of max(comm, compute) (the overlapped reading).
  double overlap_overlapped_seconds() const { return overlap_overlapped_; }
  /// Modeled seconds hidden by overlap: serialized - overlapped. Clamped
  /// at zero: per region max(c, w) <= c + w exactly, but cross-rank
  /// reductions max the two totals independently, which can leave the
  /// difference one ulp negative when every region's saving is ~0.
  double overlap_saved_seconds() const {
    return std::max(0.0, overlap_serialized_ - overlap_overlapped_);
  }
  /// Number of regions recorded (a double so cross-rank reductions can
  /// serialize it alongside the other totals).
  double overlap_regions() const { return overlap_regions_; }

  /// Rebuild the overlap totals from serialized values (cross-rank
  /// reductions; see EpochStats::reduce_max).
  void restore_overlap_totals(double serialized, double overlapped,
                              double regions) {
    overlap_serialized_ = serialized;
    overlap_overlapped_ = overlapped;
    overlap_regions_ = regions;
  }

  // ---- Staleness accounting (bounded-staleness halo refresh) ----
  //
  // A stale-skipped halo exchange charges zero kHalo words; the meter
  // separately records the words the exact exchange *would* have moved so
  // the bench can report the saving without re-deriving it from plan
  // geometry. Not part of total_words()/modeled time — nothing moved.

  /// Credit `words` halo words avoided by replaying a stale cache.
  void add_stale_saved(double words) { stale_saved_words_ += words; }
  /// Halo words avoided by stale replays since the last clear.
  double stale_saved_words() const { return stale_saved_words_; }
  /// Rebuild the stale counter from a serialized value (cross-rank
  /// reductions; see EpochStats::reduce_max).
  void restore_stale_saved_words(double words) {
    stale_saved_words_ = words;
  }

  void clear() { *this = CostMeter{}; }

  /// Component-wise max: bulk-synchronous epochs are paced by the rank with
  /// the most communication.
  void merge_max(const CostMeter& other);
  /// Component-wise sum: aggregate traffic across ranks.
  void merge_sum(const CostMeter& other);

  /// Component-wise subtraction, used to take per-epoch deltas of the
  /// cumulative per-rank meter.
  void subtract(const CostMeter& other);

  std::string to_string() const;

 private:
  std::array<double, kNumCategories> latency_ = {};
  std::array<double, kNumCategories> words_ = {};

  // Overlap totals (merged/subtracted like the charge arrays) and the
  // transient open-region marks (snapshot of the charge arrays; never
  // merged).
  double overlap_serialized_ = 0;
  double overlap_overlapped_ = 0;
  double overlap_regions_ = 0;
  double stale_saved_words_ = 0;
  bool region_open_ = false;
  std::array<double, kNumCategories> region_lat_mark_ = {};
  std::array<double, kNumCategories> region_words_mark_ = {};
};

}  // namespace cagnet
