// Span tracing from outside the library: a per-rank in-memory span store,
// and a DistSpmmAlgebra decorator that records one span around every
// collective call the engine makes into the algebra.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/dist_engine.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

struct Span {
  const char* name = "";  ///< static string naming the layer call
  int rank = 0;           ///< -1 = the main thread (problem preparation)
  int epoch = -1;         ///< epoch id; -1 = set-up
  std::int64_t start_ns = 0;  ///< since the store's origin
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index in the same store; -1 = root
};

/// The spans of one rank. Only that rank's thread touches it while the
/// world runs; the harness reads it after run_world has joined.
class SpanStore {
 public:
  SpanStore(int rank, Clock::time_point origin)
      : rank_(rank), origin_(origin) {}

  /// Open a span under the innermost open one; returns its index.
  int begin(const char* name);
  /// Close span `id` and any span still open inside it.
  void end(int id) noexcept;

  void set_epoch(int epoch) { epoch_ = epoch; }
  void reserve(std::size_t n) { spans_.reserve(n); }

  int rank() const { return rank_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int rank_;
  Clock::time_point origin_;
  int epoch_ = -1;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a null store records nothing.
class ScopedSpan {
 public:
  ScopedSpan(SpanStore* store, const char* name)
      : store_(store), id_(store != nullptr ? store->begin(name) : -1) {}
  ~ScopedSpan() {
    if (store_ != nullptr) store_->end(id_);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanStore* store_;
  int id_;
};

/// Self seconds of every span: its duration minus the part its direct
/// children cover (clipped to its interval, overlaps merged).
std::vector<double> self_seconds(const std::vector<Span>& spans);

inline double span_seconds(const Span& s) {
  return static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
}

/// Write every store's spans as one Chrome trace-event JSON file (open it
/// in Perfetto or chrome://tracing; one track per rank). Throws
/// cagnet::Error when the file cannot be written.
void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanStore*>& stores);

/// Forwards every virtual of DistSpmmAlgebra to the algebra the registry
/// built, recording an "algebra.*" span around each collective call.
/// gather_output is forwarded whole because gather_comm is protected; the
/// decorator's own gather_comm is therefore never reached.
class TracingAlgebra final : public cagnet::DistSpmmAlgebra {
 public:
  TracingAlgebra(std::unique_ptr<cagnet::DistSpmmAlgebra> inner,
                 SpanStore& store);

  const char* name() const override { return inner_->name(); }
  cagnet::Comm& world() override { return inner_->world(); }
  cagnet::Index row_lo() const override { return inner_->row_lo(); }
  cagnet::Index row_hi() const override { return inner_->row_hi(); }
  std::pair<cagnet::Index, cagnet::Index> feat_slice(
      cagnet::Index f) const override {
    return inner_->feat_slice(f);
  }
  bool rows_whole() const override { return inner_->rows_whole(); }
  bool owns_loss_rows() const override { return inner_->owns_loss_rows(); }
  cagnet::Comm* sample_comm() override { return inner_->sample_comm(); }

  void spmm_at(const cagnet::Matrix& h, cagnet::Matrix& t,
               cagnet::EpochStats& stats) override;
  void spmm_a(const cagnet::Matrix& g, cagnet::Matrix& u,
              cagnet::EpochStats& stats) override;
  void times_weight(const cagnet::Matrix& t, const cagnet::Matrix& w,
                    cagnet::Matrix& z, cagnet::EpochStats& stats) override;
  void gather_feature_rows(const cagnet::Matrix& local, cagnet::Index f,
                           cagnet::Matrix& full,
                           cagnet::EpochStats& stats) override;
  void reduce_gradients(cagnet::Matrix& y_partial, cagnet::Index f_in,
                        cagnet::Index f_out, cagnet::Matrix& y_full,
                        cagnet::EpochStats& stats) override;
  void begin_reduce_gradients(cagnet::Matrix& y_partial, cagnet::Index f_in,
                              cagnet::Index f_out, cagnet::Matrix& y_full,
                              cagnet::EpochStats& stats) override;
  void finish_gradients(cagnet::EpochStats& stats) override;
  cagnet::Matrix gather_output(const cagnet::Matrix& output_rows,
                               cagnet::Index n) override;
  void begin_epoch(int epoch) override;
  void begin_backward(cagnet::EpochStats& stats) override;
  void end_backward(cagnet::EpochStats& stats) override;
  void drain() noexcept override { inner_->drain(); }

 protected:
  cagnet::Comm& gather_comm() override;

 private:
  std::unique_ptr<cagnet::DistSpmmAlgebra> inner_;
  SpanStore& store_;
};

}  // namespace perfbench
