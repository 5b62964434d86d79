#include "harness/trace.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/util/error.hpp"

namespace perfbench {

using namespace cagnet;

namespace {

std::int64_t since(Clock::time_point origin) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin)
      .count();
}

}  // namespace

int SpanStore::begin(const char* name) {
  Span s;
  s.name = name;
  s.rank = rank_;
  s.epoch = epoch_;
  s.parent = open_.empty() ? -1 : open_.back();
  const int id = static_cast<int>(spans_.size());
  spans_.push_back(s);
  open_.push_back(id);
  spans_.back().start_ns = since(origin_);
  return id;
}

void SpanStore::end(int id) noexcept {
  const std::int64_t now = since(origin_);
  // Scopes close innermost first, on unwinding too; anything still open
  // above `id` closes with it.
  while (!open_.empty()) {
    const int top = open_.back();
    open_.pop_back();
    spans_[static_cast<std::size_t>(top)].end_ns = now;
    if (top == id) break;
  }
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const std::int64_t lo = std::max(s.start_ns, p.start_ns);
    const std::int64_t hi = std::min(s.end_ns, p.end_ns);
    if (hi > lo) {
      children[static_cast<std::size_t>(s.parent)].push_back({lo, hi});
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t reach = spans[i].start_ns;
    for (const auto& [lo, hi] : kids) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns -
                                  covered) *
              1e-9;
  }
  return self;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<const SpanStore*>& stores) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  CAGNET_CHECK(out != nullptr, "cannot write trace file " + path);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  for (const SpanStore* store : stores) {
    const int tid = store->rank() < 0 ? 1000 : store->rank();
    std::fprintf(out,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":0,"
                 "\"tid\":%d,\"args\":{\"name\":\"%s%d\"}}",
                 first ? "" : ",\n", tid,
                 store->rank() < 0 ? "main" : "rank ",
                 store->rank() < 0 ? 0 : store->rank());
    first = false;
    for (const Span& s : store->spans()) {
      std::fprintf(out,
                   ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%d,"
                   "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"epoch\":%d,"
                   "\"parent\":%d}}",
                   s.name, tid, static_cast<double>(s.start_ns) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3,
                   s.epoch, s.parent);
    }
  }
  std::fprintf(out, "\n]}\n");
  const bool ok = std::ferror(out) == 0;
  CAGNET_CHECK(std::fclose(out) == 0 && ok, "failed writing " + path);
}

TracingAlgebra::TracingAlgebra(std::unique_ptr<DistSpmmAlgebra> inner,
                               SpanStore& store)
    : DistSpmmAlgebra(inner->machine()),
      inner_(std::move(inner)),
      store_(store) {}

void TracingAlgebra::spmm_at(const Matrix& h, Matrix& t, EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.spmm_at");
  inner_->spmm_at(h, t, stats);
}

void TracingAlgebra::spmm_a(const Matrix& g, Matrix& u, EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.spmm_a");
  inner_->spmm_a(g, u, stats);
}

void TracingAlgebra::times_weight(const Matrix& t, const Matrix& w, Matrix& z,
                                  EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.times_weight");
  inner_->times_weight(t, w, z, stats);
}

void TracingAlgebra::gather_feature_rows(const Matrix& local, Index f,
                                         Matrix& full, EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.gather_rows");
  inner_->gather_feature_rows(local, f, full, stats);
}

void TracingAlgebra::reduce_gradients(Matrix& y_partial, Index f_in,
                                      Index f_out, Matrix& y_full,
                                      EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.grad_reduce");
  inner_->reduce_gradients(y_partial, f_in, f_out, y_full, stats);
}

void TracingAlgebra::begin_reduce_gradients(Matrix& y_partial, Index f_in,
                                            Index f_out, Matrix& y_full,
                                            EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.grad_reduce");
  inner_->begin_reduce_gradients(y_partial, f_in, f_out, y_full, stats);
}

void TracingAlgebra::finish_gradients(EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.grad_reduce");
  inner_->finish_gradients(stats);
}

Matrix TracingAlgebra::gather_output(const Matrix& output_rows, Index n) {
  ScopedSpan span(&store_, "algebra.gather_output");
  return inner_->gather_output(output_rows, n);
}

void TracingAlgebra::begin_epoch(int epoch) {
  ScopedSpan span(&store_, "algebra.begin_epoch");
  inner_->begin_epoch(epoch);
}

void TracingAlgebra::begin_backward(EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.transpose");
  inner_->begin_backward(stats);
}

void TracingAlgebra::end_backward(EpochStats& stats) {
  ScopedSpan span(&store_, "algebra.transpose");
  inner_->end_backward(stats);
}

Comm& TracingAlgebra::gather_comm() {
  throw Error("TracingAlgebra::gather_comm: gather_output is forwarded whole");
}

}  // namespace perfbench
