#ifndef DCER_E2EBENCH_SPANS_H_
#define DCER_E2EBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace e2ebench {

/// Seconds on the steady clock since the first call in the process.
inline double NowSeconds() {
  using Clock = std::chrono::steady_clock;
  static const Clock::time_point anchor = Clock::now();
  return std::chrono::duration<double>(Clock::now() - anchor).count();
}

/// One span recorded by the benchmark around a call into a layer. `layer`
/// is the module the call enters ("relational", "partition", "parallel",
/// "chase", "ml", "service") or "bench" for the benchmark's own work;
/// `parent` indexes the enclosing span of the same recorder (-1 at top
/// level).
struct Span {
  std::string name;
  std::string layer;
  double start = 0;
  double end = 0;
  int parent = -1;
  int tid = 0;
};

/// In-memory span log of one thread. Disabled recorders cost a branch per
/// call site, so untraced runs pay nothing measurable. Spans are kept until
/// the run ends and then written out as a Chrome trace.
class SpanLog {
 public:
  SpanLog(bool enabled, int tid) : enabled_(enabled), tid_(tid) {}

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (-1 when disabled).
  int Open(std::string name, std::string layer) {
    if (!enabled_) return -1;
    spans_.push_back({std::move(name), std::move(layer), NowSeconds(), 0,
                      open_.empty() ? -1 : open_.back(), tid_});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void Close(int idx) {
    if (idx < 0) return;
    spans_[idx].end = NowSeconds();
    open_.pop_back();
  }

  /// Records an already-measured interval as a child of the innermost open
  /// span — used for phases the program reports itself (the DMatch
  /// partition and BSP seconds inside one timed resolve).
  void Add(std::string name, std::string layer, double start, double end) {
    if (!enabled_) return;
    spans_.push_back({std::move(name), std::move(layer), start, end,
                      open_.empty() ? -1 : open_.back(), tid_});
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  int tid_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over the rest of the enclosing scope.
class Scoped {
 public:
  Scoped(SpanLog* log, std::string name, std::string layer)
      : log_(log), idx_(log->Open(std::move(name), std::move(layer))) {}
  ~Scoped() { log_->Close(idx_); }

  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  SpanLog* log_;
  int idx_;
};

}  // namespace e2ebench

#endif  // DCER_E2EBENCH_SPANS_H_
