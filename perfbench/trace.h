// In-memory span recorder for the traced replay.
//
// Every thread that records owns one Lane, created before the threads start,
// so recording takes no lock: a span is appended to its own lane's vector.
// A span carries (name, start, end, parent, worker, iteration); its id is
// (lane << 32 | ordinal), so a parent on another thread (the update thread's
// flush, caused by the main thread's exchange) is named without sharing
// state.  A null Lane* records nothing and reads no clock: the same replay
// code runs untraced, which is how the tracing overhead is measured.
// Nothing is written until Tracer::write_chrome_json() at the very end.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  SpanId id = kNoSpan;
  SpanId parent = kNoSpan;
  int worker = 0;
  std::int64_t iteration = 0;
  [[nodiscard]] double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

class Lane {
 public:
  Lane(int index, std::string label) : index_(index), label_(std::move(label)) {}
  /// Ids are handed out when a span opens, before its enclosing span is
  /// pushed, so they count openings rather than recorded spans.
  [[nodiscard]] SpanId next_id() {
    return (static_cast<SpanId>(index_ + 1) << 32) | ++opened_;
  }
  void push(const Span& span) { spans_.push_back(span); }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] int index() const { return index_; }
  [[nodiscard]] const std::string& label() const { return label_; }

 private:
  int index_;
  std::string label_;
  SpanId opened_ = 0;
  std::vector<Span> spans_;
};

/// Times one call; records on destruction.  `id()` is the parent to hand to
/// child spans (kNoSpan when untraced).
class ScopedSpan {
 public:
  ScopedSpan(Lane* lane, const char* name, SpanId parent, int worker, std::int64_t iteration)
      : lane_(lane) {
    if (lane_ == nullptr) return;
    span_.name = name;
    span_.parent = parent;
    span_.worker = worker;
    span_.iteration = iteration;
    span_.id = lane_->next_id();
    span_.start_ns = now_ns();
  }
  ~ScopedSpan() {
    if (lane_ == nullptr) return;
    span_.end_ns = now_ns();
    lane_->push(span_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] SpanId id() const { return span_.id; }

 private:
  Lane* lane_;
  Span span_;
};

/// Owns the lanes.  Lanes are created single-threaded before recording
/// starts; std::deque keeps their addresses stable.
class Tracer {
 public:
  Lane* add_lane(const std::string& label) {
    lanes_.emplace_back(static_cast<int>(lanes_.size()), label);
    return &lanes_.back();
  }

  /// Durations (seconds) of every span called `name`, across lanes.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;
  /// Sum over spans called `name` of the time their direct children cover,
  /// and the sum of their own durations: children / own is the share of
  /// `name`'s wall covered by the layers beneath it.
  [[nodiscard]] std::pair<double, double> child_cover(const std::string& name) const;
  /// Writes every span as Chrome trace-event JSON (opens in Perfetto or
  /// chrome://tracing).  Returns false if the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  std::deque<Lane> lanes_;
};

}  // namespace perfbench
