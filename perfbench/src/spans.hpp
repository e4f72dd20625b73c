// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded by the benchmark's own code around calls into each
// module's public functions (no span lives inside src/). They stay in
// memory while the workload runs and are written out once it ends, so
// recording costs two clock reads and a vector append.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// One timed interval. `parent` indexes the enclosing span in the same
/// recorder (-1 for a root); `id` groups spans of one request or sweep
/// point (0 when not tied to one).
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;
  std::uint64_t id = 0;

  std::int64_t Duration() const { return end_ns - start_ns; }
};

/// Per-name totals over a recording.
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;  ///< Sum of durations.
  std::int64_t self_ns = 0;   ///< Sum of self times (see SelfTimes).
};

/// Records from one thread: workloads time concurrent work from its own
/// timestamps and Add() the intervals afterwards.
class SpanRecorder {
 public:
  /// A disabled recorder ignores Begin/End, so workload code records
  /// unconditionally and the untraced run pays one branch per span.
  explicit SpanRecorder(bool enabled = true);

  /// Opens a span nested in the innermost open one; returns its index
  /// (-1 when disabled).
  int Begin(std::string name, std::uint64_t id = 0);
  void End(int index);

  /// Records an interval measured elsewhere (e.g. from event timestamps)
  /// as a child of the innermost open span.
  void Add(std::string name, Clock::time_point start, Clock::time_point end,
           std::uint64_t id = 0);

  const std::vector<Span>& Spans() const { return spans_; }

  /// Totals keyed by span name.
  std::map<std::string, SpanTotals> Totals() const;

  /// Chrome trace_event document (complete "X" events on one lane).
  std::string ChromeTrace() const;

 private:
  std::int64_t SinceOrigin(Clock::time_point t) const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; a no-op on a disabled recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::string name, std::uint64_t id = 0)
      : recorder_(recorder), index_(recorder.Begin(std::move(name), id)) {}
  ~ScopedSpan() { recorder_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& recorder_;
  int index_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children's intervals (children may
/// overlap when they ran concurrently, so overlaps count once).
std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench
