#include "spans.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "report/json.hpp"

namespace perfbench {

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

std::int64_t SpanRecorder::SinceOrigin(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
      .count();
}

int SpanRecorder::Begin(std::string name, std::uint64_t id) {
  if (!enabled_) return -1;
  const int index = static_cast<int>(spans_.size());
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back({std::move(name), SinceOrigin(Clock::now()), 0, parent, id});
  open_.push_back(index);
  return index;
}

void SpanRecorder::End(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = SinceOrigin(Clock::now());
  // ScopedSpan closes innermost first.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

void SpanRecorder::Add(std::string name, Clock::time_point start,
                       Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(
      {std::move(name), SinceOrigin(start), SinceOrigin(end), parent, id});
}

std::map<std::string, SpanTotals> SpanRecorder::Totals() const {
  const std::vector<std::int64_t> self = SelfTimes(spans_);
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    SpanTotals& t = totals[spans_[i].name];
    ++t.count;
    t.total_ns += spans_[i].Duration();
    t.self_ns += self[i];
  }
  return totals;
}

std::string SpanRecorder::ChromeTrace() const {
  std::ostringstream os;
  os << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    os << (i ? ",\n" : "\n") << "{\"name\": \""
       << amdmb::report::JsonEscape(s.name)
       << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
       << static_cast<double>(s.start_ns) / 1e3
       << ", \"dur\": " << static_cast<double>(s.Duration()) / 1e3
       << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
       << "}}";
  }
  os << "\n]}\n";
  return os.str();
}

std::vector<std::int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
    }
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    std::int64_t covered = 0;
    std::int64_t cursor = spans[i].start_ns;
    for (const auto& [start, end] : kids) {
      const std::int64_t from = std::max(start, cursor);
      const std::int64_t to = std::min(end, spans[i].end_ns);
      if (to > from) {
        covered += to - from;
        cursor = to;
      }
    }
    self[i] = spans[i].Duration() - covered;
  }
  return self;
}

}  // namespace perfbench
