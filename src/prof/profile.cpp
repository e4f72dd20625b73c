#include "prof/profile.hpp"

#include <optional>
#include <sstream>
#include <utility>

#include "common/env.hpp"
#include "common/table.hpp"

namespace amdmb::prof {

std::size_t Profile::TouchedCacheSets() const {
  std::size_t touched = 0;
  for (const CacheSetStats& set : per_cache_set) {
    if (set.hits + set.misses > 0) ++touched;
  }
  return touched;
}

std::string Profile::Render() const {
  std::ostringstream os;
  os << "profile: " << point;
  if (!arch.empty()) os << " on " << arch;
  if (!mode.empty()) os << " (" << mode;
  if (!type.empty()) os << " " << type;
  if (!mode.empty()) os << ")";
  if (attempt > 1) os << " attempt " << attempt;
  os << "\n" << counters.Render();

  TextTable clause_table(
      {"clause type", "events", "queue (cyc)", "service (cyc)",
       "mean queue", "mean service"});
  for (std::size_t i = 0; i < kClauseTypeCount; ++i) {
    const ClauseAgg& agg = clauses[i];
    if (agg.events == 0) continue;
    const auto events = static_cast<double>(agg.events);
    clause_table.AddRow(
        {std::string(isa::ToString(static_cast<isa::ClauseType>(i))),
         std::to_string(agg.events), std::to_string(agg.queue_cycles),
         std::to_string(agg.service_cycles),
         FormatDouble(static_cast<double>(agg.queue_cycles) / events, 1),
         FormatDouble(static_cast<double>(agg.service_cycles) / events, 1)});
  }
  os << "queueing vs service per clause type:\n" << clause_table.Render();

  if (!per_cache_set.empty()) {
    os << "texture-cache sets touched: " << TouchedCacheSets() << " of "
       << per_cache_set.size() << "\n";
  }
  if (dropped_events > 0) {
    os << "trace events dropped past the capacity cap: " << dropped_events
       << " (raise AMDMB_TRACE_CAP)\n";
  }
  os << "attribution: " << sim::ToString(attribution.bottleneck)
     << "  (alu=" << FormatDouble(attribution.alu_score, 3)
     << " fetch=" << FormatDouble(attribution.fetch_score, 3)
     << " memory=" << FormatDouble(attribution.memory_score, 3) << ")\n";
  return os.str();
}

bool ProfilingEnabled() { return env::Get().prof; }

namespace {

std::optional<std::string>& TraceDirectoryOverride() {
  static std::optional<std::string> dir;
  return dir;
}

}  // namespace

std::string TraceDirectory() {
  if (const auto& dir = TraceDirectoryOverride()) return *dir;
  return env::Get().trace_dir.value_or(std::string());
}

void SetTraceDirectory(std::string dir) {
  TraceDirectoryOverride() = std::move(dir);
}

}  // namespace amdmb::prof
