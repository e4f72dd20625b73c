#include "report/record.hpp"

#include <sstream>

#include "arch/gpu_arch.hpp"
#include "common/env.hpp"
#include "common/status.hpp"
#include "common/table.hpp"
#include "common/version.hpp"
#include "exec/run_report.hpp"
#include "exec/thread_pool.hpp"
#include "prof/profile.hpp"
#include "report/json_sink.hpp"

namespace amdmb::report {

std::string_view ToString(FindingKind kind) {
  switch (kind) {
    case FindingKind::kCrossover: return "crossover";
    case FindingKind::kSlope: return "slope";
    case FindingKind::kPlateau: return "plateau";
    case FindingKind::kRatio: return "ratio";
    case FindingKind::kEvent: return "event";
  }
  throw SimError("ToString(FindingKind): unknown value");
}

std::optional<FindingKind> FindingKindFromString(std::string_view name) {
  if (name == "crossover") return FindingKind::kCrossover;
  if (name == "slope") return FindingKind::kSlope;
  if (name == "plateau") return FindingKind::kPlateau;
  if (name == "ratio") return FindingKind::kRatio;
  if (name == "event") return FindingKind::kEvent;
  return std::nullopt;
}

std::string Finding::Render() const {
  std::ostringstream os;
  if (!curve.empty()) os << curve << ": ";
  os << label << " ";
  if (value.has_value()) {
    os << "= " << FormatDouble(*value, 3);
    if (!unit.empty()) os << " " << unit;
  } else {
    os << "not reached within the sweep";
  }
  if (!detail.empty()) os << " (" << detail << ")";
  return os.str();
}

const Finding* FindFinding(const std::vector<Finding>& findings,
                           std::string_view label, std::string_view curve) {
  for (const Finding& f : findings) {
    if (f.label != label) continue;
    if (!curve.empty() && f.curve != curve) continue;
    return &f;
  }
  return nullptr;
}

std::string Degradation::Render() const {
  std::ostringstream os;
  os << curve << "/" << point << ": " << status << ", " << attempts
     << " attempt" << (attempts == 1 ? "" : "s");
  if (!error.empty()) os << " — " << error;
  return os.str();
}

std::vector<Degradation> DegradationsFrom(const exec::RunReport& run,
                                          const std::string& curve) {
  std::vector<Degradation> out;
  for (const exec::PointOutcome& p : run.points) {
    if (p.status == exec::PointStatus::kOk) continue;
    Degradation d;
    d.curve = curve;
    d.point = p.label.empty() ? "point " + std::to_string(p.index) : p.label;
    d.status = std::string(exec::ToString(p.status));
    d.attempts = p.attempts;
    d.error = p.error;
    out.push_back(std::move(d));
  }
  return out;
}

std::string ProfileEntry::Render() const {
  std::ostringstream os;
  os << curve << "/" << point << ": " << attributed;
  if (agree) {
    os << " (agrees with heuristic)";
  } else {
    os << " — DIVERGES from heuristic " << heuristic;
  }
  os << "  alu=" << FormatDouble(alu_score, 3)
     << " fetch=" << FormatDouble(fetch_score, 3)
     << " memory=" << FormatDouble(memory_score, 3);
  if (dropped_events > 0) {
    os << "  (" << dropped_events << " trace events dropped)";
  }
  return os.str();
}

bool ProfileEntry::operator==(const ProfileEntry& other) const {
  return curve == other.curve && point == other.point &&
         attributed == other.attributed && heuristic == other.heuristic &&
         agree == other.agree && alu_score == other.alu_score &&
         fetch_score == other.fetch_score &&
         memory_score == other.memory_score && counters == other.counters &&
         dropped_events == other.dropped_events;
}

ProfileEntry MakeProfileEntry(const std::string& curve,
                              std::shared_ptr<const prof::Profile> profile,
                              std::string_view heuristic) {
  ProfileEntry entry;
  entry.curve = curve;
  entry.point = profile->point;
  entry.attributed = sim::ToString(profile->attribution.bottleneck);
  entry.heuristic = heuristic;
  entry.agree = entry.attributed == entry.heuristic;
  entry.alu_score = profile->attribution.alu_score;
  entry.fetch_score = profile->attribution.fetch_score;
  entry.memory_score = profile->attribution.memory_score;
  entry.counters = profile->counters;
  entry.dropped_events = profile->dropped_events;
  if (profile->events.empty() && profile->occupancy.empty()) {
    entry.profile = std::move(profile);
  } else {
    // The timeline's one reader, the Chrome-trace exporter, ran at
    // launch; a record lives for its whole figure, so it keeps no copy.
    auto trimmed = std::make_shared<prof::Profile>(*profile);
    trimmed->events = std::vector<sim::TraceEvent>();
    trimmed->occupancy = std::vector<prof::OccupancySample>();
    entry.profile = std::move(trimmed);
  }
  return entry;
}

RunMeta CollectRunMeta() {
  RunMeta meta;
  meta.suite_version = std::string(SuiteVersion());
  const env::Options& options = env::Get();
  meta.threads = exec::DefaultThreadCount();
  meta.quick = options.quick;
  meta.faults = options.faults.value_or("");
  meta.retry = options.retry.value_or("");
  meta.watchdog_cycles = options.watchdog_cycles;
  meta.adaptive = options.adapt;
  return meta;
}

std::string Figure::Slug() const { return FigureSlug(id); }

void FinalizeMeta(Figure& figure) {
  RunMeta meta = CollectRunMeta();
  // The legend names carry the GPU generation ("4870 Pixel Float") and
  // the shader mode; collect whichever of the known archs/modes appear.
  for (const GpuArch& arch : AllArchs()) {
    std::string card = arch.card;  // "Radeon HD 4870" -> "4870".
    if (const auto pos = card.rfind(' '); pos != std::string::npos) {
      card = card.substr(pos + 1);
    }
    for (const Curve& curve : figure.set.All()) {
      if (curve.Name().find(card) != std::string::npos) {
        meta.archs.push_back(arch.name + " (" + card + ")");
        break;
      }
    }
  }
  for (const std::string_view mode : {"Pixel", "Compute"}) {
    for (const Curve& curve : figure.set.All()) {
      if (curve.Name().find(mode) != std::string::npos) {
        std::string lower(mode);
        lower[0] = static_cast<char>(lower[0] - 'A' + 'a');
        meta.modes.push_back(lower);
        break;
      }
    }
  }
  figure.meta = std::move(meta);
}

}  // namespace amdmb::report
