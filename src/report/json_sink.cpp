#include "report/json_sink.hpp"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/stats.hpp"
#include "common/status.hpp"
#include "prof/profile_json.hpp"
#include "report/json.hpp"

namespace amdmb::report {

namespace {

void EmitStringArray(std::ostringstream& os,
                     const std::vector<std::string>& items) {
  os << "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i) os << ", ";
    os << "\"" << JsonEscape(items[i]) << "\"";
  }
  os << "]";
}

void EmitMeta(std::ostringstream& os, const RunMeta& meta) {
  os << "  \"meta\": {\n";
  os << "    \"suite_version\": \"" << JsonEscape(meta.suite_version)
     << "\",\n";
  os << "    \"threads\": " << meta.threads << ",\n";
  os << "    \"quick\": " << (meta.quick ? "true" : "false") << ",\n";
  os << "    \"faults\": \"" << JsonEscape(meta.faults) << "\",\n";
  os << "    \"retry\": \"" << JsonEscape(meta.retry) << "\",\n";
  os << "    \"watchdog_cycles\": " << meta.watchdog_cycles << ",\n";
  // Additive: only adaptive runs carry the key, so dense documents stay
  // byte-identical to pre-adapt writers.
  if (meta.adaptive) os << "    \"adaptive\": true,\n";
  os << "    \"archs\": ";
  EmitStringArray(os, meta.archs);
  os << ",\n";
  os << "    \"modes\": ";
  EmitStringArray(os, meta.modes);
  os << "\n  },\n";
}

void EmitFindings(std::ostringstream& os,
                  const std::vector<Finding>& findings) {
  os << "  \"findings\": [";
  for (std::size_t i = 0; i < findings.size(); ++i) {
    const Finding& f = findings[i];
    os << (i ? "," : "") << "\n    {";
    os << "\"kind\": \"" << ToString(f.kind) << "\", ";
    os << "\"curve\": \"" << JsonEscape(f.curve) << "\", ";
    os << "\"label\": \"" << JsonEscape(f.label) << "\", ";
    os << "\"value\": "
       << (f.value.has_value() ? JsonNumber(*f.value) : std::string("null"))
       << ", ";
    os << "\"unit\": \"" << JsonEscape(f.unit) << "\"";
    if (!f.detail.empty()) {
      os << ", \"detail\": \"" << JsonEscape(f.detail) << "\"";
    }
    os << "}";
  }
  os << (findings.empty() ? "]" : "\n  ]");
}

/// The additive schema-v2 "profile" block: emitted only when the run
/// was profiled, so unprofiled documents stay byte-identical to before
/// the profiler existed.
void EmitProfiles(std::ostringstream& os,
                  const std::vector<ProfileEntry>& profiles) {
  os << "  \"profile\": [";
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    const ProfileEntry& p = profiles[i];
    os << (i ? "," : "") << "\n    {";
    os << "\"curve\": \"" << JsonEscape(p.curve) << "\", ";
    os << "\"point\": \"" << JsonEscape(p.point) << "\", ";
    os << "\"attributed\": \"" << JsonEscape(p.attributed) << "\", ";
    os << "\"heuristic\": \"" << JsonEscape(p.heuristic) << "\", ";
    os << "\"agree\": " << (p.agree ? "true" : "false") << ", ";
    os << "\"alu_score\": " << JsonNumber(p.alu_score) << ", ";
    os << "\"fetch_score\": " << JsonNumber(p.fetch_score) << ", ";
    os << "\"memory_score\": " << JsonNumber(p.memory_score) << ", ";
    os << "\"dropped_events\": " << p.dropped_events << ", ";
    os << "\"counters\": " << prof::CounterSetJson(p.counters) << "}";
  }
  os << "\n  ],\n";
}

/// The additive "frontier" block for 2D classification-map figures;
/// 1D documents never carry the key.
void EmitFrontier(std::ostringstream& os, const Frontier& frontier) {
  os << "  \"frontier\": {\n";
  os << "    \"x_label\": \"" << JsonEscape(frontier.x_label) << "\",\n";
  os << "    \"y_label\": \"" << JsonEscape(frontier.y_label) << "\",\n";
  const auto emit_numbers = [&os](const std::vector<double>& values) {
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (i) os << ", ";
      os << JsonNumber(values[i]);
    }
    os << "]";
  };
  os << "    \"xs\": ";
  emit_numbers(frontier.xs);
  os << ",\n    \"ys\": ";
  emit_numbers(frontier.ys);
  os << ",\n    \"cells\": ";
  EmitStringArray(os, frontier.cells);
  os << ",\n    \"measured\": [";
  for (std::size_t i = 0; i < frontier.measured.size(); ++i) {
    if (i) os << ", ";
    os << (frontier.measured[i] ? "true" : "false");
  }
  os << "],\n";
  os << "    \"points_measured\": " << frontier.points_measured << ",\n";
  os << "    \"points_dense\": " << frontier.points_dense << "\n";
  os << "  },\n";
}

void EmitDegradations(std::ostringstream& os,
                      const std::vector<Degradation>& degradations) {
  os << "  \"degradations\": [";
  for (std::size_t i = 0; i < degradations.size(); ++i) {
    const Degradation& d = degradations[i];
    os << (i ? "," : "") << "\n    {";
    os << "\"curve\": \"" << JsonEscape(d.curve) << "\", ";
    os << "\"point\": \"" << JsonEscape(d.point) << "\", ";
    os << "\"status\": \"" << JsonEscape(d.status) << "\", ";
    os << "\"attempts\": " << d.attempts << ", ";
    os << "\"error\": \"" << JsonEscape(d.error) << "\"}";
  }
  os << "\n  ],\n";
}

}  // namespace

std::string FigureSlug(std::string_view id) {
  std::string slug;
  bool numbered = false;
  for (const char c : id) {
    // The em-dash (UTF-8 lead byte) separates a figure number from its
    // title: break there only once the prefix carried a number ("Fig. 7
    // — ..." -> "fig_7"). Unnumbered prefixes ("Ablation — ...") keep
    // the full id so distinct figures never collide on one slug.
    if (static_cast<unsigned char>(c) == 0xE2 && numbered) break;
    if (std::isalnum(static_cast<unsigned char>(c))) {
      numbered =
          numbered || std::isdigit(static_cast<unsigned char>(c)) != 0;
      slug.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!slug.empty() && slug.back() != '_') {
      slug.push_back('_');
    }
  }
  while (!slug.empty() && slug.back() == '_') slug.pop_back();
  return slug.empty() ? "figure" : slug;
}

std::string BenchJson(const Figure& figure) {
  std::ostringstream os;
  os << "{\n";
  os << "  \"figure\": \"" << JsonEscape(figure.id) << "\",\n";
  os << "  \"title\": \"" << JsonEscape(figure.set.Title()) << "\",\n";
  os << "  \"paper_claim\": \"" << JsonEscape(figure.paper_claim) << "\",\n";
  os << "  \"schema_version\": " << kSchemaVersion << ",\n";
  EmitMeta(os, figure.meta);
  // The v1 "notes" array, rendered from the typed findings so old
  // consumers keep seeing one human-readable line per observation.
  std::vector<std::string> notes;
  notes.reserve(figure.findings.size());
  for (const Finding& f : figure.findings) notes.push_back(f.Render());
  os << "  \"notes\": ";
  EmitStringArray(os, notes);
  os << ",\n";
  EmitFindings(os, figure.findings);
  os << ",\n";
  if (!figure.degradations.empty()) {
    EmitDegradations(os, figure.degradations);
  }
  if (!figure.profiles.empty()) {
    EmitProfiles(os, figure.profiles);
  }
  if (figure.frontier.has_value()) {
    EmitFrontier(os, *figure.frontier);
  }
  os << "  \"curves\": [\n";
  const auto& all = figure.set.All();
  for (std::size_t s = 0; s < all.size(); ++s) {
    const Curve& series = all[s];
    const std::vector<double> ys = series.Ys();
    os << "    {\n";
    os << "      \"name\": \"" << JsonEscape(series.Name()) << "\",\n";
    os << "      \"points\": [";
    const auto& points = series.Points();
    for (std::size_t p = 0; p < points.size(); ++p) {
      if (p) os << ", ";
      os << "{\"x\": " << JsonNumber(points[p].x)
         << ", \"sim_seconds\": " << JsonNumber(points[p].y) << "}";
    }
    os << "],\n";
    os << "      \"sim_seconds_median\": " << JsonNumber(Median(ys))
       << ",\n";
    os << "      \"sim_seconds_min\": "
       << JsonNumber(ys.empty()
                         ? 0.0
                         : *std::min_element(ys.begin(), ys.end()))
       << ",\n";
    os << "      \"sim_seconds_max\": "
       << JsonNumber(ys.empty()
                         ? 0.0
                         : *std::max_element(ys.begin(), ys.end()))
       << "\n";
    os << "    }" << (s + 1 < all.size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
  return os.str();
}

std::filesystem::path WriteBenchJson(
    const Figure& figure, const std::filesystem::path& directory) {
  EnsureWritableDirectory(directory, "WriteBenchJson output directory");

  const std::filesystem::path file =
      directory / ("BENCH_" + figure.Slug() + ".json");
  std::ofstream out(file);
  Require(out.good(), "WriteBenchJson: cannot open " + file.string());
  out << BenchJson(figure);
  Require(out.good(), "WriteBenchJson: write failed for " + file.string());
  return file;
}

}  // namespace amdmb::report
