// amdmb_prof — profile one figure's sweep on the simulated GPU.
//
// Builds one curve of a registry or supplementary figure through its
// FigureDef — the very sweep the bench binary plots — at quick scale
// with hardware-counter profiling forced on, then prints the counter
// table, clause queue/service decomposition, and counter-based
// bottleneck attribution for one profiled point. Optionally writes the
// Chrome trace (loadable in chrome://tracing or Perfetto) for every
// profiled point, emits the selected profile as JSON, or diffs two
// previously saved profiles counter by counter.
//
// Usage:
//   amdmb_prof <figure> [--curve TEXT] [--point TEXT] [--trace-dir DIR]
//              [--json]
//   amdmb_prof --diff A.json B.json
//   amdmb_prof --list
//
//   <figure>       slug of a figure (see --list), e.g. fig_7
//   --curve TEXT   build the first curve whose name contains TEXT
//                  ("4870 Compute Float4"); default: the first curve
//   --point TEXT   select the profiled point whose "curve/point" label
//                  contains TEXT; default: the last profiled point
//   --trace-dir D  write one <arch>_<mode>_<type>_<point>.trace.json
//                  Chrome trace per profiled point into D (overrides
//                  AMDMB_TRACE_DIR)
//   --json         print the selected profile as JSON instead of text
//   --diff A B     compare two profile JSON documents; exit 1 when any
//                  counter or the attributed bottleneck differs
//
// Exit codes: 0 ok, 1 no matching curve/point or a failed sweep,
// 2 usage errors, unknown figures, and unwritable trace directories.
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "amdmb.hpp"
#include "common/version.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/profile_json.hpp"
#include "report/sink.hpp"
#include "suite/figures.hpp"

namespace {

using namespace amdmb;
namespace figures = suite::figures;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <figure> [--curve TEXT] [--point TEXT]"
               " [--trace-dir DIR] [--json]\n"
               "   or: "
            << argv0 << " --diff A.json B.json\n   or: " << argv0
            << " --list\n";
  return 2;
}

std::string Label(const report::ProfileEntry& entry) {
  return entry.curve + "/" + entry.point;
}

prof::Profile LoadProfile(const std::string& path) {
  std::ifstream in(path);
  Require(in.good(), "amdmb_prof: cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return prof::ParseProfileJson(text.str());
  } catch (const ConfigError& e) {
    throw ConfigError(path + ": " + e.what());
  }
}

std::string Identity(const prof::Profile& p) {
  return p.arch + " " + p.mode + " " + p.type + " " + p.point;
}

/// Counter-by-counter comparison; returns the number of differences
/// (differing counters plus a differing attributed bottleneck).
int DiffProfiles(const prof::Profile& a, const prof::Profile& b) {
  std::cout << "A: " << Identity(a) << "\nB: " << Identity(b) << "\n\n";
  int differences = 0;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(prof::CounterId::kCount); ++i) {
    const auto id = static_cast<prof::CounterId>(i);
    const std::uint64_t va = a.counters.Get(id);
    const std::uint64_t vb = b.counters.Get(id);
    if (va == vb) continue;
    ++differences;
    const auto delta = static_cast<std::int64_t>(vb - va);
    std::cout << "  " << prof::ToString(id) << ": " << va << " -> " << vb
              << " (" << (delta >= 0 ? "+" : "") << delta << ")\n";
  }
  const std::string_view ba = sim::ToString(a.attribution.bottleneck);
  const std::string_view bb = sim::ToString(b.attribution.bottleneck);
  if (ba != bb) {
    ++differences;
    std::cout << "  bottleneck: " << ba << " -> " << bb << "\n";
  }
  if (differences == 0) {
    std::cout << "identical: every counter and the attribution match\n";
  } else {
    std::cout << "\n" << differences << " difference"
              << (differences == 1 ? "" : "s") << "\n";
  }
  return differences;
}

}  // namespace

int main(int argc, char** argv) {
  std::string figure;
  std::string curve_text;
  std::string point_text;
  std::string trace_dir;
  std::vector<std::string> diff_paths;
  bool json = false;
  bool list = false;
  for (int i = 1; i < argc; ++i) {
    const auto value = [&](const char* flag) {
      if (i + 1 >= argc) {
        throw amdmb::ConfigError(std::string("amdmb_prof: ") + flag +
                                 " needs a value");
      }
      return std::string(argv[++i]);
    };
    try {
      if (std::strcmp(argv[i], "--version") == 0) {
        std::cout << "amdmb_prof " << amdmb::SuiteVersion() << "\n";
        return 0;
      } else if (std::strcmp(argv[i], "--list") == 0) {
        list = true;
      } else if (std::strcmp(argv[i], "--json") == 0) {
        json = true;
      } else if (std::strcmp(argv[i], "--curve") == 0) {
        curve_text = value("--curve");
      } else if (std::strcmp(argv[i], "--point") == 0) {
        point_text = value("--point");
      } else if (std::strcmp(argv[i], "--trace-dir") == 0) {
        trace_dir = value("--trace-dir");
      } else if (std::strcmp(argv[i], "--diff") == 0) {
        diff_paths.push_back(value("--diff"));
        diff_paths.push_back(value("--diff"));
      } else if (argv[i][0] == '-') {
        return Usage(argv[0]);
      } else if (figure.empty()) {
        figure = argv[i];
      } else {
        return Usage(argv[0]);
      }
    } catch (const amdmb::ConfigError& e) {
      std::cerr << e.what() << "\n";
      return 2;
    }
  }

  if (list) {
    for (const auto* defs : {&figures::Registry(), &figures::Supplementary()}) {
      for (const figures::FigureDef& def : *defs) {
        std::cout << def.slug << "\t" << def.what << "\n";
      }
    }
    return 0;
  }

  try {
    if (!diff_paths.empty()) {
      return DiffProfiles(LoadProfile(diff_paths[0]),
                          LoadProfile(diff_paths[1])) == 0
                 ? 0
                 : 1;
    }
    if (figure.empty()) return Usage(argv[0]);

    const figures::FigureDef* def = figures::Find(figure);
    if (def == nullptr) def = figures::Find(figure, figures::Supplementary());
    if (def == nullptr) {
      throw ConfigError("amdmb_prof: unknown figure '" + figure +
                        "' (see --list)");
    }
    const figures::CurveDef* curve = nullptr;
    for (const figures::CurveDef& c : def->curves) {
      if (c.name.find(curve_text) != std::string::npos) {
        curve = &c;
        break;
      }
    }
    if (curve == nullptr) {
      std::cerr << "amdmb_prof: no curve of " << def->slug << " matches '"
                << curve_text << "'; curves are:\n";
      for (const figures::CurveDef& c : def->curves) {
        std::cerr << "  " << c.name << "\n";
      }
      return 1;
    }
    // Each profiled launch writes its own trace, as under
    // AMDMB_TRACE_DIR; only launches with a destination keep the
    // timeline a trace is made of. Check the destination before the
    // first launch, not once per point.
    if (!trace_dir.empty()) prof::SetTraceDirectory(trace_dir);
    const std::string traces = prof::TraceDirectory();
    if (!traces.empty()) {
      report::EnsureWritableDirectory(
          traces, trace_dir.empty() ? "AMDMB_TRACE_DIR" : "--trace-dir");
    }

    figures::RunOptions opts;
    opts.quick = true;
    opts.profile = true;
    report::Figure record = figures::NewRecord(*def);
    curve->run(record, opts);
    const std::vector<report::ProfileEntry>& entries = record.profiles;
    if (entries.empty()) {
      std::cerr << "amdmb_prof: " << def->slug << " " << curve->name
                << " produced no profiled points\n";
      return 1;
    }

    const report::ProfileEntry* selected = &entries.back();
    if (!point_text.empty()) {
      selected = nullptr;
      for (const report::ProfileEntry& entry : entries) {
        if (Label(entry).find(point_text) != std::string::npos) {
          selected = &entry;
          break;
        }
      }
      if (selected == nullptr) {
        std::cerr << "amdmb_prof: no profiled point matches '" << point_text
                  << "'; points are:\n";
        for (const report::ProfileEntry& entry : entries) {
          std::cerr << "  " << Label(entry) << "\n";
        }
        return 1;
      }
    }

    if (json) {
      std::cout << prof::ProfileJson(*selected->profile);
      return 0;
    }

    if (!traces.empty()) {
      for (const report::ProfileEntry& entry : entries) {
        std::cout << "trace: " << prof::TracePath(*entry.profile, traces)
                  << "\n";
      }
    }
    std::cout << def->slug << " on " << Identity(*selected->profile) << " ("
              << entries.size() << " profiled point"
              << (entries.size() == 1 ? "" : "s") << ")\n";
    for (const report::ProfileEntry& entry : entries) {
      std::cout << "  " << Label(entry) << ": " << entry.attributed
                << (&entry == selected ? "  <- selected" : "") << "\n";
    }
    std::cout << "\n" << selected->profile->Render();
    return 0;
  } catch (const amdmb::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "amdmb_prof: " << e.what() << "\n";
    return 1;
  }
}
