// amdmb_prof — profile one figure's sweep on the simulated GPU.
//
// Runs a single micro-benchmark sweep with hardware-counter profiling
// forced on, then prints the counter table, clause queue/service
// decomposition, and counter-based bottleneck attribution for one
// sweep point. Optionally writes the Chrome trace (loadable in
// chrome://tracing or Perfetto) for every profiled point, emits the
// selected profile as JSON, or diffs two previously saved profiles
// counter by counter.
//
// Usage:
//   amdmb_prof <figure> [--arch NAME] [--mode pixel|compute]
//              [--type float|float4] [--point LABEL]
//              [--trace-dir DIR] [--json]
//   amdmb_prof --diff A.json B.json
//   amdmb_prof --list
//
//   <figure>       slug of a supported figure (see --list), e.g. fig_7
//   --arch NAME    chip or card name (RV770, 4870, ...); default RV770
//   --mode M       shader mode; default pixel (fig_8 defaults compute)
//   --type T       data type; default float
//   --point LABEL  select the sweep point whose full profile to print
//                  (substring match); default: the last profiled point
//   --trace-dir D  write one <arch>_<mode>_<type>_<point>.trace.json
//                  Chrome trace per profiled point into D
//   --json         print the selected profile as JSON instead of text
//   --diff A B     compare two profile JSON documents; exit 1 when any
//                  counter or the attributed bottleneck differs
//
// Sweeps run at smoke scale (the AMDMB_QUICK shapes) — the point is
// counter inspection, not paper-scale timing.
#include <cctype>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "amdmb.hpp"
#include "common/version.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/profile_json.hpp"
#include "report/json_sink.hpp"

namespace {

using namespace amdmb;
using ProfilePtr = std::shared_ptr<const prof::Profile>;

struct FigureSpec {
  const char* slug;
  const char* what;
};

constexpr FigureSpec kFigures[] = {
    {"fig_7", "ALU:fetch ratio sweep, texture reads, 64x1 blocks"},
    {"fig_8", "ALU:fetch ratio sweep, 4x16 compute blocks"},
    {"fig_11", "texture-fetch read latency vs input count"},
    {"fig_12", "global-read latency vs input count"},
    {"fig_13", "stream-store write latency vs output count"},
    {"fig_14", "global-write latency vs output count"},
    {"fig_15", "domain-size sweep, ALU-bound kernel"},
    {"fig_16", "register-usage sweep"},
    {"ext_block_size", "block-shape explorer, fetch-bound kernel"},
};

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " <figure> [--arch NAME] [--mode pixel|compute]"
               " [--type float|float4]\n"
               "       [--point LABEL] [--trace-dir DIR] [--json]\n"
               "   or: "
            << argv0 << " --diff A.json B.json\n   or: " << argv0
            << " --list\n";
  return 2;
}

std::string Lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Pulls the profiles out of a sweep's points, in sweep order.
template <typename Points>
std::vector<ProfilePtr> Collect(const Points& points) {
  std::vector<ProfilePtr> out;
  for (const auto& point : points) {
    if (point.m.profile != nullptr) out.push_back(point.m.profile);
  }
  return out;
}

std::vector<ProfilePtr> RunFigure(const std::string& slug,
                                  const GpuArch& arch, ShaderMode mode,
                                  DataType type) {
  using namespace amdmb::suite;
  const Runner runner(arch);
  if (slug == "fig_7" || slug == "fig_8") {
    AluFetchConfig c;
    c.exec.profile = true;
    c.domain = Domain{256, 256};
    c.ratio_step = 1.0;
    if (slug == "fig_8") c.block = BlockShape{4, 16};
    return Collect(RunAluFetch(runner, mode, type, c).points);
  }
  if (slug == "fig_11" || slug == "fig_12") {
    ReadLatencyConfig c;
    c.exec.profile = true;
    c.domain = Domain{256, 256};
    if (slug == "fig_12") c.read_path = ReadPath::kGlobal;
    return Collect(RunReadLatency(runner, mode, type, c).points);
  }
  if (slug == "fig_13" || slug == "fig_14") {
    WriteLatencyConfig c;
    c.exec.profile = true;
    c.domain = Domain{256, 256};
    if (slug == "fig_14") c.write_path = WritePath::kGlobal;
    return Collect(RunWriteLatency(runner, mode, type, c).points);
  }
  if (slug == "fig_15") {
    DomainSizeConfig c;
    c.exec.profile = true;
    c.max_size = 512;
    c.pixel_increment = 64;
    return Collect(RunDomainSize(runner, mode, type, c).points);
  }
  if (slug == "fig_16") {
    RegisterUsageConfig c;
    c.exec.profile = true;
    c.domain = Domain{256, 256};
    return Collect(RunRegisterUsage(runner, mode, type, c).points);
  }
  if (slug == "ext_block_size") {
    BlockSizeConfig c;
    c.exec.profile = true;
    c.type = type;
    c.domain = Domain{256, 256};
    return Collect(RunBlockSizeExplorer(runner, c).points);
  }
  throw ConfigError("amdmb_prof: unknown figure '" + slug +
                    "' (see --list)");
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

ShaderMode ParseMode(const std::string& text) {
  const std::string mode = Lower(text);
  if (mode == "pixel") return ShaderMode::kPixel;
  if (mode == "compute") return ShaderMode::kCompute;
  throw ConfigError("amdmb_prof: --mode must be pixel or compute, got '" +
                    text + "'");
}

DataType ParseType(const std::string& text) {
  const std::string type = Lower(text);
  if (type == "float") return DataType::kFloat;
  if (type == "float4") return DataType::kFloat4;
  throw ConfigError("amdmb_prof: --type must be float or float4, got '" +
                    text + "'");
}

}  // namespace

int main(int argc, char** argv) {
  std::string figure;
  std::string arch_name = "RV770";
  std::string mode_text;
  std::string type_text = "float";
  std::string point_label;
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
      } else if (std::strcmp(argv[i], "--arch") == 0) {
        arch_name = value("--arch");
      } else if (std::strcmp(argv[i], "--mode") == 0) {
        mode_text = value("--mode");
      } else if (std::strcmp(argv[i], "--type") == 0) {
        type_text = value("--type");
      } else if (std::strcmp(argv[i], "--point") == 0) {
        point_label = value("--point");
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
    for (const FigureSpec& spec : kFigures) {
      std::cout << spec.slug << "\t" << spec.what << "\n";
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

    const GpuArch arch = ArchByName(arch_name);
    const ShaderMode mode =
        mode_text.empty()
            ? (figure == "fig_8" ? ShaderMode::kCompute : ShaderMode::kPixel)
            : ParseMode(mode_text);
    const DataType type = ParseType(type_text);
    Require(mode == ShaderMode::kPixel || arch.supports_compute,
            "amdmb_prof: " + arch.name + " has no compute-shader mode");
    if (!trace_dir.empty()) {
      report::EnsureWritableDirectory(trace_dir, "--trace-dir");
      // Each profiled launch writes its own trace, as under
      // AMDMB_TRACE_DIR; only launches with a destination keep the
      // timeline a trace is made of.
      prof::SetTraceDirectory(trace_dir);
    }

    const std::vector<ProfilePtr> profiles =
        RunFigure(figure, arch, mode, type);
    if (profiles.empty()) {
      std::cerr << "amdmb_prof: the sweep produced no profiled points\n";
      return 1;
    }

    ProfilePtr selected = profiles.back();
    if (!point_label.empty()) {
      selected = nullptr;
      for (const ProfilePtr& p : profiles) {
        if (p->point.find(point_label) != std::string::npos) {
          selected = p;
          break;
        }
      }
      if (selected == nullptr) {
        std::cerr << "amdmb_prof: no sweep point matches '" << point_label
                  << "'; points are:\n";
        for (const ProfilePtr& p : profiles) {
          std::cerr << "  " << p->point << "\n";
        }
        return 1;
      }
    }

    for (const ProfilePtr& p : profiles) {
      if (!trace_dir.empty()) {
        std::cout << "trace: " << prof::TracePath(*p, trace_dir) << "\n";
      }
    }

    if (json) {
      std::cout << prof::ProfileJson(*selected);
      return 0;
    }

    std::cout << figure << " on " << Identity(*selected) << " ("
              << profiles.size() << " profiled point"
              << (profiles.size() == 1 ? "" : "s") << ")\n";
    for (const ProfilePtr& p : profiles) {
      std::cout << "  " << p->point << ": "
                << sim::ToString(p->attribution.bottleneck)
                << (p == selected ? "  <- selected" : "") << "\n";
    }
    std::cout << "\n" << selected->Render();
    return 0;
  } catch (const amdmb::ConfigError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "amdmb_prof: " << e.what() << "\n";
    return 1;
  }
}
