// amdmb_perf — minimal sim-throughput benchmark.
//
// Times the wall-clock cost of one representative sweep point (the
// Fig. 7 ALU:Fetch kernel on the 4870 at quick scale) with the standard
// robust recipe: a warmup burst, then G groups of R timed samples; the
// per-group medians are reduced by a median-of-medians so a noisy
// neighbour perturbs at most one group. The result is written as
// BENCH_PERF.json — `median_ns` / `p95_ns` per measured point plus the
// derived points_per_second — so adaptive-vs-dense capacity claims have
// machine-readable numbers to stand on.
//
// usage: amdmb_perf [--groups G] [--samples R] [--warmup W] [--out FILE]
//   --out -   write the JSON document to stdout only.
//   default   BENCH_PERF.json in AMDMB_JSON_DIR (falling back to the
//             working directory), summary line to stderr.
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hpp"
#include "common/stats.hpp"
#include "common/status.hpp"
#include "common/version.hpp"
#include "report/json.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"

namespace {

using namespace amdmb;

int Usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--groups G] [--samples R] [--warmup W] [--out FILE]\n";
  return 2;
}

unsigned ParseCount(const char* text, const char* flag) {
  try {
    const long value = std::stol(text);
    Require(value > 0, std::string(flag) + ": must be positive");
    return static_cast<unsigned>(value);
  } catch (const ConfigError&) {
    throw;
  } catch (const std::exception&) {
    throw ConfigError(std::string(flag) + ": not a number: " + text);
  }
}

}  // namespace

int main(int argc, char** argv) {
  try {
    unsigned groups = 5;
    unsigned samples = 8;
    unsigned warmup = 3;
    std::string out_file;
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--version") {
        std::cout << "amdmb_perf " << SuiteVersion() << "\n";
        return 0;
      } else if (arg == "--groups" && i + 1 < argc) {
        groups = ParseCount(argv[++i], "--groups");
      } else if (arg == "--samples" && i + 1 < argc) {
        samples = ParseCount(argv[++i], "--samples");
      } else if (arg == "--warmup" && i + 1 < argc) {
        warmup = ParseCount(argv[++i], "--warmup");
      } else if (arg == "--out" && i + 1 < argc) {
        out_file = argv[++i];
      } else {
        return Usage(argv[0]);
      }
    }

    // The representative point: the Fig. 7 kernel family at ratio 1.0
    // on the 4870, quick domain. One Measure() call = one sweep point.
    const suite::Runner runner(MakeRV770());
    suite::GenericSpec spec;
    spec.inputs = 16;
    spec.outputs = 1;
    spec.alu_ops = suite::AluOpsForRatio(1.0, spec.inputs);
    spec.name = "perf_probe";
    const il::Kernel kernel = suite::GenerateGeneric(spec);
    sim::LaunchConfig config;
    config.domain = Domain{256, 256};
    config.mode = ShaderMode::kPixel;
    config.repetitions = 100;

    const auto once = [&] {
      const auto start = std::chrono::steady_clock::now();
      const suite::Measurement m = runner.Measure(kernel, config);
      const auto stop = std::chrono::steady_clock::now();
      Require(m.stats.cycles > 0, "amdmb_perf: probe launch ran 0 cycles");
      return static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
              .count());
    };

    for (unsigned i = 0; i < warmup; ++i) once();

    std::vector<double> group_medians;
    std::vector<double> all_samples;
    for (unsigned g = 0; g < groups; ++g) {
      std::vector<double> group;
      for (unsigned s = 0; s < samples; ++s) {
        group.push_back(once());
        all_samples.push_back(group.back());
      }
      group_medians.push_back(Median(std::move(group)));
    }

    const double median_ns = Median(group_medians);
    const double p95_ns = Percentile(all_samples, 95.0);
    const double points_per_second =
        median_ns > 0.0 ? 1e9 / median_ns : 0.0;

    std::ostringstream json;
    json << "{\n"
         << "  \"schema_version\": 1,\n"
         << "  \"benchmark\": \"sim_point_throughput\",\n"
         << "  \"suite_version\": \"" << report::JsonEscape(SuiteVersion())
         << "\",\n"
         << "  \"probe\": \"alu_fetch ratio=1 4870 pixel 256x256\",\n"
         << "  \"warmup\": " << warmup << ",\n"
         << "  \"groups\": " << groups << ",\n"
         << "  \"samples_per_group\": " << samples << ",\n"
         << "  \"median_ns\": " << report::JsonNumber(median_ns) << ",\n"
         << "  \"p95_ns\": " << report::JsonNumber(p95_ns) << ",\n"
         << "  \"points_per_second\": "
         << report::JsonNumber(points_per_second) << "\n"
         << "}\n";

    if (out_file == "-") {
      std::cout << json.str();
      return 0;
    }
    std::filesystem::path path;
    if (!out_file.empty()) {
      path = out_file;
    } else {
      const env::Options& options = env::Get();
      path = options.json_dir ? std::filesystem::path(*options.json_dir)
                              : std::filesystem::path(".");
      path /= "BENCH_PERF.json";
    }
    if (path.has_parent_path()) {
      std::filesystem::create_directories(path.parent_path());
    }
    std::ofstream out(path);
    Require(out.good(), "amdmb_perf: cannot open " + path.string());
    out << json.str();
    std::cerr << "amdmb_perf: median " << report::JsonNumber(median_ns)
              << " ns/point, p95 " << report::JsonNumber(p95_ns)
              << " ns, " << report::JsonNumber(points_per_second)
              << " points/s -> " << path.string() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "amdmb_perf: " << e.what() << "\n";
    return 1;
  }
}
