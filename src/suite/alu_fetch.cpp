#include "suite/alu_fetch.hpp"

#include "common/status.hpp"
#include "common/table.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

AluFetchResult RunAluFetch(const Runner& runner, ShaderMode mode,
                           DataType type, const AluFetchConfig& config) {
  Require(config.ratio_step > 0.0 && config.ratio_min > 0.0 &&
              config.ratio_max >= config.ratio_min,
          "AluFetch: invalid ratio sweep");
  sim::LaunchConfig launch;
  launch.domain = config.domain;
  launch.mode = mode;
  launch.block = config.block;
  launch.repetitions = config.repetitions;
  launch.profile = config.exec.profile;

  // Compute mode cannot write color buffers (Sec. IV-C).
  const WritePath write = mode == ShaderMode::kCompute ? WritePath::kGlobal
                                                       : config.write_path;

  std::vector<double> ratios;
  for (double ratio = config.ratio_min; ratio <= config.ratio_max + 1e-9;
       ratio += config.ratio_step) {
    ratios.push_back(ratio);
  }
  const auto label_of = [&](std::size_t i) {
    return "alufetch_r" + FormatDouble(ratios[i], 2);
  };

  auto sweep = Sweep(
      ratios.size(), [&](std::size_t i) { return ratios[i]; }, label_of,
      [&](std::size_t i, unsigned attempt) {
        GenericSpec spec;
        spec.inputs = config.inputs;
        spec.outputs = config.outputs;
        spec.alu_ops = AluOpsForRatio(ratios[i], config.inputs);
        spec.type = type;
        spec.read_path = config.read_path;
        spec.write_path = write;
        spec.name = label_of(i);
        return AluFetchPoint{ratios[i],
                             runner.Measure(GenerateGeneric(spec), launch,
                                            {spec.name, attempt})};
      },
      config.exec);

  std::vector<adapt::Sample> samples;
  samples.reserve(sweep.points.size());
  for (const AluFetchPoint& point : sweep.points) {
    samples.push_back(
        {point.ratio, std::string(sim::ToString(point.m.stats.bottleneck))});
  }
  std::optional<double> crossover;
  if (const auto t = adapt::FirstTransitionTo(
          samples, std::string(sim::ToString(sim::Bottleneck::kAlu)))) {
    crossover = t->upper_x;
  }
  return {std::move(sweep), crossover};
}

std::vector<report::Finding> Findings(const AluFetchResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings;
  if (result.points.empty()) return findings;
  findings.push_back({report::FindingKind::kCrossover, curve,
                      "alu_bound_crossover", result.crossover, "ratio", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "fetch_bound_flat_seconds",
                      result.points.front().m.seconds, "s", ""});
  findings.push_back({report::FindingKind::kPlateau, curve,
                      "max_ratio_seconds", result.points.back().m.seconds,
                      "s", ""});
  if (result.adaptive.has_value()) {
    // Adaptive-only: dense documents must stay byte-identical.
    const auto extra =
        adapt::AdaptiveFindings(*result.adaptive, curve, "ratio");
    findings.insert(findings.end(), extra.begin(), extra.end());
  }
  return findings;
}

}  // namespace amdmb::suite
