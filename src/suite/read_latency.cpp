#include "suite/read_latency.hpp"

#include "common/status.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

ReadLatencyResult RunReadLatency(const Runner& runner, ShaderMode mode,
                                 DataType type,
                                 const ReadLatencyConfig& config) {
  Require(config.min_inputs >= 2 && config.max_inputs >= config.min_inputs,
          "ReadLatency: invalid input sweep");
  sim::LaunchConfig launch;
  launch.domain = config.domain;
  launch.mode = mode;
  launch.block = config.block;
  launch.repetitions = config.repetitions;
  launch.profile = config.exec.profile;
  const WritePath write =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : WritePath::kStream;

  const auto inputs_of = [&](std::size_t i) {
    return config.min_inputs + static_cast<unsigned>(i);
  };
  const auto label_of = [&](std::size_t i) {
    return "readlat_in" + std::to_string(inputs_of(i));
  };
  auto sweep = Sweep(
      config.max_inputs - config.min_inputs + 1,
      [&](std::size_t i) { return static_cast<double>(inputs_of(i)); },
      label_of,
      [&](std::size_t i, unsigned attempt) {
        GenericSpec spec;
        spec.inputs = inputs_of(i);
        spec.outputs = 1;
        // Sec. III-B: ALU ops fixed to inputs - 1 so the fetch stays the
        // bottleneck.
        spec.alu_ops = spec.inputs - 1;
        spec.type = type;
        spec.read_path = config.read_path;
        spec.write_path = write;
        spec.name = label_of(i);
        return ReadLatencyPoint{spec.inputs,
                                runner.Measure(GenerateGeneric(spec), launch,
                                               {spec.name, attempt})};
      },
      config.exec);

  std::vector<double> xs;
  std::vector<double> ys;
  for (const ReadLatencyPoint& point : sweep.points) {
    xs.push_back(point.inputs);
    ys.push_back(point.m.seconds);
  }
  return {std::move(sweep), FitLine(xs, ys)};
}

std::vector<report::Finding> Findings(const ReadLatencyResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings{
      {report::FindingKind::kSlope, curve, "seconds_per_input",
       result.fit.slope, "s/input", ""},
      {report::FindingKind::kRatio, curve, "fit_r2", result.fit.r2, "", ""}};
  if (result.adaptive.has_value()) {
    // Adaptive-only: dense documents must stay byte-identical.
    const auto extra =
        adapt::AdaptiveFindings(*result.adaptive, curve, "inputs");
    findings.insert(findings.end(), extra.begin(), extra.end());
  }
  return findings;
}

}  // namespace amdmb::suite
