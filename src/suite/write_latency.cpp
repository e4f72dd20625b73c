#include "suite/write_latency.hpp"

#include "common/status.hpp"
#include "suite/kernelgen.hpp"

namespace amdmb::suite {

WriteLatencyResult RunWriteLatency(const Runner& runner, ShaderMode mode,
                                   DataType type,
                                   const WriteLatencyConfig& config) {
  Require(config.min_outputs >= 1 &&
              config.max_outputs >= config.min_outputs,
          "WriteLatency: invalid output sweep");
  Require(config.max_outputs <= config.inputs,
          "WriteLatency: the paper keeps outputs below the input size so "
          "GPR usage stays pinned by the inputs");
  sim::LaunchConfig launch;
  launch.domain = config.domain;
  launch.mode = mode;
  launch.block = config.block;
  launch.repetitions = config.repetitions;
  launch.profile = config.exec.profile;
  const WritePath write =
      mode == ShaderMode::kCompute ? WritePath::kGlobal : config.write_path;

  const auto outputs_of = [&](std::size_t i) {
    return config.min_outputs + static_cast<unsigned>(i);
  };
  const auto label_of = [&](std::size_t i) {
    return "writelat_out" + std::to_string(outputs_of(i));
  };
  auto sweep = Sweep(
      config.max_outputs - config.min_outputs + 1,
      [&](std::size_t i) { return static_cast<double>(outputs_of(i)); },
      label_of,
      [&](std::size_t i, unsigned attempt) {
        GenericSpec spec;
        spec.inputs = config.inputs;
        spec.outputs = outputs_of(i);
        spec.alu_ops = config.alu_ops;
        spec.type = type;
        spec.read_path = ReadPath::kTexture;
        spec.write_path = write;
        spec.name = label_of(i);
        return WriteLatencyPoint{spec.outputs,
                                 runner.Measure(GenerateGeneric(spec), launch,
                                                {spec.name, attempt})};
      },
      config.exec);

  std::vector<double> xs;
  std::vector<double> ys;
  for (const WriteLatencyPoint& point : sweep.points) {
    xs.push_back(point.outputs);
    ys.push_back(point.m.seconds);
  }
  return {std::move(sweep), FitLine(xs, ys)};
}

std::vector<report::Finding> Findings(const WriteLatencyResult& result,
                                      const std::string& curve) {
  std::vector<report::Finding> findings{
      {report::FindingKind::kSlope, curve, "seconds_per_output",
       result.fit.slope, "s/output", ""},
      {report::FindingKind::kRatio, curve, "fit_r2", result.fit.r2, "", ""}};
  if (result.adaptive.has_value()) {
    // Adaptive-only: dense documents must stay byte-identical.
    const auto extra =
        adapt::AdaptiveFindings(*result.adaptive, curve, "outputs");
    findings.insert(findings.end(), extra.begin(), extra.end());
  }
  return findings;
}

}  // namespace amdmb::suite
