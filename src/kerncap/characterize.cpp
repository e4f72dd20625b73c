#include "kerncap/characterize.hpp"

#include <utility>

#include "common/status.hpp"
#include "report/json_sink.hpp"
#include "sim/gpu.hpp"

namespace amdmb::kerncap {

std::vector<unsigned> SweepDomains(bool quick) {
  if (quick) return {64, 128, 256};
  return {64, 128, 256, 512};
}

std::vector<suite::CurveKey> EligibleCurves(const il::Kernel& kernel) {
  std::vector<suite::CurveKey> curves;
  for (const GpuArch& arch : AllArchs()) {
    curves.push_back({arch, ShaderMode::kPixel, kernel.sig.type});
    // Compute mode cannot write color buffers (Sec. IV-C), and RV670
    // has no compute mode at all — both would throw in the sim, so the
    // curve set is trimmed instead.
    if (arch.supports_compute &&
        kernel.sig.write_path != WritePath::kStream) {
      curves.push_back({arch, ShaderMode::kCompute, kernel.sig.type});
    }
  }
  return curves;
}

std::string FigureId(const Prepared& prepared) {
  return "Kerncap — " + prepared.kernel.name + " " + prepared.hash;
}

std::string Slug(const Prepared& prepared) {
  return report::FigureSlug(FigureId(prepared));
}

suite::Measurement MeasureAt(const Prepared& prepared, const GpuArch& arch,
                             const sim::LaunchConfig& config,
                             const std::string& point_label,
                             unsigned attempt) {
  const suite::Runner runner(arch);
  return runner.Measure(prepared.kernel, config, {point_label, attempt});
}

namespace {

void OperatingPointFindings(report::Figure& figure, const std::string& name,
                            const suite::Measurement& op) {
  figure.findings.push_back({report::FindingKind::kPlateau, name,
                             "operating_point_seconds", op.seconds, "s",
                             ""});
  figure.findings.push_back(
      {report::FindingKind::kEvent, name, "operating_point_bottleneck",
       std::nullopt, "",
       std::string(sim::ToString(op.stats.bottleneck))});
  figure.findings.push_back(
      {report::FindingKind::kEvent, name, "operating_point_attributed",
       std::nullopt, "",
       std::string(sim::ToString(op.profile->attribution.bottleneck))});
}

/// One rung of the domain ladder.
struct RungPoint {
  std::size_t rung = 0;
  suite::Measurement m;
};

void RunCurve(report::Figure& figure, const Prepared& prepared,
              const suite::CurveKey& key,
              const std::vector<unsigned>& domains,
              const CharacterizeOptions& options) {
  const std::string name = key.Name();
  const auto wavefronts_at = [&](std::size_t i) {
    return static_cast<double>(domains[i]) * domains[i] /
           key.arch.wavefront_size;
  };
  const auto label_of = [&](std::size_t i) {
    return "domain_" + std::to_string(domains[i]);
  };
  // Retry is pinned (not RetryPolicy::FromEnv) so documents and the
  // refinement trajectory match across daemon flavors regardless of the
  // host's AMDMB_RETRY. Dense runs never retry, so a failing point's
  // own error reaches the caller.
  exec::RetryPolicy retry;
  if (options.adaptive == nullptr) {
    retry.max_attempts = 1;
    retry.on_exhausted = exec::FailurePolicy::kFailFast;
  }
  // Every launch is profiled below, so `profile` stays false; nothing
  // cancels an analysis.
  const suite::ExecOptions pinned{
      {false, options.executor, retry, nullptr}, options.adaptive};
  const auto sweep = suite::Sweep(
      domains.size(), wavefronts_at, label_of,
      [&](std::size_t i, unsigned attempt) {
        sim::LaunchConfig launch;
        launch.domain = Domain{domains[i], domains[i]};
        launch.mode = key.mode;
        launch.block = BlockShape{64, 1};
        launch.repetitions = suite::kPaperRepetitions;
        launch.watchdog_cycles = options.watchdog_cycles;
        launch.profile = true;
        return RungPoint{
            i, MeasureAt(prepared, key.arch, launch, label_of(i), attempt)};
      },
      pinned);

  Series& series = figure.set.Get(name);
  for (const RungPoint& p : sweep.points) {
    series.Add(wavefronts_at(p.rung), p.m.seconds);
    figure.profiles.push_back(report::MakeProfileEntry(
        name, p.m.profile, sim::ToString(p.m.stats.bottleneck)));
  }
  for (report::Degradation& d : report::DegradationsFrom(sweep.report, name)) {
    figure.degradations.push_back(std::move(d));
  }
  Require(!sweep.points.empty() &&
              sweep.points.back().rung + 1 == domains.size(),
          "kerncap: operating point failed");
  OperatingPointFindings(figure, name, sweep.points.back().m);
  if (sweep.adaptive.has_value()) {
    for (report::Finding& f :
         adapt::AdaptiveFindings(*sweep.adaptive, name, "wavefronts")) {
      figure.findings.push_back(std::move(f));
    }
  }
}

}  // namespace

report::Figure Characterize(const Prepared& prepared,
                            const CharacterizeOptions& options,
                            const suite::figures::CurveCallback& on_curve) {
  report::Figure figure(
      FigureId(prepared), "Kernel Characterization", "Wavefronts",
      "Time in seconds",
      "Submitted kernel: static SKA view per architecture plus a "
      "profiled domain sweep around the operating point.");
  for (const ArchStatic& s : prepared.statics) {
    for (report::Finding& f : StaticFindings(s)) {
      figure.findings.push_back(std::move(f));
    }
  }
  const std::vector<suite::CurveKey> curves =
      EligibleCurves(prepared.kernel);
  const std::vector<unsigned> domains = SweepDomains(options.quick);
  for (std::size_t i = 0; i < curves.size(); ++i) {
    RunCurve(figure, prepared, curves[i], domains, options);
    if (on_curve) on_curve(i, curves.size(), curves[i].Name(), figure);
  }
  report::FinalizeMeta(figure);
  figure.meta.quick = options.quick;
  // Byte-determinism across AMDMB_THREADS and daemon flavors: the two
  // env-dependent meta fields are pinned to the analysis contract, not
  // the process snapshot. Sweep results themselves are bit-identical at
  // any executor width (exec::SweepExecutor::Map's ordering guarantee).
  figure.meta.threads = 1;
  figure.meta.watchdog_cycles = options.watchdog_cycles;
  figure.meta.adaptive = options.adaptive != nullptr;
  return figure;
}

}  // namespace amdmb::kerncap
