#include "suite/microbench.hpp"

#include <optional>

#include "compiler/compiler.hpp"
#include "prof/chrome_trace.hpp"
#include "prof/collector.hpp"

namespace amdmb::suite {

Runner::Runner(const GpuArch& arch, exec::KernelCache* cache)
    : gpu_(arch), cache_(cache) {}

Measurement Runner::Measure(const il::Kernel& kernel,
                            const sim::LaunchConfig& config,
                            const MeasureContext& ctx) const {
  const std::string_view point =
      ctx.point.empty() ? std::string_view(kernel.name) : ctx.point;
  // The compile boundary is checked before the cache lookup so the fault
  // schedule never depends on what some other point compiled first.
  cal::CheckInjectedFault(fault::FaultSite::kCompile, point, ctx.attempt);
  const exec::CachedProgram compiled =
      cache_ != nullptr
          ? cache_->Lookup(kernel, gpu_.Arch())
          : exec::CachedProgram{std::make_shared<const isa::Program>(
                                    compiler::Compile(kernel, gpu_.Arch())),
                                {}};
  const isa::Program& program = *compiled.program;
  cal::CheckInjectedFault(fault::FaultSite::kLaunch, point, ctx.attempt);
  cal::CheckInjectedFault(fault::FaultSite::kHang, point, ctx.attempt);
  sim::LaunchConfig bounded = config;
  if (bounded.watchdog_cycles == 0) {
    bounded.watchdog_cycles = sim::DefaultWatchdogCycles();
  }
  // A fresh collector per attempt: counters restart from zero, so the
  // retry layer can never double-count a retried point. It keeps the
  // clause timeline only when a Chrome trace will be written from it.
  std::unique_ptr<prof::Collector> collector;
  std::string trace_dir;
  if (bounded.profile || prof::ProfilingEnabled()) {
    trace_dir = prof::TraceDirectory();
    collector = std::make_unique<prof::Collector>(
        sim::DefaultTraceCapacity(),
        trace_dir.empty() ? prof::Timeline::kDrop : prof::Timeline::kKeep);
  }
  // Launches are remembered next to their program, but never when a
  // collector needs the simulation itself to run.
  const bool memo = cache_ != nullptr && collector == nullptr;
  std::optional<sim::KernelStats> remembered;
  if (memo) remembered = cache_->FindLaunch(compiled.key, gpu_.Arch(), bounded);
  Measurement m;
  m.ska = compiler::Analyze(program, gpu_.Arch());
  if (remembered) {
    m.stats = *remembered;
  } else {
    try {
      m.stats = gpu_.Execute(program, bounded, nullptr, collector.get());
    } catch (const sim::WatchdogTimeout& e) {
      throw cal::CalError(cal::CalResult::kCalTimeout, "launch",
                          std::string(point), ctx.attempt, e.what());
    }
  }
  cal::CheckInjectedFault(fault::FaultSite::kReadback, point, ctx.attempt);
  if (memo && !remembered) {
    cache_->RememberLaunch(compiled.key, gpu_.Arch(), bounded, m.stats);
  }
  m.seconds = m.stats.seconds;
  if (collector != nullptr) {
    prof::Profile profile = collector->Take();
    profile.kernel = program.name;
    profile.point = std::string(point);
    profile.arch = gpu_.Arch().name;
    profile.mode = ToString(bounded.mode);
    profile.type = ToString(program.sig.type);
    profile.attempt = ctx.attempt;
    profile.launch_id = prof::LaunchId(
        compiled.key.empty()
            ? exec::KernelCacheKey(kernel, compiler::OptionsFor(gpu_.Arch()))
            : compiled.key,
        gpu_.Arch(), bounded);
    // Export before publishing: a parallel sweep writes each point's
    // trace from its own worker, and the launch-qualified file name
    // keeps concurrent launches from colliding.
    if (!trace_dir.empty()) prof::WriteChromeTrace(profile, trace_dir);
    m.profile = std::make_shared<const prof::Profile>(std::move(profile));
  }
  return m;
}

std::string CurveKey::Name() const {
  // "Radeon HD 4870" -> "4870".
  std::string card = arch.card;
  if (const auto pos = card.rfind(' '); pos != std::string::npos) {
    card = card.substr(pos + 1);
  }
  return card + " " + std::string(ToString(mode)) + " " +
         std::string(ToString(type));
}

std::vector<CurveKey> PaperCurves(bool include_pixel, bool include_compute,
                                  const std::vector<GpuArch>& archs) {
  const std::vector<GpuArch> all = archs.empty() ? AllArchs() : archs;
  std::vector<CurveKey> curves;
  for (const GpuArch& arch : all) {
    for (const ShaderMode mode : {ShaderMode::kPixel, ShaderMode::kCompute}) {
      if (mode == ShaderMode::kPixel && !include_pixel) continue;
      if (mode == ShaderMode::kCompute &&
          (!include_compute || !arch.supports_compute)) {
        continue;
      }
      for (const DataType type : {DataType::kFloat, DataType::kFloat4}) {
        curves.push_back(CurveKey{arch, mode, type});
      }
    }
  }
  return curves;
}

}  // namespace amdmb::suite
