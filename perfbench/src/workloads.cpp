// The pieces the three workloads share: set-up dispatch, point counting,
// trace output, and reference-digest generation.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <thread>

#include "adapt/refiner.hpp"
#include "documents.hpp"
#include "generators.hpp"
#include "kerncap/characterize.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace am = amdmb;
namespace figures = amdmb::suite::figures;

void SetupOnly(const Options& options, const std::function<void()>& ready) {
  if (options.workload == "figures_quick") {
    SetupFigures(options);
    ready();
  } else if (options.workload == "kerncap_alu") {
    SetupKerncap(options);
    ready();
  } else {
    SetupServe(options, ready);
  }
}

std::size_t CountPoints(const am::report::Figure& figure) {
  std::size_t points = 0;
  for (const am::report::Curve& series : figure.set.All()) {
    points += series.Points().size();
  }
  return points;
}

void WriteTrace(const Options& options, const SpanRecorder& spans) {
  std::filesystem::create_directories(options.scratch_dir);
  const std::string stem =
      options.workload + "-seed" + std::to_string(options.seed);
  std::ofstream(options.scratch_dir / (stem + ".trace.json"))
      << spans.ChromeTrace();
  std::ofstream summary(options.scratch_dir / (stem + ".spans.txt"));
  summary << "# span count total_ms self_ms\n";
  for (const auto& [name, t] : spans.Totals()) {
    summary << name << ' ' << t.count << ' ' << t.total_ns / 1e6 << ' '
            << t.self_ns / 1e6 << '\n';
  }
}

void WriteReference(const std::filesystem::path& dir) {
  std::filesystem::create_directories(dir);
  const am::exec::SweepExecutor wide(
      std::max(1u, std::thread::hardware_concurrency()));
  DigestTable figure_digests;
  for (const figures::FigureDef& def : figures::Registry()) {
    for (const bool adaptive : {false, true}) {
      figures::RunOptions run;
      run.quick = true;
      run.executor = &wide;
      am::adapt::Settings settings = am::adapt::Settings::FromEnv();
      if (adaptive) run.adaptive = &settings;
      figure_digests[FigureKey(def.slug, adaptive)] =
          DocumentDigest(am::report::BenchJson(figures::Build(def, run)));
    }
    std::cerr << "reference: " << def.slug << "\n";
  }
  WriteDigests(dir / "figures.txt", figure_digests);

  DigestTable kernel_digests;
  am::kerncap::CharacterizeOptions characterize;
  characterize.quick = true;
  characterize.executor = &wide;
  for (const AluKernelSpec& spec : KernelPool()) {
    const am::kerncap::AnalyzeResult analyzed = am::kerncap::Analyze(spec.Il());
    am::Require(analyzed.ok(), "reference: kerncap rejects " + spec.Name());
    kernel_digests[spec.Name()] = DocumentDigest(am::report::BenchJson(
        am::kerncap::Characterize(*analyzed.prepared, characterize)));
  }
  WriteDigests(dir / "kernels.txt", kernel_digests);
  std::cerr << "reference: " << figure_digests.size() << " figures, "
            << kernel_digests.size() << " kernels\n";
}

}  // namespace perfbench
