#include "adapt/frontier.hpp"

#include <algorithm>
#include <numeric>
#include <optional>
#include <utility>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "common/status.hpp"
#include "sim/gpu.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"

namespace amdmb::adapt {

namespace {

/// One quadrant under refinement: inclusive corner node bounds.
struct Cell {
  std::size_t x0 = 0;
  std::size_t y0 = 0;
  std::size_t x1 = 0;
  std::size_t y1 = 0;
};

}  // namespace

FrontierResult RefineGrid(
    std::size_t nx, std::size_t ny,
    const std::function<double(std::size_t)>& x_of,
    const std::function<double(std::size_t)>& y_of,
    const std::function<std::string(std::size_t ix, std::size_t iy,
                                    unsigned attempt)>& measure,
    const FrontierConfig& config) {
  Require(nx >= 2 && ny >= 2, "RefineGrid: grid needs at least 2x2 nodes");
  FrontierResult result;
  report::Frontier& frontier = result.frontier;
  for (std::size_t i = 0; i < nx; ++i) frontier.xs.push_back(x_of(i));
  for (std::size_t i = 0; i < ny; ++i) frontier.ys.push_back(y_of(i));
  const std::size_t total = nx * ny;
  frontier.cells.assign(total, "");
  frontier.measured.assign(total, false);
  frontier.points_dense = total;

  const exec::SweepExecutor& executor =
      exec::ExecutorOrDefault(config.executor);
  std::vector<std::optional<std::string>> labels(total);
  std::vector<char> attempted(total, 0);
  std::size_t spent = 0;
  std::size_t wave = 0;

  // Measures one sorted, deduplicated batch of node indices (iy * nx +
  // ix). Returns false once the budget refuses further points.
  const auto run_wave = [&](std::vector<std::size_t> nodes) {
    if (config.budget > 0) {
      const std::uint64_t left =
          config.budget > spent ? config.budget - spent : 0;
      if (nodes.size() > left) nodes.resize(left);
    }
    if (nodes.empty()) return false;
    exec::RunReport wave_report;
    auto slots = executor.MapWithPolicy(
        nodes.size(),
        [&](std::size_t k, unsigned attempt) {
          const std::size_t node = nodes[k];
          return measure(node % nx, node / nx, attempt);
        },
        config.retry, &wave_report, config.cancel);
    for (std::size_t k = 0; k < nodes.size(); ++k) {
      attempted[nodes[k]] = 1;
      if (slots[k].has_value()) labels[nodes[k]] = std::move(*slots[k]);
    }
    for (exec::PointOutcome& point : wave_report.points) {
      const std::size_t node = nodes[point.index];
      point.index = node;
      point.label = "node_x" + std::to_string(node % nx) + "_y" +
                    std::to_string(node / nx);
    }
    result.report.points.insert(
        result.report.points.end(),
        std::make_move_iterator(wave_report.points.begin()),
        std::make_move_iterator(wave_report.points.end()));
    spent += nodes.size();
    const WaveInfo info{wave, nodes.size(), spent, total};
    ++wave;
    if (config.on_wave) config.on_wave(info);
    return true;
  };

  if (config.dense) {
    std::vector<std::size_t> all(total);
    std::iota(all.begin(), all.end(), 0);
    run_wave(std::move(all));
  } else {
    std::vector<Cell> active{{0, 0, nx - 1, ny - 1}};
    while (!active.empty()) {
      // One wave per refinement level: every corner any active cell
      // still needs, sorted and deduplicated across cells.
      std::vector<std::size_t> need;
      for (const Cell& c : active) {
        for (const std::size_t node :
             {c.y0 * nx + c.x0, c.y0 * nx + c.x1, c.y1 * nx + c.x0,
              c.y1 * nx + c.x1}) {
          if (!attempted[node]) need.push_back(node);
        }
      }
      std::sort(need.begin(), need.end());
      need.erase(std::unique(need.begin(), need.end()), need.end());
      const bool exhausted = !need.empty() && !run_wave(std::move(need));

      std::vector<Cell> next;
      for (const Cell& c : active) {
        const std::optional<std::string>* corners[4] = {
            &labels[c.y0 * nx + c.x0], &labels[c.y0 * nx + c.x1],
            &labels[c.y1 * nx + c.x0], &labels[c.y1 * nx + c.x1]};
        const bool complete = corners[0]->has_value() &&
                              corners[1]->has_value() &&
                              corners[2]->has_value() &&
                              corners[3]->has_value();
        if (complete && **corners[0] == **corners[1] &&
            **corners[0] == **corners[2] && **corners[0] == **corners[3]) {
          // Uniform quadrant: fill its interior from the corner label
          // (measured nodes keep their own values).
          for (std::size_t iy = c.y0; iy <= c.y1; ++iy) {
            for (std::size_t ix = c.x0; ix <= c.x1; ++ix) {
              if (!labels[iy * nx + ix].has_value()) {
                labels[iy * nx + ix] = **corners[0];
              }
            }
          }
          continue;
        }
        if (exhausted) continue;  // Budget spent; stop splitting.
        const std::size_t dx = c.x1 - c.x0;
        const std::size_t dy = c.y1 - c.y0;
        if (dx <= 1 && dy <= 1) continue;  // Minimal cell: resolved.
        const std::size_t mx = c.x0 + dx / 2;
        const std::size_t my = c.y0 + dy / 2;
        if (dx > 1 && dy > 1) {
          next.push_back({c.x0, c.y0, mx, my});
          next.push_back({mx, c.y0, c.x1, my});
          next.push_back({c.x0, my, mx, c.y1});
          next.push_back({mx, my, c.x1, c.y1});
        } else if (dx > 1) {
          next.push_back({c.x0, c.y0, mx, c.y1});
          next.push_back({mx, c.y0, c.x1, c.y1});
        } else {
          next.push_back({c.x0, c.y0, c.x1, my});
          next.push_back({c.x0, my, c.x1, c.y1});
        }
      }
      active = std::move(next);
      if (exhausted) break;
    }
  }

  frontier.points_measured = spent;
  for (std::size_t i = 0; i < total; ++i) {
    if (labels[i].has_value()) frontier.cells[i] = *labels[i];
    frontier.measured[i] = attempted[i] && labels[i].has_value();
  }
  return result;
}

report::Figure BuildFrontierFigure(const FrontierConfig& config) {
  Require(config.nx >= 2 && config.ratio_max > config.ratio_min,
          "BuildFrontierFigure: invalid ratio axis");
  // Every node must be generatable. The binding constraint is the
  // ladder kernel's first ALU segment: at step rows it gets alu_ops /
  // (step + 1) of the budget and must fold inputs - space * step
  // initial fetches (kernelgen PlanUsage); later segments each fold
  // `space` fetches. Validate the cheapest column (ratio_min) up front
  // so an infeasible grid fails with a named knob, not mid-sweep.
  const unsigned min_ops =
      suite::AluOpsForRatio(config.ratio_min, config.inputs);
  for (std::size_t iy = 0; iy < config.ny; ++iy) {
    const unsigned segments = static_cast<unsigned>(iy) + 1;
    const unsigned ladder = config.space * static_cast<unsigned>(iy);
    Require(config.inputs > ladder + 1,
            "BuildFrontierFigure: ny too large — space * step must leave "
            "at least two initial inputs at step " + std::to_string(iy));
    const unsigned per_segment = min_ops / segments;
    Require(per_segment >= config.inputs - ladder &&
                per_segment >= config.space + 1,
            "BuildFrontierFigure: ratio_min too low for the register "
            "ladder at step " + std::to_string(iy) +
            " (raise ratio_min or lower ny)");
  }
  const GpuArch arch = MakeRV770();
  const suite::Runner runner(arch);
  sim::LaunchConfig launch;
  launch.domain = config.domain;
  launch.mode = ShaderMode::kPixel;
  launch.repetitions = config.repetitions;

  const auto ratio_of = [&config](std::size_t ix) {
    return config.ratio_min + (config.ratio_max - config.ratio_min) *
                                  static_cast<double>(ix) /
                                  static_cast<double>(config.nx - 1);
  };
  const auto step_of = [](std::size_t iy) {
    return static_cast<double>(iy);
  };
  const auto measure = [&](std::size_t ix, std::size_t iy,
                           unsigned attempt) {
    suite::RegisterUsageSpec spec;
    spec.inputs = config.inputs;
    spec.space = config.space;
    spec.step = static_cast<unsigned>(iy);
    spec.alu_fetch_ratio = ratio_of(ix);
    spec.name =
        "frontier_x" + std::to_string(ix) + "_y" + std::to_string(iy);
    const suite::Measurement m = runner.Measure(
        suite::GenerateRegisterUsage(spec), launch, {spec.name, attempt});
    return std::string(sim::ToString(m.stats.bottleneck));
  };

  FrontierResult refined = RefineGrid(config.nx, config.ny, ratio_of,
                                      step_of, measure, config);
  refined.frontier.x_label = "ALU:Fetch Ratio";
  refined.frontier.y_label = "Register Ladder Step";

  report::Figure figure(
      "Frontier ALU:Fetch x GPR", "Bottleneck Frontier Map (4870 Pixel)",
      "ALU:Fetch Ratio", "Register Ladder Step",
      "The ALU-bound region should grow toward lower ratios as the "
      "register ladder frees GPRs and occupancy rises (Figs. 7 and 16 "
      "crossed)");

  // The boundary curve: per ladder step, the first ratio classified
  // ALU-bound (rows with no flip contribute no point).
  const std::string alu_label(sim::ToString(sim::Bottleneck::kAlu));
  Series& boundary = figure.set.Get("ALU-bound boundary");
  for (std::size_t iy = 0; iy < config.ny; ++iy) {
    std::vector<Sample> row;
    for (std::size_t ix = 0; ix < config.nx; ++ix) {
      const std::string& label =
          refined.frontier.cells[iy * config.nx + ix];
      if (!label.empty()) row.push_back({ratio_of(ix), label});
    }
    if (const auto t = FirstTransitionTo(row, alu_label)) {
      boundary.Add(t->upper_x, step_of(iy));
      figure.findings.push_back(
          {report::FindingKind::kCrossover, "ALU-bound boundary",
           "row_crossover_step" + std::to_string(iy), t->upper_x, "ratio",
           std::string(ToString(t->kind))});
    }
  }
  figure.findings.push_back(
      {report::FindingKind::kEvent, "ALU-bound boundary", "frontier_points",
       static_cast<double>(refined.frontier.points_measured), "points",
       "of " + std::to_string(refined.frontier.points_dense) +
           " dense nodes"});
  figure.degradations =
      report::DegradationsFrom(refined.report, "ALU-bound boundary");
  figure.frontier = std::move(refined.frontier);
  report::FinalizeMeta(figure);
  // Pinned like kerncap: the map must be byte-identical across thread
  // counts regardless of the host env.
  figure.meta.threads = 1;
  figure.meta.adaptive = !config.dense;
  figure.meta.archs = {"4870"};
  figure.meta.modes = {"Pixel"};
  return figure;
}

}  // namespace amdmb::adapt
