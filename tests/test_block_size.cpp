// Tests for the block-size explorer extension.
#include <gtest/gtest.h>

#include "common/status.hpp"
#include "suite/block_size.hpp"

namespace amdmb::suite {
namespace {

TEST(BlockShapesTest, EnumeratesAllRectangles) {
  const auto shapes = WavefrontBlockShapes(64);
  ASSERT_EQ(shapes.size(), 7u);
  EXPECT_EQ(shapes.front(), (BlockShape{64, 1}));
  EXPECT_EQ(shapes.back(), (BlockShape{1, 64}));
  for (const BlockShape& s : shapes) EXPECT_EQ(s.ThreadCount(), 64u);
  EXPECT_THROW(WavefrontBlockShapes(48), ConfigError);
}

TEST(BlockExplorerTest, FindsTwoDimensionalOptimum) {
  Runner runner(MakeRV770());
  BlockSizeConfig config;
  config.domain = Domain{256, 256};
  const BlockSizeResult r = RunBlockSizeExplorer(runner, config);
  ASSERT_EQ(r.points.size(), 7u);
  // The paper's headline: the naive 64x1 shape is not optimal.
  EXPECT_GT(r.naive_penalty, 1.2);
  EXPECT_GT(r.best.y, 1u);
  EXPECT_LT(r.best.y, 64u);  // Fully vertical is as bad as horizontal.
  // Best really is the minimum of the sweep.
  for (const BlockSizePoint& p : r.points) {
    EXPECT_GE(p.m.seconds, r.best_seconds * 0.999);
  }
}

TEST(BlockExplorerTest, SquareishShapesBeatExtremes) {
  Runner runner(MakeRV870());
  BlockSizeConfig config;
  config.domain = Domain{256, 256};
  const BlockSizeResult r = RunBlockSizeExplorer(runner, config);
  auto seconds_of = [&](BlockShape shape) {
    for (const BlockSizePoint& p : r.points) {
      if (p.block == shape) return p.m.seconds;
    }
    throw SimError("shape missing from sweep");
  };
  EXPECT_LT(seconds_of({8, 8}), seconds_of({64, 1}));
  EXPECT_LT(seconds_of({8, 8}), seconds_of({1, 64}));
}

TEST(BlockExplorerTest, RejectsRv670) {
  Runner runner(MakeRV670());
  EXPECT_THROW(RunBlockSizeExplorer(runner, {}), ConfigError);
}

TEST(BlockExplorerTest, FigureHasComputeCapableCurves) {
  BlockSizeConfig config;
  config.domain = Domain{256, 256};
  std::size_t curves = 0;
  for (const GpuArch& arch : AllArchs()) {
    if (!arch.supports_compute) continue;
    ++curves;
    Runner runner(arch);
    const BlockSizeResult r = RunBlockSizeExplorer(runner, config);
    ASSERT_EQ(r.points.size(), 7u) << arch.name;
    EXPECT_EQ(r.report.points.front().label, "block_64x1");
    EXPECT_EQ(r.report.points.back().label, "block_1x64");
  }
  EXPECT_EQ(curves, 2u);  // RV770 + RV870.
}

}  // namespace
}  // namespace amdmb::suite
