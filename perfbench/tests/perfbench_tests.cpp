// Tests of the benchmark's own machinery: seeded generators, the
// open-loop sender's latency accounting, span self-time arithmetic, and
// the version-masked document digest.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <thread>

#include "documents.hpp"
#include "generators.hpp"
#include "open_loop.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

TEST(Generators, FigureOrderIsAPureFunctionOfTheSeed) {
  const std::vector<std::string> slugs = {"a", "b", "c", "d", "e", "f"};
  EXPECT_EQ(FigureOrder(slugs, 7), FigureOrder(slugs, 7));
  EXPECT_NE(FigureOrder(slugs, 7), FigureOrder(slugs, 8));
  std::vector<std::string> sorted = FigureOrder(slugs, 7);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, slugs);
}

TEST(Generators, KernelStreamIsPureDistinctAndBalanced) {
  const auto stream = KernelStream(3, kMaxBlockPairs);
  EXPECT_EQ(stream, KernelStream(3, kMaxBlockPairs));
  EXPECT_NE(stream, KernelStream(4, kMaxBlockPairs));
  EXPECT_EQ(KernelStream(3, 2),
            std::vector<AluKernelSpec>(stream.begin(),
                                       stream.begin() + 4 * kStrata));
  std::set<std::string> names;
  for (const AluKernelSpec& k : stream) names.insert(k.Name());
  EXPECT_EQ(names.size(), stream.size());
  // Every pair of blocks holds each stratum twice with ratios summing to
  // kMinRatio + kMaxRatio, whatever the seed.
  for (std::size_t p = 0; p < kMaxBlockPairs; ++p) {
    std::map<std::string, unsigned> ratio_sum;
    for (std::size_t i = 0; i < 2 * kStrata; ++i) {
      const AluKernelSpec& k = stream[p * 2 * kStrata + i];
      EXPECT_GE(k.inputs, kMinInputs);
      EXPECT_LE(k.inputs, kMaxInputs);
      AluKernelSpec stratum = k;
      stratum.ratio = 0;
      ratio_sum[stratum.Name()] += k.ratio;
    }
    EXPECT_EQ(ratio_sum.size(), kStrata);
    for (const auto& [stratum, sum] : ratio_sum) {
      EXPECT_EQ(sum, kMinRatio + kMaxRatio) << stratum;
    }
  }
}

TEST(Generators, KernelPoolCoversEveryStreamKernel) {
  std::set<std::string> pool;
  for (const AluKernelSpec& k : KernelPool()) pool.insert(k.Name());
  for (const std::uint64_t seed : {1u, 2u, 99u}) {
    for (const AluKernelSpec& k : KernelStream(seed, kMaxBlockPairs)) {
      EXPECT_TRUE(pool.count(k.Name())) << k.Name();
    }
  }
}

TEST(Generators, ServeScheduleIsPureWithTheSameMixEveryRound) {
  ServeMix mix;
  mix.figures = {"fig_7", "fig_11"};
  mix.rounds = 8;
  mix.adaptive_per_figure = 2;
  mix.characterize_per_round = 3;
  mix.stats_per_round = 1;
  mix.seconds = 4.0;
  const auto plan = ServeSchedule(mix, 5);
  const auto again = ServeSchedule(mix, 5);
  ASSERT_EQ(plan.size(), 8u * (2 + 3 + 1));
  ASSERT_EQ(again.size(), plan.size());
  std::map<std::string, unsigned> adaptive;
  std::set<std::string> kernels;
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(plan[i].due_s, again[i].due_s);
    EXPECT_EQ(plan[i].kind, again[i].kind);
    EXPECT_EQ(plan[i].figure, again[i].figure);
    EXPECT_EQ(plan[i].adaptive, again[i].adaptive);
    EXPECT_EQ(plan[i].kernel, again[i].kernel);
    if (i > 0) {
      EXPECT_LE(plan[i - 1].due_s, plan[i].due_s);
    }
    // Request i belongs to round i / 6 and arrives inside its window.
    const double window = mix.seconds / mix.rounds;
    EXPECT_GE(plan[i].due_s, (i / 6) * window);
    EXPECT_LT(plan[i].due_s, (i / 6 + 1) * window);
    if (plan[i].adaptive) ++adaptive[plan[i].figure];
    if (plan[i].kind == RequestKind::kCharacterize) {
      kernels.insert(plan[i].kernel.Name());
    }
  }
  for (std::size_t round = 0; round < mix.rounds; ++round) {
    std::map<RequestKind, unsigned> kinds;
    for (std::size_t i = round * 6; i < round * 6 + 6; ++i) {
      ++kinds[plan[i].kind];
    }
    EXPECT_EQ(kinds[RequestKind::kSubmit], 2u);
    EXPECT_EQ(kinds[RequestKind::kCharacterize], 3u);
    EXPECT_EQ(kinds[RequestKind::kStats], 1u);
  }
  EXPECT_EQ(adaptive["fig_7"], 2u);
  EXPECT_EQ(adaptive["fig_11"], 2u);
  EXPECT_EQ(kernels.size(), 24u);
  const auto other = ServeSchedule(mix, 6);
  EXPECT_NE(other.front().due_s, plan.front().due_s);
}

TEST(OpenLoop, LatencyIsMeasuredFromTheDueTimeBehindAStalledServer) {
  // A fake server that stalls on its first request and answers the rest
  // at once. With one connection every request due during the stall is
  // sent late, and its latency must include that wait.
  constexpr double kStallS = 0.3;
  const std::vector<double> due = {0.0, 0.05, 0.10, 0.15, 0.5};
  const auto stalled_server = [&](std::size_t index, unsigned,
                                  RequestTiming& t) {
    if (index == 0) {
      std::this_thread::sleep_for(std::chrono::duration<double>(kStallS));
    }
    t.done = Clock::now();
    t.completed = true;
  };
  const auto timings = RunOpenLoop(due, 1, stalled_server);
  ASSERT_EQ(timings.size(), due.size());
  EXPECT_GE(timings[0].LatencySeconds(), kStallS);
  for (std::size_t i = 1; i < 4; ++i) {
    const double behind = kStallS - due[i];
    EXPECT_GE(timings[i].LatencySeconds(), behind) << i;
    EXPECT_GE(timings[i].LateSeconds(), behind) << i;
    // The service time alone is near zero: a send-time clock would hide
    // the stall.
    EXPECT_LT(std::chrono::duration<double>(timings[i].done -
                                            timings[i].sent)
                  .count(),
              0.05);
  }
  // Due after the stall cleared: on time.
  EXPECT_LT(timings[4].LateSeconds(), 0.1);
  EXPECT_LT(timings[4].LatencySeconds(), 0.1);
}

TEST(OpenLoop, AThrowingSenderIsAFailedRequestNotACrash) {
  const auto timings =
      RunOpenLoop({0.0, 0.0}, 2, [](std::size_t index, unsigned,
                                    RequestTiming& t) {
        if (index == 1) throw std::runtime_error("connection reset");
        t.completed = true;
        t.done = Clock::now();
      });
  EXPECT_TRUE(timings[0].completed);
  EXPECT_FALSE(timings[1].completed);
  EXPECT_EQ(timings[1].detail, "connection reset");
  EXPECT_GE(timings[1].done, timings[1].sent);
}

Span At(std::string name, std::int64_t start, std::int64_t end, int parent) {
  return {std::move(name), start, end, parent, 0};
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren) {
  const std::vector<Span> spans = {
      At("root", 0, 100, -1),
      At("a", 10, 30, 0),   // Overlaps b: the union counts once.
      At("b", 20, 50, 0),
      At("c", 90, 120, 0),  // Clipped to the parent's end.
      At("leaf", 12, 18, 1),
  };
  const std::vector<std::int64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 100 - (40 + 10));
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 6);
}

TEST(Spans, RecorderNestsAndTotalsByName) {
  SpanRecorder recorder;
  {
    const ScopedSpan outer(recorder, "outer");
    { const ScopedSpan inner(recorder, "inner", 7); }
    { const ScopedSpan inner(recorder, "inner", 8); }
  }
  const auto& spans = recorder.Spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[2].id, 8u);
  const auto totals = recorder.Totals();
  EXPECT_EQ(totals.at("inner").count, 2u);
  EXPECT_EQ(totals.at("outer").self_ns,
            spans[0].Duration() - spans[1].Duration() - spans[2].Duration());

  SpanRecorder off(false);
  { const ScopedSpan s(off, "ignored"); }
  EXPECT_TRUE(off.Spans().empty());
}

TEST(Documents, DigestMasksOnlyTheSuiteVersion) {
  const std::string a = "{\"meta\": {\"suite_version\": \"v1-3-gabc\", "
                        "\"threads\": 2}}";
  const std::string b = "{\"meta\": {\"suite_version\": \"unknown\", "
                        "\"threads\": 2}}";
  const std::string c = "{\"meta\": {\"suite_version\": \"unknown\", "
                        "\"threads\": 1}}";
  EXPECT_EQ(DocumentDigest(a), DocumentDigest(b));
  EXPECT_NE(DocumentDigest(b), DocumentDigest(c));

  DigestTable reference = {{"fig_7", DocumentDigest(a)}};
  Gate gate(reference);
  EXPECT_TRUE(gate.Check("fig_7", b));
  EXPECT_FALSE(gate.Check("fig_7", c));
  EXPECT_FALSE(gate.Check("fig_8", a));
  EXPECT_TRUE(gate.Same("served", a, a));
  EXPECT_FALSE(gate.Same("served", a, b));
  EXPECT_EQ(gate.Checked(), 5u);
  EXPECT_EQ(gate.Failed(), 3u);
}

}  // namespace
}  // namespace perfbench
