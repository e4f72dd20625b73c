// Golden documents for the sweep path: every registry figure, built at
// quick scale once densely and once with default adapt::Settings, must
// reproduce the repository benchmark's committed reference digest
// (perfbench/reference/figures.txt) — the whole BENCH json byte for
// byte, suite_version masked. The digest code is the benchmark's own
// (perfbench/src/documents.cpp), so the two gates cannot drift apart.
//
// GoldenWarmCache repeats the registry in one process against the shared
// kernel cache, so later documents come from remembered launches.
//
// Documents record AMDMB_THREADS and the AMDMB_* knobs in their meta
// block, so main() pins the environment the reference was built under
// (no knobs, two sweep threads) before anything reads it.
#include <gtest/gtest.h>

#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

#include "adapt/refiner.hpp"
#include "documents.hpp"
#include "exec/kernel_cache.hpp"
#include "report/json_sink.hpp"
#include "suite/figures.hpp"

extern char** environ;

namespace amdmb {
namespace {

struct GoldenCase {
  std::string slug;
  bool adaptive = false;
};

void PrintTo(const GoldenCase& golden, std::ostream* os) {
  *os << golden.slug << (golden.adaptive ? " adaptive" : " dense");
}

std::vector<GoldenCase> RegistryCases() {
  std::vector<GoldenCase> cases;
  for (const suite::figures::FigureDef& def : suite::figures::Registry()) {
    cases.push_back({def.slug, false});
    cases.push_back({def.slug, true});
  }
  return cases;
}

const perfbench::DigestTable& Reference() {
  static const perfbench::DigestTable table =
      perfbench::LoadDigests(AMDMB_REFERENCE_DIR "/figures.txt");
  return table;
}

/// Builds one registry document and checks its digest against the
/// reference.
void ExpectReferenceDigest(const GoldenCase& golden) {
  const std::string key = perfbench::FigureKey(golden.slug, golden.adaptive);
  const auto expected = Reference().find(key);
  ASSERT_NE(expected, Reference().end()) << "no reference digest for " << key;

  const suite::figures::FigureDef* def = suite::figures::Find(golden.slug);
  ASSERT_NE(def, nullptr);
  const adapt::Settings settings;
  suite::figures::RunOptions run;
  run.quick = true;
  if (golden.adaptive) run.adaptive = &settings;
  const std::string json =
      report::BenchJson(suite::figures::Build(*def, run));
  EXPECT_EQ(perfbench::DocumentDigest(json), expected->second) << key;
}

class GoldenTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenTest, BenchJsonMatchesReferenceDigest) {
  ExpectReferenceDigest(GetParam());
}

// Figures re-plot each other's baselines, so a shared kernel cache that
// outlives one figure answers later figures' launches from memory. Two
// rounds over the whole registry without clearing the cache: the second
// is served by remembered launches, and both match the references.
TEST(GoldenWarmCache, EveryDocumentMatchesWhenServedFromRememberedLaunches) {
  const exec::KernelCache& cache = exec::KernelCache::Shared();
  for (const char* round : {"first round", "second round"}) {
    SCOPED_TRACE(round);
    const exec::KernelCacheStats before = cache.Stats();
    for (const GoldenCase& golden : RegistryCases()) {
      ExpectReferenceDigest(golden);
    }
    const exec::KernelCacheStats after = cache.Stats();
    if (std::string_view(round) == "second round") {
      EXPECT_GT(after.launch_hits, before.launch_hits);
      EXPECT_EQ(after.launch_misses, before.launch_misses)
          << "the second round re-simulated a launch";
    }
  }
}

TEST(GoldenReference, CoversExactlyTheRegistry) {
  EXPECT_EQ(Reference().size(), RegistryCases().size());
}

INSTANTIATE_TEST_SUITE_P(
    Registry, GoldenTest, ::testing::ValuesIn(RegistryCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.slug + (info.param.adaptive ? "_adaptive" : "_dense");
    });

/// Clears every inherited AMDMB_* knob and fixes the sweep pool width.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("AMDMB_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("AMDMB_THREADS", "2", 1);
}

}  // namespace
}  // namespace amdmb

int main(int argc, char** argv) {
  amdmb::PinEnvironment();
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
