// Tests for the centralized AMDMB_* environment handling.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/env.hpp"
#include "common/status.hpp"

namespace amdmb {
namespace {

/// Fake getenv backed by a map; missing names return nullptr like the
/// real thing.
class FakeEnv {
 public:
  FakeEnv(std::initializer_list<std::pair<const std::string, std::string>>
              values)
      : values_(values) {}

  env::Options Parse() const {
    return env::ParseFrom([this](const char* name) -> const char* {
      const auto it = values_.find(name);
      return it == values_.end() ? nullptr : it->second.c_str();
    });
  }

 private:
  std::map<std::string, std::string> values_;
};

TEST(EnvTest, AllKnobsUnsetYieldsDefaults) {
  const env::Options o = FakeEnv({}).Parse();
  EXPECT_FALSE(o.quick);
  EXPECT_FALSE(o.threads.has_value());
  EXPECT_FALSE(o.json_dir.has_value());
  EXPECT_FALSE(o.dump_dir.has_value());
  EXPECT_FALSE(o.faults.has_value());
  EXPECT_FALSE(o.retry.has_value());
  EXPECT_EQ(o.watchdog_cycles, 0u);
}

TEST(EnvTest, ParsesEveryKnob) {
  const env::Options o = FakeEnv({{"AMDMB_QUICK", "1"},
                                  {"AMDMB_THREADS", "8"},
                                  {"AMDMB_JSON_DIR", "/tmp/json"},
                                  {"AMDMB_DUMP_DIR", "/tmp/plots"},
                                  {"AMDMB_FAULTS", "compile:p=0.5:seed=7"},
                                  {"AMDMB_RETRY", "attempts=3"},
                                  {"AMDMB_WATCHDOG", "1000000"}})
                             .Parse();
  EXPECT_TRUE(o.quick);
  EXPECT_EQ(o.threads, 8u);
  EXPECT_EQ(o.json_dir, "/tmp/json");
  EXPECT_EQ(o.dump_dir, "/tmp/plots");
  EXPECT_EQ(o.faults, "compile:p=0.5:seed=7");
  EXPECT_EQ(o.retry, "attempts=3");
  EXPECT_EQ(o.watchdog_cycles, 1000000u);
}

TEST(EnvTest, QuickZeroMeansOff) {
  EXPECT_FALSE(FakeEnv({{"AMDMB_QUICK", "0"}}).Parse().quick);
  EXPECT_TRUE(FakeEnv({{"AMDMB_QUICK", "1"}}).Parse().quick);
  // Historical behaviour: any non-"0" first character enables it.
  EXPECT_TRUE(FakeEnv({{"AMDMB_QUICK", "yes"}}).Parse().quick);
}

TEST(EnvTest, EmptyStringsCountAsUnset) {
  const env::Options o = FakeEnv({{"AMDMB_QUICK", ""},
                                  {"AMDMB_THREADS", ""},
                                  {"AMDMB_JSON_DIR", ""},
                                  {"AMDMB_FAULTS", ""},
                                  {"AMDMB_WATCHDOG", ""},
                                  {"AMDMB_SERVE_INFLIGHT", ""}})
                             .Parse();
  EXPECT_FALSE(o.quick);
  EXPECT_FALSE(o.threads.has_value());
  EXPECT_FALSE(o.json_dir.has_value());
  EXPECT_FALSE(o.faults.has_value());
  EXPECT_EQ(o.watchdog_cycles, 0u);
  EXPECT_FALSE(o.serve_inflight.has_value());
}

TEST(EnvTest, MalformedKnobsThrowNamingTheVariable) {
  try {
    FakeEnv({{"AMDMB_THREADS", "abc"}}).Parse();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("AMDMB_THREADS"),
              std::string::npos);
  }
  try {
    FakeEnv({{"AMDMB_WATCHDOG", "-1"}}).Parse();
    FAIL() << "expected ConfigError";
  } catch (const ConfigError& e) {
    EXPECT_NE(std::string(e.what()).find("AMDMB_WATCHDOG"),
              std::string::npos);
  }
}

TEST(EnvTest, WatchdogRejectsNonNumeric) {
  EXPECT_THROW(env::ParseWatchdogCycles("fast"), ConfigError);
  EXPECT_THROW(env::ParseWatchdogCycles("12x"), ConfigError);
  EXPECT_EQ(env::ParseWatchdogCycles("0"), 0u);
  EXPECT_EQ(env::ParseWatchdogCycles("4000000000"), 4000000000u);
}

TEST(EnvTest, ProfilerKnobsDefaultOff) {
  const env::Options o = FakeEnv({}).Parse();
  EXPECT_FALSE(o.prof);
  EXPECT_FALSE(o.trace_dir.has_value());
  EXPECT_EQ(o.trace_capacity, 1u << 20);
}

TEST(EnvTest, ParsesProfilerKnobs) {
  const env::Options o = FakeEnv({{"AMDMB_PROF", "1"},
                                  {"AMDMB_TRACE_DIR", "/tmp/traces"},
                                  {"AMDMB_TRACE_CAP", "4096"}})
                             .Parse();
  EXPECT_TRUE(o.prof);
  EXPECT_EQ(o.trace_dir, "/tmp/traces");
  EXPECT_EQ(o.trace_capacity, 4096u);
}

TEST(EnvTest, ProfilerKnobsEmptyCountsAsUnset) {
  const env::Options o = FakeEnv({{"AMDMB_PROF", ""},
                                  {"AMDMB_TRACE_DIR", ""},
                                  {"AMDMB_TRACE_CAP", ""}})
                             .Parse();
  EXPECT_FALSE(o.prof);
  EXPECT_FALSE(o.trace_dir.has_value());
  EXPECT_EQ(o.trace_capacity, 1u << 20);
  EXPECT_FALSE(FakeEnv({{"AMDMB_PROF", "0"}}).Parse().prof);
}

TEST(EnvTest, TraceCapRejectsMalformedValuesNamingTheVariable) {
  for (const char* bad : {"abc", "-1", "0", "12x"}) {
    try {
      FakeEnv({{"AMDMB_TRACE_CAP", bad}}).Parse();
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("AMDMB_TRACE_CAP"),
                std::string::npos);
    }
  }
  EXPECT_EQ(env::ParseTraceCapacity("1"), 1u);
  EXPECT_EQ(env::ParseTraceCapacity("1048576"), 1048576u);
}

TEST(EnvTest, GetIsStableAcrossCalls) {
  // Get() snapshots the process environment once; repeated calls return
  // the same object (the old per-site static caching, centralized).
  const env::Options& a = env::Get();
  const env::Options& b = env::Get();
  EXPECT_EQ(&a, &b);
}


TEST(EnvTest, ServeKnobsParse) {
  const env::Options o = FakeEnv({{"AMDMB_SERVE_SOCKET", "/run/amdmb.sock"},
                                  {"AMDMB_SERVE_QUEUE", "32"},
                                  {"AMDMB_SERVE_INFLIGHT", "4"}})
                             .Parse();
  EXPECT_EQ(o.serve_socket, "/run/amdmb.sock");
  EXPECT_EQ(o.serve_queue, 32u);
  EXPECT_EQ(o.serve_inflight, 4u);
}

TEST(EnvTest, ServeKnobsDefaultWhenUnset) {
  const env::Options o = FakeEnv({}).Parse();
  EXPECT_FALSE(o.serve_socket.has_value());
  EXPECT_EQ(o.serve_queue, 16u);
  // Unset stays unset: amdmb_serve then sizes inflight from the sweep
  // pool (serve::DefaultInflight).
  EXPECT_FALSE(o.serve_inflight.has_value());
  // A queue of zero is legal: admission then only covers in-flight.
  EXPECT_EQ(env::ParseServeQueue("0"), 0u);
  EXPECT_EQ(env::ParseServeQueue("4096"), 4096u);
  EXPECT_EQ(env::ParseServeInflight("1"), 1u);
  EXPECT_EQ(env::ParseServeInflight("64"), 64u);
}

TEST(EnvTest, ServeQueueRejectsMalformedValuesNamingTheVariable) {
  for (const char* bad : {"abc", "-1", "4097", "12x", "1.5"}) {
    try {
      FakeEnv({{"AMDMB_SERVE_QUEUE", bad}}).Parse();
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("AMDMB_SERVE_QUEUE"),
                std::string::npos);
    }
  }
}

TEST(EnvTest, ServeInflightRejectsMalformedValuesNamingTheVariable) {
  for (const char* bad : {"abc", "0", "65", "-2", "2x"}) {
    try {
      FakeEnv({{"AMDMB_SERVE_INFLIGHT", bad}}).Parse();
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("AMDMB_SERVE_INFLIGHT"),
                std::string::npos);
    }
  }
}

TEST(EnvTest, AdaptKnobsParse) {
  const env::Options o = FakeEnv({{"AMDMB_ADAPT", "1"},
                                  {"AMDMB_ADAPT_TOL", "4"},
                                  {"AMDMB_ADAPT_BUDGET", "100"}})
                             .Parse();
  EXPECT_TRUE(o.adapt);
  EXPECT_EQ(o.adapt_tol, 4u);
  EXPECT_EQ(o.adapt_budget, 100u);
  EXPECT_FALSE(FakeEnv({{"AMDMB_ADAPT", "0"}}).Parse().adapt);
}

TEST(EnvTest, AdaptKnobsDefaultWhenUnset) {
  const env::Options o = FakeEnv({}).Parse();
  EXPECT_FALSE(o.adapt);
  EXPECT_EQ(o.adapt_tol, 2u);       // The dense-agreement tolerance.
  EXPECT_EQ(o.adapt_budget, 0u);    // Unlimited refinement points.
  EXPECT_EQ(env::ParseAdaptTol("1"), 1u);
  EXPECT_EQ(env::ParseAdaptTol("64"), 64u);
  EXPECT_EQ(env::ParseAdaptBudget("0"), 0u);
  EXPECT_EQ(env::ParseAdaptBudget("12"), 12u);
}

TEST(EnvTest, AdaptKnobsRejectMalformedValuesNamingTheVariable) {
  for (const char* bad : {"abc", "0", "65", "-1", "2x", "1.5"}) {
    try {
      FakeEnv({{"AMDMB_ADAPT_TOL", bad}}).Parse();
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("AMDMB_ADAPT_TOL"),
                std::string::npos);
    }
  }
  for (const char* bad : {"abc", "-1", "9x", "0.5"}) {
    try {
      FakeEnv({{"AMDMB_ADAPT_BUDGET", bad}}).Parse();
      FAIL() << "expected ConfigError for '" << bad << "'";
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find("AMDMB_ADAPT_BUDGET"),
                std::string::npos);
    }
  }
}

}  // namespace
}  // namespace amdmb
