#include "common/env.hpp"

#include <charconv>
#include <cstdlib>

#include "common/status.hpp"

namespace amdmb::env {

namespace {

/// Absurdly-large worker counts are almost certainly typos (or integer
/// garbage), not intent; reject them instead of spawning thousands of
/// threads.
constexpr unsigned long kMaxThreads = 4096;

std::optional<std::string> NonEmpty(const char* v) {
  if (v == nullptr || v[0] == '\0') return std::nullopt;
  return std::string(v);
}

}  // namespace

unsigned ParseThreadCount(std::string_view text) {
  unsigned long n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size(),
          "AMDMB_THREADS='" + std::string(text) +
              "': must be a positive integer");
  Require(n >= 1, "AMDMB_THREADS='" + std::string(text) +
                      "': needs at least one worker");
  Require(n <= kMaxThreads,
          "AMDMB_THREADS='" + std::string(text) + "': exceeds the cap of " +
              std::to_string(kMaxThreads) + " workers");
  return static_cast<unsigned>(n);
}

std::uint64_t ParseWatchdogCycles(std::string_view text) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size(),
          "AMDMB_WATCHDOG='" + std::string(text) +
              "': must be a cycle count (non-negative integer)");
  return n;
}

std::size_t ParseTraceCapacity(std::string_view text) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size() && n >= 1,
          "AMDMB_TRACE_CAP='" + std::string(text) +
              "': must be a positive event count");
  return static_cast<std::size_t>(n);
}

std::size_t ParseServeQueue(std::string_view text) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size() && n <= 4096,
          "AMDMB_SERVE_QUEUE='" + std::string(text) +
              "': must be a queue depth in [0, 4096]");
  return static_cast<std::size_t>(n);
}

unsigned ParseServeInflight(std::string_view text) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size() && n >= 1 &&
              n <= 64,
          "AMDMB_SERVE_INFLIGHT='" + std::string(text) +
              "': must be a concurrent-sweep bound in [1, 64]");
  return static_cast<unsigned>(n);
}

unsigned ParseAdaptTol(std::string_view text) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size() && n >= 1 &&
              n <= 64,
          "AMDMB_ADAPT_TOL='" + std::string(text) +
              "': must be a grid-step tolerance in [1, 64]");
  return static_cast<unsigned>(n);
}

std::uint64_t ParseAdaptBudget(std::string_view text) {
  std::uint64_t n = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), n);
  Require(ec == std::errc() && ptr == text.data() + text.size(),
          "AMDMB_ADAPT_BUDGET='" + std::string(text) +
              "': must be a point budget (non-negative integer; 0 = "
              "unlimited)");
  return n;
}

Options ParseFrom(const std::function<const char*(const char*)>& lookup) {
  Options options;
  if (const auto v = NonEmpty(lookup("AMDMB_QUICK"))) {
    options.quick = (*v)[0] != '0';
  }
  if (const auto v = NonEmpty(lookup("AMDMB_THREADS"))) {
    options.threads = ParseThreadCount(*v);
  }
  options.json_dir = NonEmpty(lookup("AMDMB_JSON_DIR"));
  options.dump_dir = NonEmpty(lookup("AMDMB_DUMP_DIR"));
  options.faults = NonEmpty(lookup("AMDMB_FAULTS"));
  options.retry = NonEmpty(lookup("AMDMB_RETRY"));
  if (const auto v = NonEmpty(lookup("AMDMB_WATCHDOG"))) {
    options.watchdog_cycles = ParseWatchdogCycles(*v);
  }
  if (const auto v = NonEmpty(lookup("AMDMB_PROF"))) {
    options.prof = (*v)[0] != '0';
  }
  options.trace_dir = NonEmpty(lookup("AMDMB_TRACE_DIR"));
  if (const auto v = NonEmpty(lookup("AMDMB_TRACE_CAP"))) {
    options.trace_capacity = ParseTraceCapacity(*v);
  }
  options.serve_socket = NonEmpty(lookup("AMDMB_SERVE_SOCKET"));
  if (const auto v = NonEmpty(lookup("AMDMB_SERVE_QUEUE"))) {
    options.serve_queue = ParseServeQueue(*v);
  }
  if (const auto v = NonEmpty(lookup("AMDMB_SERVE_INFLIGHT"))) {
    options.serve_inflight = ParseServeInflight(*v);
  }
  if (const auto v = NonEmpty(lookup("AMDMB_ADAPT"))) {
    options.adapt = (*v)[0] != '0';
  }
  if (const auto v = NonEmpty(lookup("AMDMB_ADAPT_TOL"))) {
    options.adapt_tol = ParseAdaptTol(*v);
  }
  if (const auto v = NonEmpty(lookup("AMDMB_ADAPT_BUDGET"))) {
    options.adapt_budget = ParseAdaptBudget(*v);
  }
  return options;
}

const Options& Get() {
  static const Options options =
      ParseFrom([](const char* name) { return std::getenv(name); });
  return options;
}

}  // namespace amdmb::env
