// Deterministic, seedable fault injection.
//
// The real StreamSDK/CAL runtime fails in the field — compile errors,
// transient launch failures, hung kernels — and a benchmark harness has
// to survive them (ALTIS/Mirovia report per-kernel failures instead of
// dying; see PAPERS.md). This module injects those failures on demand so
// the resilience path is testable: the CAL layer consults the injector
// at its compile / launch / readback boundaries, and the sweep executor
// retries or skips the affected points.
//
// Determinism: whether a fault fires is a pure function of
// (spec seed, site, key) — typically key = "<point>#<attempt>" — so the
// fault schedule is identical across runs and thread interleavings, and
// a retried attempt draws a fresh, independent decision.
//
// Configured via AMDMB_FAULTS, e.g.
//   AMDMB_FAULTS=compile:0.01,launch:0.02,hang:0.001,seed=42
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>

namespace amdmb::fault {

/// Runtime boundary at which a fault can be injected.
enum class FaultSite : unsigned {
  kCompile = 0,   ///< IL -> ISA compilation fails.
  kLaunch = 1,    ///< Kernel launch fails transiently.
  kHang = 2,      ///< Kernel never finishes; the watchdog must fire.
  kReadback = 3,  ///< Timer/counter readback fails.
};

inline constexpr std::size_t kFaultSiteCount = 4;

std::string_view ToString(FaultSite site);

/// Per-site fault probabilities plus the schedule seed.
struct FaultSpec {
  double compile = 0.0;
  double launch = 0.0;
  double hang = 0.0;
  double readback = 0.0;
  std::uint64_t seed = 0;

  double Probability(FaultSite site) const;
  bool AnyEnabled() const {
    return compile > 0.0 || launch > 0.0 || hang > 0.0 || readback > 0.0;
  }

  /// Parses "site:prob,...,seed=N" (":" and "=" both accepted as
  /// separators). Sites: compile, launch, hang, readback. Probabilities
  /// must lie in [0, 1]. Throws ConfigError on anything malformed.
  static FaultSpec Parse(std::string_view text);
};

/// How often each site was consulted and how often it fired.
struct FaultStats {
  std::array<std::uint64_t, kFaultSiteCount> checks{};
  std::array<std::uint64_t, kFaultSiteCount> injected{};
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultSpec spec) : spec_(spec) {}

  /// True when the fault fires. Pure in (spec, site, key) apart from the
  /// statistics counters, so concurrent callers always agree.
  bool ShouldFail(FaultSite site, std::string_view key) const;

  const FaultSpec& Spec() const { return spec_; }
  FaultStats Stats() const;

 private:
  FaultSpec spec_;
  mutable std::array<std::atomic<std::uint64_t>, kFaultSiteCount> checks_{};
  mutable std::array<std::atomic<std::uint64_t>, kFaultSiteCount> injected_{};
};

/// The process-wide injector: parsed from AMDMB_FAULTS on first use
/// (throwing ConfigError on a malformed spec), nullptr when the variable
/// is unset or empty. ScopedFaultInjector overrides it for tests.
const FaultInjector* GlobalInjector();

/// RAII override of the global injector (tests install a spec without
/// touching the environment). Restores the previous injector on
/// destruction. Not thread-safe against concurrent installs.
class ScopedFaultInjector {
 public:
  explicit ScopedFaultInjector(const FaultSpec& spec);
  explicit ScopedFaultInjector(std::string_view spec);
  ~ScopedFaultInjector();

  ScopedFaultInjector(const ScopedFaultInjector&) = delete;
  ScopedFaultInjector& operator=(const ScopedFaultInjector&) = delete;

  FaultInjector& Injector() { return injector_; }

 private:
  FaultInjector injector_;
  const FaultInjector* previous_;
};

}  // namespace amdmb::fault
