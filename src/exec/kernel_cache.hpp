// Memoized IL -> ISA compilation.
//
// Sweeps recompile near-identical kernels hundreds of times: a domain or
// block-size sweep re-launches one kernel per point, the suite report
// compiles the same generated kernel once per GPU generation, and tests
// re-run whole figures. Compilation depends only on the kernel content
// and the arch-derived CompileOptions, so the cache key is an exact
// serialization of both — equal keys mean equal programs (no hash
// collisions can substitute a wrong binary), and archs that share clause
// limits share compiled programs.
//
// Each entry also remembers the KernelStats of successful launches of
// its program, keyed by the full GpuArch and LaunchConfig. Figures that
// re-plot another figure's curve as their baseline (Fig. 8's 64x1 curves
// are Fig. 7's compute curves) re-launch bit-identical simulations; the
// simulator is deterministic, so a remembered result is exactly what a
// re-run would return. Remembered launches live and die with their
// entry: Clear() and eviction drop them. The cache holds at most
// `capacity` programs and kMaxLaunches launches; exceeding either bound
// evicts the least recently used entry.
//
// Thread-safe: sweep workers hit the cache concurrently. Entries are
// immutable shared_ptrs, so a cached program stays valid even if evicted
// while a launch still uses it.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "arch/gpu_arch.hpp"
#include "compiler/compiler.hpp"
#include "compiler/isa.hpp"
#include "il/il.hpp"
#include "sim/gpu.hpp"

namespace amdmb::exec {

struct KernelCacheStats {
  std::uint64_t hits = 0;    ///< Compiles served from the cache.
  std::uint64_t misses = 0;  ///< Compiles that ran the compiler.
  std::uint64_t evictions = 0;
  std::uint64_t launch_hits = 0;    ///< FindLaunch answered from memory.
  std::uint64_t launch_misses = 0;  ///< FindLaunch found nothing.

  double HitRate() const {
    const auto total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// Exact content key: every field of the kernel and the compile options
/// that can influence the compiled program. Kernel names are excluded —
/// sweeps name each point differently ("alufetch_r0.25", "_r0.50", ...)
/// while many of them lower to the same program.
std::string KernelCacheKey(const il::Kernel& kernel,
                           const compiler::CompileOptions& opts);

/// A compiled program and the key of the cache entry holding it; the key
/// names the entry's remembered launches.
struct CachedProgram {
  std::shared_ptr<const isa::Program> program;
  std::string key;
};

class KernelCache {
 public:
  /// Launches remembered across the whole cache (~2 MiB). A full-scale
  /// registry pass remembers 2110 launches, 291 of them on one program
  /// (Fig. 15a's domain sweep on three archs); a quick pass remembers 854.
  static constexpr std::size_t kMaxLaunches = 4096;

  /// Keeps at most `capacity` compiled programs (LRU eviction).
  explicit KernelCache(std::size_t capacity = 512);

  /// Returns the compiled program for (kernel, OptionsFor(arch)),
  /// compiling and inserting on miss.
  std::shared_ptr<const isa::Program> Compile(const il::Kernel& kernel,
                                              const GpuArch& arch);

  /// Compile, also returning the entry key for FindLaunch/RememberLaunch.
  CachedProgram Lookup(const il::Kernel& kernel, const GpuArch& arch);

  /// The stats of a remembered launch of entry `key` on exactly `arch`
  /// with exactly `config`, or nullopt (also when the entry is gone).
  std::optional<sim::KernelStats> FindLaunch(const std::string& key,
                                             const GpuArch& arch,
                                             const sim::LaunchConfig& config);

  /// Remembers a successful launch under entry `key`, evicting other
  /// entries if the launch bound is exceeded. A no-op when the entry has
  /// been evicted or cleared since Lookup, or alone holds kMaxLaunches.
  void RememberLaunch(const std::string& key, const GpuArch& arch,
                      const sim::LaunchConfig& config,
                      const sim::KernelStats& stats);

  KernelCacheStats Stats() const;
  std::size_t Size() const;
  std::size_t Capacity() const { return capacity_; }
  void Clear();

  /// Process-wide cache shared by every Runner.
  static KernelCache& Shared();

 private:
  struct Launch {
    GpuArch arch;
    sim::LaunchConfig config;
    sim::KernelStats stats;
  };

  struct Entry {
    std::shared_ptr<const isa::Program> program;
    std::uint64_t last_used = 0;
    std::vector<Launch> launches;
  };

  using Entries = std::unordered_map<std::string, Entry>;

  /// Evicts least recently used entries other than `keep` until both
  /// bounds hold again. Over the launch bound only, it evicts entries
  /// that hold launches. Caller holds mutex_.
  void EvictBeyondBounds(Entries::iterator keep);

  std::size_t capacity_;
  mutable std::mutex mutex_;
  Entries entries_;
  std::size_t launch_count_ = 0;
  std::uint64_t tick_ = 0;
  KernelCacheStats stats_;
};

}  // namespace amdmb::exec
