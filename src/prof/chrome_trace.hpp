// Chrome trace_event exporter: renders a prof::Profile as the JSON
// format chrome://tracing and Perfetto load directly. Clause executions
// become "X" (complete) events on one track per SIMD engine, the
// wavefront-occupancy timeline becomes "C" (counter) events, and "M"
// metadata rows name the tracks. Timestamps are simulated cycles mapped
// 1:1 onto trace microseconds.
//
// Gated by AMDMB_PROF + AMDMB_TRACE_DIR; see prof::TraceDirectory(). A
// profile carries the clause events and occupancy samples only when a
// trace directory was set while it was collected.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "arch/gpu_arch.hpp"
#include "prof/profile.hpp"
#include "sim/gpu.hpp"

namespace amdmb::prof {

/// The full trace_event document for one profiled launch.
std::string ChromeTraceJson(const Profile& profile);

/// Identity of one launch: FNV-1a 64-bit over the compiled program's
/// kernel-cache key (exec::KernelCacheKey), every GpuArch field, and the
/// launch's domain, mode, block shape and repetitions — everything that
/// decides what is simulated. The watchdog budget and the profile flag
/// are left out, so a launch keeps its identity whether AMDMB_PROF or
/// the launch asked for the profile. Deterministic across runs, thread
/// counts and platforms.
std::uint64_t LaunchId(std::string_view program_key, const GpuArch& arch,
                       const sim::LaunchConfig& config);

/// Deterministic, filesystem-safe file name for a profile's trace:
/// "<arch>_<mode>_<type>_<point>[_<launch id>][_aN].trace.json",
/// lowercased, with non-alphanumerics collapsed to '_' and the launch id
/// (when known) as 16 hex digits. The arch/mode/type prefix keeps float
/// and float4 curves (which share kernel names) apart; the launch id
/// keeps apart sweeps of one curve that share point labels (Fig. 8's
/// 4x16 and 64x1 blocks, the residency-cap ablation's caps), so
/// distinct launches never write, or truncate, the same file.
std::string TraceFileName(const Profile& profile);

/// `dir`/TraceFileName(profile): where WriteChromeTrace puts the trace.
std::string TracePath(const Profile& profile, const std::string& dir);

/// Writes ChromeTraceJson(profile) to TracePath(profile, dir) and
/// returns the path. Throws ConfigError when the file cannot be written.
std::string WriteChromeTrace(const Profile& profile, const std::string& dir);

}  // namespace amdmb::prof
