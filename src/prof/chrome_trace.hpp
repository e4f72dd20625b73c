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

#include <string>

#include "prof/profile.hpp"

namespace amdmb::prof {

/// The full trace_event document for one profiled launch.
std::string ChromeTraceJson(const Profile& profile);

/// Deterministic, filesystem-safe file name for a profile's trace:
/// "<arch>_<mode>_<type>_<point>[_aN].trace.json", lowercased, with
/// non-alphanumerics collapsed to '_'. The arch/mode/type prefix keeps
/// float and float4 curves (which share kernel names) from colliding
/// when sweeps write in parallel.
std::string TraceFileName(const Profile& profile);

/// `dir`/TraceFileName(profile): where WriteChromeTrace puts the trace.
std::string TracePath(const Profile& profile, const std::string& dir);

/// Writes ChromeTraceJson(profile) to TracePath(profile, dir) and
/// returns the path. Throws ConfigError when the file cannot be written.
std::string WriteChromeTrace(const Profile& profile, const std::string& dir);

}  // namespace amdmb::prof
