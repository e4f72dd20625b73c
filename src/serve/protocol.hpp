// Wire protocol of the amdmb_serve daemon: newline-delimited JSON over
// a local Unix-domain socket.
//
// Requests are one-line JSON objects with an "op" key:
//   {"op":"submit","figure":"fig_7","quick":true,"priority":0}
//   {"op":"submit","figure":"fig_7","quick":true,"adaptive":true,...}
//   {"op":"characterize","il":"il_ps_2_0\n...","quick":true,"priority":0}
//   {"op":"stats"}
//   {"op":"drain"}
//
// Responses stream back as one-line JSON events tagged "event":
//   accepted  — the submit was admitted; carries the request id.
//   rejected  — admission refused ("overloaded" / "draining"), the
//               figure slug is unknown
//               ("unknown_figure"), or a characterize kernel failed
//               intake ("invalid_kernel", with the stable "code" from
//               kerncap's rejection taxonomy plus a "detail" string);
//               terminal.
//   static    — characterize only: one architecture's static SKA
//               analysis (ALU/fetch/GPR counts, occupancy, bound).
//   progress  — one figure curve finished (index / count / name).
//   point     — one measured sweep point (curve, x, y).
//   profile   — one profiled sweep point rode the curve.
//   refine    — adaptive requests ("adaptive":true on submit /
//               characterize) only: one refinement wave finished
//               (wave, points, spent, dense grid size).
//   done      — the request completed; carries the full schema-v2
//               BENCH figure document as the "figure_json" string
//               (byte-identical to the standalone bench binary's file).
//   error     — terminal failure; carries the message plus a typed
//               "kind": sweep_failed (the sweep threw) or
//               protocol_error (malformed/oversized request line).
//   stats     — response to a stats request (queue depth, kernel-cache
//               compile and launch hits, per-figure latency percentiles).
//   drained   — response to a drain request once every admitted sweep
//               has finished.
//
// Serialization reuses the report layer's JSON primitives (JsonEscape /
// JsonNumber / JsonValue), so the daemon has no second JSON dialect.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "report/json.hpp"

namespace amdmb::serve {

/// Parsed client request.
struct Request {
  enum class Op {
    kSubmit,
    kCharacterize,
    kStats,
    kDrain,
  };

  Op op = Op::kStats;
  std::string figure;  ///< Submit only: figure slug (any spelling).
  std::string il;      ///< Characterize only: raw kernel IL text.
  bool quick = false;  ///< Submit/characterize: smoke-scale sweep.
  /// Submit/characterize: run the sweep adaptively (coarse pass +
  /// bisection) with `refine` progress events. Serialized only when
  /// true, so dense request lines — and therefore the shared-cache
  /// keys of older clients — are byte-stable.
  bool adaptive = false;
  int priority = 0;    ///< Submit/characterize: higher pops first.
};

/// Parses one request line. Throws ConfigError naming what is malformed
/// (bad JSON, missing/unknown "op", non-string figure, ...).
Request ParseRequest(std::string_view line);

/// Serializes a request (the client side of ParseRequest).
std::string SerializeRequest(const Request& request);

/// Event type tags, in the order documented above.
enum class EventType {
  kAccepted,
  kRejected,
  kStatic,
  kProgress,
  kPoint,
  kProfile,
  kRefine,
  kDone,
  kError,
  kStats,
  kDrained,
};

std::string_view ToString(EventType type);

/// Typed classification of terminal "error" events. Every submitted
/// request ends in exactly one of done / rejected / error(kind).
enum class ErrorKind {
  kSweepFailed,    ///< The sweep body threw.
  kProtocolError,  ///< Malformed or oversized request line.
};

std::string_view ToString(ErrorKind kind);

/// One parsed response line: the type tag plus the full JSON payload
/// (typed field access goes through `body`).
struct Event {
  EventType type = EventType::kError;
  report::JsonValue body;
};

/// Parses one event line. Throws ConfigError on bad JSON or an unknown
/// "event" tag.
Event ParseEvent(std::string_view line);

// --- Event serializers (daemon side). Each returns one line, no '\n'.

std::string SerializeAccepted(std::uint64_t id, std::string_view figure,
                              std::size_t queue_depth);
std::string SerializeRejected(std::string_view reason,
                              std::string_view figure);
/// Rejection with a typed verdict attached: "code" is a stable machine
/// reason (kerncap's rejection taxonomy), "detail" the human message.
std::string SerializeRejected(std::string_view reason,
                              std::string_view figure,
                              std::string_view code,
                              std::string_view detail);
std::string SerializeProgress(std::uint64_t id, std::size_t curve_index,
                              std::size_t curve_count,
                              std::string_view curve);
std::string SerializePoint(std::uint64_t id, std::string_view curve,
                           double x, double y);
std::string SerializeProfile(std::uint64_t id, std::string_view curve,
                             std::string_view point,
                             std::string_view bottleneck);
/// One adaptive refinement wave finished (adaptive requests only):
/// wave index (0 = coarse pass), points measured in the wave, points
/// spent so far, and the dense grid size being avoided.
std::string SerializeRefine(std::uint64_t id, std::string_view curve,
                            std::size_t wave, std::size_t wave_points,
                            std::size_t points_spent,
                            std::size_t dense_points);
std::string SerializeDone(std::uint64_t id, std::string_view figure,
                          double wall_seconds, std::uint64_t cache_hits,
                          std::uint64_t cache_misses,
                          std::string_view figure_json);
std::string SerializeError(std::uint64_t id, ErrorKind kind,
                           std::string_view message);
std::string SerializeDrained(std::uint64_t completed);

/// One architecture's static kernel analysis, streamed as a "static"
/// event before the dynamic sweep of a characterize request. Mirrors
/// compiler::SkaReport field-for-field but keeps the wire protocol
/// decoupled from compiler headers.
struct StaticReport {
  std::string arch;  ///< Card label, e.g. "4870".
  unsigned alu_ops = 0;
  unsigned fetch_ops = 0;
  unsigned write_ops = 0;
  double alu_fetch_ratio = 0.0;
  unsigned gpr_count = 0;
  unsigned theoretical_wavefronts = 0;
  unsigned resident_wavefronts = 0;
  std::string bound;  ///< compiler::ToString(StaticBound).
};

std::string SerializeStatic(std::uint64_t id, const StaticReport& report);

/// Latency summary of one figure's completed requests.
struct FigureLatency {
  std::string figure;
  std::size_t count = 0;
  double p50_seconds = 0.0;
  double p90_seconds = 0.0;
  double p99_seconds = 0.0;

  bool operator==(const FigureLatency&) const = default;
};

/// The stats-event payload.
struct ServeStats {
  std::string version;          ///< SuiteVersion() of the daemon build.
  std::size_t queue_depth = 0;  ///< Requests admitted but not started.
  unsigned in_flight = 0;       ///< Sweeps currently executing.
  std::size_t max_queue = 0;
  unsigned max_inflight = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t rejected = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  double cache_hit_rate = 0.0;
  std::size_t cache_size = 0;
  std::uint64_t launch_hits = 0;    ///< Launches answered from the cache.
  std::uint64_t launch_misses = 0;  ///< Launches the cache had not seen.
  std::vector<FigureLatency> latencies;  ///< Sorted by figure slug.
};

std::string SerializeStats(const ServeStats& stats);

/// Parses the payload of a kStats event back into the struct (client
/// side; also the round-trip tests).
ServeStats ParseStats(const report::JsonValue& body);

}  // namespace amdmb::serve
