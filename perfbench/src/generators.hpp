// Seeded input generators. Every function here is a pure function of its
// arguments (the workload seed in particular): the same seed gives the
// same figure order, kernel stream, and request schedule on any machine,
// and the program under test only ever sees the generated inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "suite/kernelgen.hpp"

namespace perfbench {

/// figures_quick: the order the registry figures are built in. The seed
/// only permutes `slugs`.
std::vector<std::string> FigureOrder(const std::vector<std::string>& slugs,
                                     std::uint64_t seed);

/// One ALU-bound generic kernel of the kerncap_alu stream.
struct AluKernelSpec {
  unsigned inputs = 2;  ///< 2..6
  unsigned ratio = 8;   ///< SKA ALU:Fetch ratio, 8..64.
  amdmb::WritePath write_path = amdmb::WritePath::kStream;
  amdmb::DataType type = amdmb::DataType::kFloat;

  /// Stable kernel name, unique per spec ("alu_i4_r37_stream_f4").
  std::string Name() const;
  amdmb::suite::GenericSpec Generic() const;
  /// The IL text submitted to kerncap.
  std::string Il() const;

  bool operator==(const AluKernelSpec&) const = default;
};

inline constexpr unsigned kMinInputs = 2, kMaxInputs = 6;
inline constexpr unsigned kMinRatio = 8, kMaxRatio = 64;

/// Every spec the stream can draw (the reference-digest pool), in a
/// fixed order.
std::vector<AluKernelSpec> KernelPool();

/// Strata of the stream: inputs x write path x type (20 of them).
inline constexpr std::size_t kStrata = 20;

/// The kerncap_alu stream, `pairs` pairs of blocks long. A block holds
/// one kernel of every stratum in seeded order. Within a stratum the
/// ratios are drawn without replacement as antithetic pairs (r, 72 - r),
/// so every pair of blocks has the same mean ratio whatever the seed and
/// no two kernels of one stream are equal. At most kMaxBlockPairs pairs.
std::vector<AluKernelSpec> KernelStream(std::uint64_t seed,
                                        std::size_t pairs);
inline constexpr std::size_t kMaxBlockPairs =
    (kMaxRatio - kMinRatio + 1) / 2;

/// serve_open request kinds.
enum class RequestKind { kSubmit, kCharacterize, kStats };

struct PlannedRequest {
  double due_s = 0.0;  ///< Offset from the schedule start.
  RequestKind kind = RequestKind::kStats;
  std::string figure;    ///< kSubmit
  bool adaptive = false; ///< kSubmit
  AluKernelSpec kernel;  ///< kCharacterize
};

/// Shape of the serve_open mix for one schedule. The schedule is cut into
/// `rounds` equal windows; each window holds every submit figure once
/// plus the per-round characterize and stats requests.
struct ServeMix {
  std::vector<std::string> figures;  ///< Submit targets.
  unsigned rounds = 1;
  unsigned adaptive_per_figure = 0;  ///< Of its `rounds` submits.
  unsigned characterize_per_round = 0;  ///< Fresh kerncap_alu kernels.
  unsigned stats_per_round = 0;         ///< Stats pings.
  double seconds = 1.0;                 ///< Schedule length.
};

/// Poisson arrivals conditioned on each round's request count: within a
/// round the due times are sorted uniform draws, which is exactly a
/// Poisson process of rate count/window given that count. Every round
/// carries the same mix, so load cannot bunch up across rounds; the
/// seed picks the order and timing within each round, which submits are
/// adaptive, and the kernels.
std::vector<PlannedRequest> ServeSchedule(const ServeMix& mix,
                                          std::uint64_t seed);

}  // namespace perfbench
