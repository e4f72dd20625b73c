// Machine descriptions of the three AMD GPU generations the paper
// benchmarks (Table I) plus the micro-architectural parameters the timing
// model needs. Documented parameters come from the paper and AMD's R600/
// R700 ISA guides; parameters the paper could only observe indirectly
// (effective bandwidths, latencies) are calibrated so the reproduced
// figures match the published curve shapes, and are marked "calibrated".
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace amdmb {

/// Per-SIMD texture L1 configuration.
///
/// The paper (Sec. IV-A) observes that the cache is organised in two
/// dimensions — "when using a 64x1 block size only half the cache is
/// used" — and that from RV770 to RV870 the cache size halves while the
/// line size doubles. We model the 2-D organisation as two set groups
/// selected by the low bit of the texel tile row.
struct TexCacheConfig {
  Bytes size_bytes = 16 * 1024;
  Bytes line_bytes = 64;
  unsigned associativity = 8;
  /// 2-D set indexing (ablation knob; see bench_ablation_cache_index).
  bool two_d_index = true;

  bool operator==(const TexCacheConfig&) const = default;
};

/// Off-chip memory (GDDR) model parameters.
struct DramConfig {
  /// Effective texture-cache line-fill bandwidth, bytes per *core* cycle
  /// (calibrated from board peak x typical efficiency).
  double fill_bytes_per_cycle = 100.0;
  /// Effective uncached global-read bandwidth, bytes per core cycle. Can
  /// be far below the fill bandwidth on early generations (the paper's
  /// "the RV670's global memory is very slow", Sec. IV-B).
  double read_bytes_per_cycle = 100.0;
  /// Effective uncached global-write bandwidth, bytes per core cycle.
  /// Early-generation uncached writes are far below peak (paper Fig. 14:
  /// each 32-bit element is written at a constant rate).
  double write_bytes_per_cycle = 40.0;
  /// First-word latency of an uncached global read, core cycles.
  Cycles read_latency = 350;
  /// Extra cycles charged per open-row switch during line fills. Zero by
  /// default: GDDR activations overlap with other banks' transfers; the
  /// knob exists for the row-locality ablation bench.
  Cycles row_switch_cycles = 0;
  unsigned banks = 8;
  Bytes row_bytes = 2048;

  bool operator==(const DramConfig&) const = default;
};

/// Complete description of one GPU generation.
struct GpuArch {
  std::string name;      ///< Chip name, e.g. "RV770".
  std::string card;      ///< Board the paper tested, e.g. "Radeon HD 4870".
  std::string mem_type;  ///< Table I memory type string.

  // ---- Table I ----------------------------------------------------------
  unsigned alu_count = 0;       ///< Total stream cores (320/800/1600).
  unsigned texture_units = 0;   ///< Total texture fetch units (16/40/80).
  unsigned simd_engines = 0;    ///< SIMD engines (4/10/20).
  unsigned core_clock_mhz = 0;  ///< Core clock (750/750/850).
  unsigned mem_clock_mhz = 0;   ///< Memory clock (1000/900/1200).

  bool supports_compute = true;  ///< RV670 has no compute-shader mode.

  // ---- Execution model (paper Sec. II-A) --------------------------------
  unsigned wavefront_size = 64;
  unsigned thread_processors_per_simd = 16;
  unsigned vliw_width = 5;  ///< x, y, z, w general cores + t transcendental.
  unsigned tex_units_per_simd = 4;
  /// 16k 128-bit registers per SIMD / 64 threads = 256 GPRs per thread.
  unsigned gpr_budget_per_thread = 256;
  /// Scheduling cap on simultaneously resident wavefronts per SIMD.
  unsigned max_wavefronts_per_simd = 24;
  /// Clause-temporary registers available per slot (paper: max two per
  /// odd/even slot; live only inside a clause).
  unsigned clause_temps_per_slot = 2;
  unsigned max_tex_fetches_per_clause = 16;
  unsigned max_alu_bundles_per_clause = 128;

  // ---- Texture path -----------------------------------------------------
  TexCacheConfig l1;
  /// Hit-side service bandwidth of one texture unit: bytes delivered per
  /// cycle. 4.0 means 32 bits per thread-cycle, which yields the paper's
  /// Fig. 11 observation that n float4 fetches cost ~4n float fetches.
  double tex_bytes_per_unit_cycle = 4.0;
  Cycles tex_hit_latency = 96;  ///< Pipelined per-clause latency (calibrated).
  /// Stall per fetch instruction that misses in the texture cache. Misses
  /// serialise on the owning wavefront's timeline (the wavefront waits;
  /// the SIMD hides the stall only by switching to other wavefronts —
  /// paper Sec. II-A), which is what makes occupancy matter in Fig. 16.
  Cycles tex_miss_stall_cycles = 240;  ///< calibrated
  Cycles clause_switch_cycles = 4;     ///< control-flow processor overhead

  // ---- Global memory paths ----------------------------------------------
  DramConfig dram;
  /// Controller serialisation per global-read wavefront-instruction
  /// (calibrated; dominates Fig. 12 slopes).
  Cycles global_read_instr_overhead = 6;
  /// Streaming (color-buffer) store path: burst-combining back-ends.
  double stream_store_bytes_per_cycle = 140.0;
  Cycles stream_store_instr_overhead = 8;
  /// Uncached global write per-instruction overhead.
  Cycles global_write_instr_overhead = 8;

  // ---- Derived helpers ---------------------------------------------------
  /// Cycles for one VLIW bundle to drain a full wavefront through the
  /// SIMD's thread processors (64 threads / 16 TPs = 4).
  unsigned CyclesPerBundle() const {
    return wavefront_size / thread_processors_per_simd;
  }
  double CoreClockHz() const { return core_clock_mhz * 1.0e6; }
  /// Chip-wide texture cache capacity (the simulator models the texture
  /// cache hierarchy as one shared structure).
  Bytes TotalTexCacheBytes() const { return l1.size_bytes * simd_engines; }
  /// Convert simulated cycles to seconds of wall time on this chip.
  double CyclesToSeconds(double cycles) const {
    return cycles / CoreClockHz();
  }

  /// Every field, names included: two archs that share a name but differ
  /// in an ablation parameter are different machines.
  bool operator==(const GpuArch&) const = default;
};

/// Radeon HD 3870 (RV670): 320 ALUs, 4 SIMDs, no compute shader, slow
/// uncached global memory (the paper attributes this to its DDR3/4).
GpuArch MakeRV670();

/// Radeon HD 4870 (RV770): 800 ALUs, 10 SIMDs, GDDR5.
GpuArch MakeRV770();

/// Radeon HD 5870 (RV870/Cypress): 1600 ALUs, 20 SIMDs, GDDR5; texture L1
/// halves in size and doubles in line length relative to RV770 (paper
/// Sec. IV-A).
GpuArch MakeRV870();

/// Lookup by chip ("RV770") or card ("4870") name; throws ConfigError for
/// unknown names.
GpuArch ArchByName(std::string_view name);

/// All three generations in paper order.
std::vector<GpuArch> AllArchs();

/// Renders Table I of the paper from the machine descriptions.
std::string RenderHardwareTable();

}  // namespace amdmb
