#include "prof/chrome_trace.hpp"

#include <bit>
#include <cctype>
#include <fstream>
#include <sstream>

#include "common/status.hpp"
#include "report/json.hpp"

namespace amdmb::prof {

namespace {

/// FNV-1a 64-bit; length-prefixed strings keep field boundaries exact.
struct Fnv1a {
  std::uint64_t value = 14695981039346656037ull;

  void Byte(std::uint8_t b) {
    value ^= b;
    value *= 1099511628211ull;
  }
  void Add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) Byte(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void Add(std::string_view s) {
    Add(std::uint64_t{s.size()});
    for (const char c : s) Byte(static_cast<std::uint8_t>(c));
  }
};

/// One "X" (complete) slice per clause event: track = SIMD engine,
/// duration = service time, with the queueing delay kept in args so the
/// wait is inspectable without a second slice per event.
void AppendClauseSlice(std::ostringstream& os, const sim::TraceEvent& event,
                       bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":")" << isa::ToString(event.type)
     << R"(","cat":"clause","ph":"X","pid":0,"tid":)" << event.simd
     << R"(,"ts":)" << event.start << R"(,"dur":)"
     << (event.complete - event.start) << R"(,"args":{"wave":)" << event.wave
     << R"(,"clause":)" << event.clause << R"(,"queue_cycles":)"
     << (event.start - event.issue) << "}}";
}

void AppendOccupancyCounter(std::ostringstream& os,
                            const OccupancySample& sample, bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"occupancy","ph":"C","pid":0,"tid":)" << sample.simd
     << R"(,"ts":)" << sample.t << R"(,"args":{"resident_wavefronts":)"
     << sample.resident << "}}";
}

void AppendThreadName(std::ostringstream& os, std::size_t simd,
                      bool& first) {
  if (!first) os << ",\n";
  first = false;
  os << R"({"name":"thread_name","ph":"M","pid":0,"tid":)" << simd
     << R"(,"args":{"name":"SIMD )" << simd << R"("}})";
}

void AppendSanitized(std::string& out, std::string_view part) {
  if (part.empty()) return;
  if (!out.empty()) out.push_back('_');
  for (const char c : part) {
    const auto uc = static_cast<unsigned char>(c);
    out.push_back(std::isalnum(uc) != 0
                      ? static_cast<char>(std::tolower(uc))
                      : '_');
  }
}

}  // namespace

std::string ChromeTraceJson(const Profile& profile) {
  std::ostringstream os;
  os << "{\"traceEvents\":[\n";
  bool first = true;
  // Name every track that appears in either stream.
  std::size_t simd_count = profile.per_simd.size();
  for (const sim::TraceEvent& event : profile.events) {
    simd_count = std::max<std::size_t>(simd_count, event.simd + 1u);
  }
  for (std::size_t simd = 0; simd < simd_count; ++simd) {
    AppendThreadName(os, simd, first);
  }
  for (const sim::TraceEvent& event : profile.events) {
    AppendClauseSlice(os, event, first);
  }
  for (const OccupancySample& sample : profile.occupancy) {
    AppendOccupancyCounter(os, sample, first);
  }
  os << "\n],\"displayTimeUnit\":\"ns\",\"otherData\":{"
     << R"("kernel":")" << report::JsonEscape(profile.kernel)
     << R"(","point":")" << report::JsonEscape(profile.point)
     << R"(","arch":")" << report::JsonEscape(profile.arch)
     << R"(","mode":")" << report::JsonEscape(profile.mode)
     << R"(","type":")" << report::JsonEscape(profile.type)
     << R"(","attempt":)" << profile.attempt << R"(,"dropped_events":)"
     << profile.dropped_events << R"(,"bottleneck":")"
     << sim::ToString(profile.attribution.bottleneck) << "\"}}\n";
  return os.str();
}

std::uint64_t LaunchId(std::string_view program_key, const GpuArch& arch,
                       const sim::LaunchConfig& config) {
  Fnv1a hash;
  hash.Add(program_key);
  hash.Add(arch.name);
  hash.Add(arch.card);
  hash.Add(arch.mem_type);
  for (const std::uint64_t v :
       {std::uint64_t{arch.alu_count}, std::uint64_t{arch.texture_units},
        std::uint64_t{arch.simd_engines}, std::uint64_t{arch.core_clock_mhz},
        std::uint64_t{arch.mem_clock_mhz},
        std::uint64_t{arch.supports_compute},
        std::uint64_t{arch.wavefront_size},
        std::uint64_t{arch.thread_processors_per_simd},
        std::uint64_t{arch.vliw_width}, std::uint64_t{arch.tex_units_per_simd},
        std::uint64_t{arch.gpr_budget_per_thread},
        std::uint64_t{arch.max_wavefronts_per_simd},
        std::uint64_t{arch.clause_temps_per_slot},
        std::uint64_t{arch.max_tex_fetches_per_clause},
        std::uint64_t{arch.max_alu_bundles_per_clause},
        std::uint64_t{arch.l1.size_bytes}, std::uint64_t{arch.l1.line_bytes},
        std::uint64_t{arch.l1.associativity},
        std::uint64_t{arch.l1.two_d_index}, arch.tex_hit_latency,
        arch.tex_miss_stall_cycles, arch.clause_switch_cycles,
        arch.dram.read_latency, arch.dram.row_switch_cycles,
        std::uint64_t{arch.dram.banks}, std::uint64_t{arch.dram.row_bytes},
        arch.global_read_instr_overhead, arch.stream_store_instr_overhead,
        arch.global_write_instr_overhead,
        std::uint64_t{config.domain.width}, std::uint64_t{config.domain.height},
        static_cast<std::uint64_t>(config.mode),
        std::uint64_t{config.block.x}, std::uint64_t{config.block.y},
        std::uint64_t{config.repetitions}}) {
    hash.Add(v);
  }
  for (const double v :
       {arch.tex_bytes_per_unit_cycle, arch.dram.fill_bytes_per_cycle,
        arch.dram.read_bytes_per_cycle, arch.dram.write_bytes_per_cycle,
        arch.stream_store_bytes_per_cycle}) {
    hash.Add(std::bit_cast<std::uint64_t>(v));
  }
  return hash.value;
}

std::string TraceFileName(const Profile& profile) {
  std::string stem;
  AppendSanitized(stem, profile.arch);
  AppendSanitized(stem, profile.mode);
  AppendSanitized(stem, profile.type);
  AppendSanitized(stem, profile.point.empty() ? profile.kernel
                                              : profile.point);
  if (stem.empty()) stem = "launch";
  if (profile.launch_id != 0) {
    static const char kHex[] = "0123456789abcdef";
    stem += '_';
    for (int shift = 60; shift >= 0; shift -= 4) {
      stem += kHex[(profile.launch_id >> shift) & 0xf];
    }
  }
  if (profile.attempt > 1) {
    stem += "_a" + std::to_string(profile.attempt);
  }
  return stem + ".trace.json";
}

std::string TracePath(const Profile& profile, const std::string& dir) {
  std::string path = dir;
  if (!path.empty() && path.back() != '/') path.push_back('/');
  return path + TraceFileName(profile);
}

std::string WriteChromeTrace(const Profile& profile,
                             const std::string& dir) {
  const std::string path = TracePath(profile, dir);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  Require(out.good(),
          "AMDMB_TRACE_DIR: cannot open '" + path + "' for writing");
  out << ChromeTraceJson(profile);
  out.flush();
  Require(out.good(), "AMDMB_TRACE_DIR: short write to '" + path + "'");
  return path;
}

}  // namespace amdmb::prof
