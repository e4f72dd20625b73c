#include "exec/kernel_cache.hpp"

#include <bit>
#include <cstring>

#include "common/status.hpp"

namespace amdmb::exec {

namespace {

void AppendU32(std::string& key, std::uint32_t v) {
  char buf[4];
  std::memcpy(buf, &v, sizeof(v));
  key.append(buf, sizeof(buf));
}

void AppendU8(std::string& key, std::uint8_t v) {
  key.push_back(static_cast<char>(v));
}

}  // namespace

std::string KernelCacheKey(const il::Kernel& kernel,
                           const compiler::CompileOptions& opts) {
  std::string key;
  key.reserve(32 + kernel.code.size() * 16);
  AppendU32(key, opts.max_tex_fetches_per_clause);
  AppendU32(key, opts.max_alu_bundles_per_clause);
  AppendU32(key, opts.clause_temps);
  AppendU32(key, opts.pack.general_lanes);
  AppendU8(key, opts.pack.has_trans_lane ? 1 : 0);

  const il::Signature& sig = kernel.sig;
  AppendU32(key, sig.inputs);
  AppendU32(key, sig.outputs);
  AppendU32(key, sig.constants);
  AppendU8(key, static_cast<std::uint8_t>(sig.type));
  AppendU8(key, static_cast<std::uint8_t>(sig.read_path));
  AppendU8(key, static_cast<std::uint8_t>(sig.write_path));

  AppendU32(key, static_cast<std::uint32_t>(kernel.code.size()));
  for (const il::Inst& inst : kernel.code) {
    AppendU8(key, static_cast<std::uint8_t>(inst.op));
    AppendU32(key, inst.dst);
    AppendU32(key, inst.resource);
    AppendU8(key, static_cast<std::uint8_t>(inst.srcs.size()));
    for (const il::Operand& src : inst.srcs) {
      AppendU8(key, static_cast<std::uint8_t>(src.kind));
      AppendU32(key, src.index);
      AppendU32(key, std::bit_cast<std::uint32_t>(src.literal));
    }
  }
  return key;
}

KernelCache::KernelCache(std::size_t capacity) : capacity_(capacity) {
  Require(capacity >= 1, "KernelCache: capacity must be at least 1");
}

std::shared_ptr<const isa::Program> KernelCache::Compile(
    const il::Kernel& kernel, const GpuArch& arch) {
  return Lookup(kernel, arch).program;
}

CachedProgram KernelCache::Lookup(const il::Kernel& kernel,
                                  const GpuArch& arch) {
  const compiler::CompileOptions opts = compiler::OptionsFor(arch);
  std::string key = KernelCacheKey(kernel, opts);
  {
    const std::lock_guard lock(mutex_);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      it->second.last_used = ++tick_;
      ++stats_.hits;
      return {it->second.program, std::move(key)};
    }
    ++stats_.misses;
  }

  // Compile outside the lock so concurrent misses on different kernels
  // do not serialize. Two racing misses on the *same* key both compile;
  // the loser's insert finds the winner's entry and adopts it.
  auto program =
      std::make_shared<const isa::Program>(compiler::Compile(kernel, opts));

  const std::lock_guard lock(mutex_);
  const auto [it, inserted] =
      entries_.try_emplace(key, Entry{program, ++tick_, {}});
  if (!inserted) {
    it->second.last_used = tick_;
    return {it->second.program, std::move(key)};
  }
  EvictBeyondBounds(it);
  return {std::move(program), std::move(key)};
}

void KernelCache::EvictBeyondBounds(Entries::iterator keep) {
  while (entries_.size() > capacity_ || launch_count_ > kMaxLaunches) {
    const bool for_launches = entries_.size() <= capacity_;
    auto victim = entries_.end();
    for (auto e = entries_.begin(); e != entries_.end(); ++e) {
      if (e == keep) continue;
      if (for_launches && e->second.launches.empty()) continue;
      if (victim == entries_.end() ||
          e->second.last_used < victim->second.last_used) {
        victim = e;
      }
    }
    if (victim == entries_.end()) return;
    launch_count_ -= victim->second.launches.size();
    entries_.erase(victim);
    ++stats_.evictions;
  }
}

std::optional<sim::KernelStats> KernelCache::FindLaunch(
    const std::string& key, const GpuArch& arch,
    const sim::LaunchConfig& config) {
  const std::lock_guard lock(mutex_);
  if (const auto it = entries_.find(key); it != entries_.end()) {
    for (const Launch& launch : it->second.launches) {
      if (launch.config == config && launch.arch == arch) {
        ++stats_.launch_hits;
        return launch.stats;
      }
    }
  }
  ++stats_.launch_misses;
  return std::nullopt;
}

void KernelCache::RememberLaunch(const std::string& key, const GpuArch& arch,
                                 const sim::LaunchConfig& config,
                                 const sim::KernelStats& stats) {
  const std::lock_guard lock(mutex_);
  const auto it = entries_.find(key);
  if (it == entries_.end()) return;
  std::vector<Launch>& launches = it->second.launches;
  for (const Launch& launch : launches) {
    // A racing miss on the same launch already recorded it.
    if (launch.config == config && launch.arch == arch) return;
  }
  if (launches.size() == kMaxLaunches) return;
  launches.push_back({arch, config, stats});
  ++launch_count_;
  EvictBeyondBounds(it);
}

KernelCacheStats KernelCache::Stats() const {
  const std::lock_guard lock(mutex_);
  return stats_;
}

std::size_t KernelCache::Size() const {
  const std::lock_guard lock(mutex_);
  return entries_.size();
}

void KernelCache::Clear() {
  const std::lock_guard lock(mutex_);
  entries_.clear();
  launch_count_ = 0;
  stats_ = KernelCacheStats{};
  tick_ = 0;
}

KernelCache& KernelCache::Shared() {
  static KernelCache cache;
  return cache;
}

}  // namespace amdmb::exec
