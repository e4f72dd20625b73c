#include "generators.hpp"

#include <algorithm>
#include <utility>

#include "common/rng.hpp"
#include "common/status.hpp"
#include "il/printer.hpp"

namespace perfbench {

using amdmb::XorShift128;

namespace {

// Distinct streams from one workload seed.
constexpr std::uint64_t kOrderStream = 0x6669677572657331ull;
constexpr std::uint64_t kKernelStream = 0x6b65726e656c7331ull;
constexpr std::uint64_t kServeStream = 0x7365727665727331ull;

template <typename T>
void Shuffle(std::vector<T>& items, XorShift128& rng) {
  for (std::size_t i = items.size(); i > 1; --i) {
    std::swap(items[i - 1], items[rng.NextBelow(i)]);
  }
}

std::vector<AluKernelSpec> StrataHeads() {
  std::vector<AluKernelSpec> strata;
  for (unsigned inputs = kMinInputs; inputs <= kMaxInputs; ++inputs) {
    for (const auto write : {amdmb::WritePath::kStream,
                             amdmb::WritePath::kGlobal}) {
      for (const auto type :
           {amdmb::DataType::kFloat, amdmb::DataType::kFloat4}) {
        strata.push_back({inputs, kMinRatio, write, type});
      }
    }
  }
  return strata;
}

}  // namespace

std::vector<std::string> FigureOrder(const std::vector<std::string>& slugs,
                                     std::uint64_t seed) {
  std::vector<std::string> order = slugs;
  XorShift128 rng(seed ^ kOrderStream);
  Shuffle(order, rng);
  return order;
}

std::string AluKernelSpec::Name() const {
  return "alu_i" + std::to_string(inputs) + "_r" + std::to_string(ratio) +
         (write_path == amdmb::WritePath::kStream ? "_stream" : "_global") +
         (type == amdmb::DataType::kFloat ? "_f1" : "_f4");
}

amdmb::suite::GenericSpec AluKernelSpec::Generic() const {
  amdmb::suite::GenericSpec spec;
  spec.inputs = inputs;
  spec.outputs = 1;
  spec.alu_ops = amdmb::suite::AluOpsForRatio(ratio, inputs);
  spec.type = type;
  spec.read_path = amdmb::ReadPath::kTexture;
  spec.write_path = write_path;
  spec.name = Name();
  return spec;
}

std::string AluKernelSpec::Il() const {
  return amdmb::il::Print(amdmb::suite::GenerateGeneric(Generic()));
}

std::vector<AluKernelSpec> KernelPool() {
  std::vector<AluKernelSpec> pool;
  for (AluKernelSpec spec : StrataHeads()) {
    for (unsigned ratio = kMinRatio; ratio <= kMaxRatio; ++ratio) {
      spec.ratio = ratio;
      pool.push_back(spec);
    }
  }
  return pool;
}

std::vector<AluKernelSpec> KernelStream(std::uint64_t seed,
                                        std::size_t pairs) {
  amdmb::Require(pairs <= kMaxBlockPairs,
                 "KernelStream: more block pairs than distinct kernels");
  XorShift128 rng(seed ^ kKernelStream);
  const std::vector<AluKernelSpec> strata = StrataHeads();
  // Antithetic ratio pairs per stratum: (8, 64), (9, 63), ... (35, 37);
  // 36 pairs with itself and is left out so the pairs stay distinct.
  std::vector<std::vector<std::pair<unsigned, unsigned>>> ratio_pairs;
  for (std::size_t s = 0; s < strata.size(); ++s) {
    std::vector<std::pair<unsigned, unsigned>> pool;
    for (unsigned r = kMinRatio; r < (kMinRatio + kMaxRatio) / 2; ++r) {
      pool.emplace_back(r, kMinRatio + kMaxRatio - r);
    }
    Shuffle(pool, rng);
    ratio_pairs.push_back(std::move(pool));
  }
  std::vector<AluKernelSpec> stream;
  stream.reserve(pairs * 2 * strata.size());
  for (std::size_t p = 0; p < pairs; ++p) {
    for (int half = 0; half < 2; ++half) {
      std::vector<AluKernelSpec> block;
      for (std::size_t s = 0; s < strata.size(); ++s) {
        AluKernelSpec spec = strata[s];
        spec.ratio = half == 0 ? ratio_pairs[s][p].first
                               : ratio_pairs[s][p].second;
        block.push_back(spec);
      }
      Shuffle(block, rng);
      stream.insert(stream.end(), block.begin(), block.end());
    }
  }
  return stream;
}

std::vector<PlannedRequest> ServeSchedule(const ServeMix& mix,
                                          std::uint64_t seed) {
  amdmb::Require(mix.rounds >= 1 && mix.adaptive_per_figure <= mix.rounds,
                 "ServeSchedule: bad mix");
  XorShift128 rng(seed ^ kServeStream);
  // Which rounds submit each figure adaptively.
  std::vector<std::vector<bool>> adaptive(mix.figures.size());
  for (std::vector<bool>& rounds : adaptive) {
    std::vector<unsigned> order(mix.rounds);
    for (unsigned r = 0; r < mix.rounds; ++r) order[r] = r;
    Shuffle(order, rng);
    rounds.assign(mix.rounds, false);
    for (unsigned k = 0; k < mix.adaptive_per_figure; ++k) {
      rounds[order[k]] = true;
    }
  }
  // Fresh kernels come from the kerncap_alu generator on a stream of
  // their own, so a served kernel never repeats within one schedule.
  const std::size_t kernels = mix.characterize_per_round * mix.rounds;
  const std::vector<AluKernelSpec> stream =
      KernelStream(seed ^ kServeStream, (kernels + 2 * kStrata - 1) /
                                            (2 * kStrata));
  std::size_t next_kernel = 0;

  const double window = mix.seconds / mix.rounds;
  std::vector<PlannedRequest> plan;
  for (unsigned round = 0; round < mix.rounds; ++round) {
    std::vector<PlannedRequest> batch;
    for (std::size_t f = 0; f < mix.figures.size(); ++f) {
      PlannedRequest r;
      r.kind = RequestKind::kSubmit;
      r.figure = mix.figures[f];
      r.adaptive = adaptive[f][round];
      batch.push_back(std::move(r));
    }
    for (unsigned i = 0; i < mix.characterize_per_round; ++i) {
      PlannedRequest r;
      r.kind = RequestKind::kCharacterize;
      r.kernel = stream[next_kernel++];
      batch.push_back(std::move(r));
    }
    for (unsigned i = 0; i < mix.stats_per_round; ++i) batch.push_back({});
    Shuffle(batch, rng);
    std::vector<double> due(batch.size());
    for (double& d : due) d = (round + rng.NextDouble()) * window;
    std::sort(due.begin(), due.end());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].due_s = due[i];
      plan.push_back(std::move(batch[i]));
    }
  }
  return plan;
}

}  // namespace perfbench
