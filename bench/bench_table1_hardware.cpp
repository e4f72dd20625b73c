// Table I: GPU hardware features, rendered from the machine
// descriptions, plus derived execution-model identities the paper quotes
// (800 ALUs = 10 SIMDs x 16 TPs x 5 lanes; 256 GPRs per thread; 51
// wavefronts at 5 GPRs).
// The figure definition lives in the suite's supplementary list
// (suite/figures.hpp).
#include "arch/gpu_arch.hpp"
#include "bench_common.hpp"

int main(int argc, char** argv) {
  // The paper's table itself is text; the figure record carries the
  // derived identities as findings.
  std::cout << amdmb::RenderHardwareTable() << "\n";
  return amdmb::bench::RunBenchMain(argc, argv, {"table_i"});
}
