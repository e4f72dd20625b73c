// Umbrella header for the micro-benchmark suite — the paper's
// contribution. The suite-wide summary is report::SuiteSummaryMarkdown
// over the figure documents (report/aggregate.hpp).
#pragma once

#include "suite/alu_fetch.hpp"
#include "suite/block_size.hpp"
#include "suite/bottleneck.hpp"
#include "suite/domain_size.hpp"
#include "suite/kernelgen.hpp"
#include "suite/microbench.hpp"
#include "suite/read_latency.hpp"
#include "suite/register_usage.hpp"
#include "suite/write_latency.hpp"
