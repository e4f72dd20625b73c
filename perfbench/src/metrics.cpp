#include "metrics.hpp"

#include <sys/resource.h>

#include <fstream>
#include <sstream>

#include "common/stats.hpp"
#include "report/json.hpp"

namespace perfbench {

using amdmb::report::JsonEscape;
using amdmb::report::JsonNumber;

std::string ResultLine(const RunResult& result) {
  std::ostringstream os;
  os << "{\"correct\": " << (result.Correct() ? "true" : "false")
     << ", \"attempted\": " << result.attempted
     << ", \"failed\": " << result.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    os << (i ? ", " : "") << "\"" << JsonEscape(m.name)
       << "\": {\"value\": " << JsonNumber(m.value) << ", \"unit\": \""
       << JsonEscape(m.unit) << "\"}";
  }
  os << "}}";
  return os.str();
}

std::string HumanLines(const std::vector<Metric>& metrics) {
  std::ostringstream os;
  for (const Metric& m : metrics) {
    os << "  " << m.name << " " << JsonNumber(m.value) << " " << m.unit
       << "\n";
  }
  return os.str();
}

double Quantile(const std::vector<double>& samples, double p) {
  return amdmb::Percentile(samples, p);
}

double SelfPeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ProcessPeakRssMb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
