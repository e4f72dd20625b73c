// amdmb_bench — the repository benchmark program.
//
// usage: amdmb_bench --workload figures_quick|kerncap_alu|serve_open
//                    --seed N --seconds S --trace 0|1
//                    [--serve-binary PATH] [--reference-dir DIR]
//                    [--scratch-dir DIR] [--rate R]
//        amdmb_bench --write-reference DIR
//
// Untraced (--trace 0) runs print the end-to-end metrics; traced runs
// print the per-layer metrics and write a Chrome trace of their spans to
// the scratch directory. Human-readable lines come first; the last
// stdout line is one JSON object {"correct", "attempted", "failed",
// "metrics"}. Exit status 1 when any document mismatched or any
// operation failed, 2 on bad usage.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "common/status.hpp"
#include "common/version.hpp"
#include "report/json.hpp"
#include "spans.hpp"
#include "workloads.hpp"

extern char** environ;

namespace {

using namespace perfbench;

/// Set-up repetitions per run; setup_s is their median.
constexpr int kSetupProbes = 7;

/// Pins the environment the program under test sees: no inherited
/// AMDMB_* knob (faults, profiling, adaptive, quick, ...) may change a
/// document, and the sweep pool width is fixed at 2 for this process and
/// the daemon it spawns, so documents (which record it) match the
/// reference.
void PinEnvironment() {
  std::vector<std::string> names;
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string entry = *e;
    if (entry.rfind("AMDMB_", 0) == 0) {
      names.push_back(entry.substr(0, entry.find('=')));
    }
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  setenv("AMDMB_THREADS", "2", 1);
}

std::string FirstLineOf(const char* file, const char* prefix) {
  std::ifstream in(file);
  std::string line;
  while (std::getline(in, line)) {
    if (prefix == nullptr || line.rfind(prefix, 0) == 0) return line;
  }
  return "";
}

/// es989-style environment snapshot, printed and kept with the run.
std::string EnvironmentJson() {
  using amdmb::report::JsonEscape;
  std::string cpu = FirstLineOf("/proc/cpuinfo", "model name");
  if (const auto colon = cpu.find(": "); colon != std::string::npos) {
    cpu = cpu.substr(colon + 2);
  }
  std::istringstream load(FirstLineOf("/proc/loadavg", nullptr));
  std::string load1, load5, load15;
  load >> load1 >> load5 >> load15;
  std::ostringstream os;
  os << "{\"cpu\": \"" << JsonEscape(cpu)
     << "\", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"compiler\": \"" << JsonEscape(__VERSION__)
     << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
     << "\", \"git_describe\": \"" << JsonEscape(amdmb::SuiteVersion())
     << "\", \"loadavg\": [" << load1 << ", " << load5 << ", " << load15
     << "]}";
  return os.str();
}

/// Runs this binary in --setup-only mode and times it from spawn until
/// the child reports it is ready for its first timed operation.
double ProbeSetupSeconds(const std::vector<std::string>& args) {
  int fds[2];
  amdmb::Require(pipe(fds) == 0, "setup probe: pipe failed");
  std::vector<std::string> argv_store = args;
  std::vector<char*> argv;
  for (std::string& a : argv_store) argv.push_back(a.data());
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  pid_t pid = 0;
  const Clock::time_point start = Clock::now();
  const int rc = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  amdmb::Require(rc == 0, "setup probe: spawn failed");
  char byte = 0;
  const ssize_t got = read(fds[0], &byte, 1);
  const Clock::time_point ready = Clock::now();
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  amdmb::Require(got == 1 && WIFEXITED(status) && WEXITSTATUS(status) == 0,
                 "setup probe failed");
  return Seconds(start, ready);
}

int Usage() {
  std::cerr << "usage: amdmb_bench --workload figures_quick|kerncap_alu|"
               "serve_open --seed N --seconds S --trace 0|1\n"
               "                   [--serve-binary PATH] [--reference-dir DIR]"
               " [--scratch-dir DIR] [--rate R]\n"
               "       amdmb_bench --write-reference DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  PinEnvironment();
  Options options;
  bool setup_only = false;
  std::string write_reference;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--setup-only") {
        setup_only = true;
        continue;
      }
      if (i + 1 >= argc) return Usage();
      const std::string value = argv[++i];
      if (arg == "--workload") options.workload = value;
      else if (arg == "--seed") options.seed = std::stoull(value);
      else if (arg == "--seconds") options.seconds = std::stod(value);
      else if (arg == "--trace") options.trace = value == "1";
      else if (arg == "--serve-binary") options.serve_binary = value;
      else if (arg == "--reference-dir") options.reference_dir = value;
      else if (arg == "--scratch-dir") options.scratch_dir = value;
      else if (arg == "--rate") options.rate = std::stod(value);
      else if (arg == "--write-reference") write_reference = value;
      else return Usage();
    }
  } catch (const std::exception&) {
    return Usage();
  }

  try {
    if (!write_reference.empty()) {
      WriteReference(write_reference);
      return 0;
    }
    if (options.workload != "figures_quick" &&
        options.workload != "kerncap_alu" &&
        options.workload != "serve_open") {
      return Usage();
    }
    if (options.seconds <= 0) return Usage();
    if (setup_only) {
      SetupOnly(options, [] {
        std::fputc('\n', stdout);
        std::fflush(stdout);
      });
      return 0;
    }

    const std::string environment = EnvironmentJson();
    std::filesystem::create_directories(options.scratch_dir);
    std::ofstream(options.scratch_dir / "system.json") << environment << "\n";
    std::cout << "environment " << environment << "\n";

    double setup_s = 0.0;
    if (!options.trace) {
      const std::vector<std::string> probe = {
          "amdmb_bench", "--setup-only", "--workload", options.workload,
          "--seed", std::to_string(options.seed), "--seconds",
          std::to_string(options.seconds), "--serve-binary",
          options.serve_binary.string(), "--reference-dir",
          options.reference_dir.string(), "--scratch-dir",
          options.scratch_dir.string()};
      std::vector<double> samples;
      for (int k = 0; k < kSetupProbes; ++k) {
        samples.push_back(ProbeSetupSeconds(probe));
      }
      setup_s = Quantile(samples, 50);
    }

    RunResult result = options.workload == "figures_quick"
                           ? RunFiguresQuick(options)
                       : options.workload == "kerncap_alu"
                           ? RunKerncapAlu(options)
                           : RunServeOpen(options);
    if (!options.trace) result.Add("setup_s", "s", setup_s);
    result.AddExtra("failed_frac", "ratio",
                    static_cast<double>(result.failed) /
                        std::max<std::size_t>(result.attempted, 1));
    std::cout << options.workload << " seed " << options.seed
              << (options.trace ? " (traced)" : "") << ":\n"
              << HumanLines(result.metrics) << HumanLines(result.extra);
    if (!result.Correct()) {
      std::cerr << "amdmb_bench: " << result.failed << " of "
                << result.attempted
                << " operations failed; first: " << result.first_failure
                << "\n";
    }
    std::cout << ResultLine(result) << std::endl;
    return result.Correct() ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "amdmb_bench: " << e.what() << "\n";
    return 1;
  }
}
