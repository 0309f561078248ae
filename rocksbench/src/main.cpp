// rocksbench: the repository's benchmark harness (see ../README.md).
//
//   rocksbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--small] [--trace-out <file>]
//
// Prints human-readable notes, then one JSON line as the last line of
// stdout. Exits 1 when a correctness check failed or the run threw.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "harness.hpp"

using namespace rocksbench;

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "rocksbench: %s\nusage: rocksbench --workload <kickstart_pulse|node_integration|"
               "job_churn|cluster_reinstall> --seed N --seconds S --trace 0|1 [--small] "
               "[--trace-out FILE]\n",
               why);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value().c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value() != "0";
    } else if (arg == "--trace-out") {
      options.trace_out = value();
    } else if (arg == "--small") {
      options.small = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  if (options.seconds <= 0.0) usage("--seconds must be positive");

  Report report;
  try {
    if (options.workload == "kickstart_pulse") {
      run_kickstart_pulse(options, report);
    } else if (options.workload == "node_integration") {
      run_node_integration(options, report);
    } else if (options.workload == "job_churn") {
      run_job_churn(options, report);
    } else if (options.workload == "cluster_reinstall") {
      run_cluster_reinstall(options, report);
    } else {
      usage(("unknown workload '" + options.workload + "'").c_str());
    }
  } catch (const std::exception& error) {
    std::fprintf(stderr, "rocksbench: %s: %s\n", options.workload.c_str(), error.what());
    return 1;
  }
  for (const std::string& note : report.notes) std::printf("%s\n", note.c_str());
  std::printf("%s\n", report.json(options.trace).c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}
