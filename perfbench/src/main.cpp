// perfbench: runs one benchmark workload and prints its metrics.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--tiny] --work-dir <dir>
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer split of
// this workload's layers with --trace 1. Lines before it start with '#' and
// are informational.
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <cli_tree20k|sweep_grid|"
               "serve_mix|net_mesh4> --seed <n> --seconds <s> --trace <0|1> "
               "--work-dir <dir> [--tiny]\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value after " + arg);
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        opts.workload = next();
      } else if (arg == "--seed") {
        opts.seed = std::stoull(next());
      } else if (arg == "--seconds") {
        opts.seconds = std::stod(next());
      } else if (arg == "--trace") {
        opts.trace = std::stoi(next()) != 0;
      } else if (arg == "--work-dir") {
        opts.work_dir = next();
      } else if (arg == "--tiny") {
        opts.tiny = true;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (opts.work_dir.empty()) usage("--work-dir is required");
  if (!(opts.seconds > 0)) usage("--seconds must be positive");

  // A private scratch directory per run, removed on exit.
  opts.work_dir += "/run-" + std::to_string(::getpid());
  std::filesystem::create_directories(opts.work_dir);

  perfbench::Report report;
  int status = 0;
  try {
    if (opts.workload == "cli_tree20k") {
      perfbench::run_cli_tree(opts, report);
    } else if (opts.workload == "sweep_grid") {
      perfbench::run_sweep_grid(opts, report);
    } else if (opts.workload == "serve_mix") {
      perfbench::run_serve_mix(opts, report);
    } else if (opts.workload == "net_mesh4") {
      perfbench::run_net_mesh4(opts, report);
    } else {
      usage("unknown workload '" + opts.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opts.workload << " aborted: " << e.what()
              << "\n";
    status = 1;
  }
  std::filesystem::remove_all(opts.work_dir);
  if (status != 0) return status;

  report.print();
  return 0;
}
