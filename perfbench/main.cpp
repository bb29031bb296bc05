// Pipeline benchmark driver: runs one workload (check, repair or serve) of
// the learn -> check -> repair pipeline against the tml libraries and prints
// a report followed by one JSON result line. Normally started through
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   perfbench --workload check|repair|serve --seed N --seconds S --trace 0|1
//             --work-dir DIR --serve-bin PATH --build-type NAME

#include <sched.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "perfbench/common.hpp"
#include "src/common/parallel.hpp"

namespace {

using perfbench::Args;

int usage() {
  std::cerr << "usage: perfbench --workload check|repair|serve --seed N "
               "--seconds S --trace 0|1 --work-dir DIR --serve-bin PATH "
               "--build-type NAME\n";
  return 2;
}

std::size_t cpus_available() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

std::string load_average() {
  std::ifstream in("/proc/loadavg");
  std::string one, five, fifteen;
  in >> one >> five >> fifteen;
  return one + " " + five + " " + fifteen;
}

std::string result_line(const perfbench::Result& result) {
  std::ostringstream out;
  out << "{\"correct\": " << (result.correct ? "true" : "false")
      << ", \"attempted\": " << result.attempted
      << ", \"failed\": " << result.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : result.metrics) {
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + name + " is not finite");
    }
    out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
        << perfbench::num(metric.value) << ", \"unit\": \"" << metric.unit
        << "\"}";
    first = false;
  }
  out << "}}";
  return out.str();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::stoull(value);
    } else if (flag == "--seconds") {
      args.seconds = std::stod(value);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--work-dir") {
      args.work_dir = value;
    } else if (flag == "--serve-bin") {
      args.serve_bin = value;
    } else if (flag == "--build-type") {
      args.build_type = value;
    } else {
      return usage();
    }
  }
  if (args.workload.empty() || args.work_dir.empty() || args.seconds <= 0) {
    return usage();
  }

  perfbench::Threads threads;
  threads.nproc = cpus_available();
  threads.solver = 1;
  // Pin the library-wide default too: it otherwise follows the host's
  // hardware concurrency, which can exceed the CPUs this process may use.
  tml::set_default_thread_count(threads.solver);

  std::cout << "context: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " nproc=" << threads.nproc << " solver_threads=" << threads.solver
            << " build=" << args.build_type << " loadavg=" << load_average()
            << "\n";
  try {
    perfbench::Result result;
    if (args.workload == "check") {
      result = perfbench::run_check(args, threads);
    } else if (args.workload == "repair") {
      result = perfbench::run_repair(args, threads);
    } else if (args.workload == "serve") {
      result = perfbench::run_serve(args, threads);
    } else {
      return usage();
    }
    if (result.attempted == 0) throw std::runtime_error("no op attempted");
    const double fail_share = static_cast<double>(result.failed) /
                              static_cast<double>(result.attempted);
    result.note("fail_share = " + perfbench::num(fail_share) + " (" +
                std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + " ops)");
    if (!args.trace) result.set("ok_share", 1.0 - fail_share, "ratio");
    for (const std::string& line : result.report) std::cout << line << "\n";
    std::cout << "context-end: loadavg=" << load_average() << "\n";
    std::cout << result_line(result) << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
