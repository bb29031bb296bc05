// Shared plumbing of the pipeline benchmark driver: command line, timing,
// percentiles, process memory, stats-registry deltas and the result record
// every workload fills in. See perfbench/README.md for what is measured.

#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/stats.hpp"
#include "src/mdp/compiled.hpp"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< scratch space for fixtures (inside the checkout)
  std::string serve_bin;  ///< tml_serve built alongside the driver
  std::string build_type;
};

/// Pinned parallelism: solver threads for the timed paths of check and
/// repair, daemon request threads and client connections for serve.
struct Threads {
  std::size_t nproc = 1;   ///< CPUs this process may run on
  std::size_t solver = 1;  ///< solver threads in the timed paths
};

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}
inline double ms_since(Clock::time_point start) {
  return seconds_since(start) * 1e3;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double>& values) {
  return quantile(values, 0.5);
}

/// Peak resident set (VmHWM) of a process in MB; pid 0 = this process.
double peak_rss_mb(int pid = 0);
/// Resets this process's VmHWM to its current RSS, so set-up done in the
/// same process does not count towards the measured peak.
void reset_peak_rss();

std::string read_file(const std::string& path);
void write_file(const std::string& path, const std::string& data);

/// One metric of the result line.
struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Stats-registry counters and timers accumulated over one traced phase.
struct StatsDelta {
  std::map<std::string, double> counters;  ///< counters and gauges
  std::map<std::string, double> timer_ms;
  double counter(const std::string& name) const;
  double ms(const std::string& name) const;
};
StatsDelta to_delta(const tml::stats::Snapshot& earlier,
                    const tml::stats::Snapshot& later);

/// Everything a workload reports. `metrics` holds the end-to-end metrics
/// of an untraced run or the per-layer metrics of a traced one; `report`
/// collects human-readable lines that are printed before the result line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> report;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void note(const std::string& line) { report.push_back(line); }
  /// Records a failed output check: the run is incorrect. The caller also
  /// counts the op as failed. `fail_share` and `ok_share` are derived from
  /// the counts by the driver.
  void wrong(const std::string& what);
};

/// Number of work counters that differ between two traced passes over the
/// same inputs; each one is named in the report. The counters checked are
/// the ones the engines' determinism contract makes repeat exactly.
double count_mismatches(const StatsDelta& first, const StatsDelta& second,
                        Result& result);

/// Formats a double with full round-trip precision.
std::string num(double value);

/// Standalone timings of the layers a check calls only implicitly, measured
/// on a fresh compile of one fixture: predecessor index, SCC condensation,
/// maximal end components, the prob0/prob1 precomputations for reaching
/// `goal_label` (the maximizing ones on an MDP), and the bisimulation
/// quotient. Adds the times to layers["graph.*.ms"] and
/// layers["quotient.ms"], and the block and round counts to
/// layers["quotient.blocks"/"quotient.rounds"].
void time_graph_layers(const tml::CompiledModel& fresh,
                       const std::string& goal_label, bool dtmc,
                       std::map<std::string, double>& layers);

/// Sets the per-layer metric set, which is the same on every workload:
/// standalone or in-pass layer times from `layers`, work counters and layer
/// timers from the stats delta of the traced phase, and workload-specific
/// values from `extras`. A layer the workload does not exercise reads 0.
void set_per_layer(Result& result, const std::map<std::string, double>& layers,
                   const StatsDelta& delta,
                   const std::map<std::string, double>& extras);

/// Names of the per-layer metrics, in reporting order.
std::vector<std::string> per_layer_names();

Result run_check(const Args& args, const Threads& threads);
Result run_repair(const Args& args, const Threads& threads);
Result run_serve(const Args& args, const Threads& threads);

}  // namespace perfbench
