#include "perfbench/common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "src/mdp/graph.hpp"
#include "src/mdp/quotient.hpp"

namespace perfbench {

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double peak_rss_mb(int pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

void reset_peak_rss() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_file(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << data;
  if (!out) throw std::runtime_error("cannot write " + path);
}

double StatsDelta::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

double StatsDelta::ms(const std::string& name) const {
  const auto it = timer_ms.find(name);
  return it == timer_ms.end() ? 0.0 : it->second;
}

StatsDelta to_delta(const tml::stats::Snapshot& earlier,
                    const tml::stats::Snapshot& later) {
  const tml::stats::Snapshot d = tml::stats::delta(earlier, later);
  StatsDelta out;
  for (const auto& [name, value] : d.counters) {
    out.counters[name] = static_cast<double>(value);
  }
  for (const auto& [name, value] : d.gauges) out.counters[name] = value;
  for (const auto& [name, value] : d.timers) {
    out.timer_ms[name] = static_cast<double>(value.total_nanos) / 1e6;
  }
  return out;
}

double count_mismatches(const StatsDelta& first, const StatsDelta& second,
                        Result& result) {
  static const char* const kNames[] = {
      "compile.calls",           "compile.patch_calls",
      "compile.patch_hits",      "checker.interval_sweeps",
      "checker.bounded.sweeps",  "checker.vi.iterations",
      "checker.warm_solves",     "opt.objective_evals",
      "opt.constraint_evals",    "opt.gradient_evals",
      "parametric.states_eliminated", "irl.gradient_iterations"};
  double mismatches = 0;
  for (const char* name : kNames) {
    if (first.counter(name) != second.counter(name)) {
      ++mismatches;
      result.note(std::string("work count differs between traced passes: ") +
                  name + " " + num(first.counter(name)) + " vs " +
                  num(second.counter(name)));
    }
  }
  return mismatches;
}

void Result::wrong(const std::string& what) {
  correct = false;
  note("WRONG OUTPUT: " + what);
}

std::string num(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void time_graph_layers(const tml::CompiledModel& fresh,
                       const std::string& goal_label, bool dtmc,
                       std::map<std::string, double>& layers) {
  using namespace tml;
  const StateSet goal = fresh.states_with_label(goal_label);
  auto timed = [&](const char* name, auto&& fn) {
    const auto start = Clock::now();
    fn();
    layers[name] += ms_since(start);
  };
  // The first predecessors() call builds the CSC index every backward
  // graph algorithm below reuses.
  timed("graph.preds.ms", [&] { (void)fresh.predecessors(fresh.initial_state()); });
  timed("graph.scc.ms", [&] { (void)scc_decomposition(fresh); });
  timed("graph.mec.ms", [&] {
    (void)maximal_end_components(fresh, complement(goal));
  });
  if (dtmc) {
    timed("graph.prob0.ms", [&] { (void)dtmc_prob0(fresh, goal); });
    timed("graph.prob1.ms", [&] { (void)dtmc_prob1(fresh, goal); });
  } else {
    timed("graph.prob0.ms", [&] { (void)reachable_existential(fresh, goal); });
    timed("graph.prob1.ms", [&] { (void)prob1_existential(fresh, goal); });
  }
  QuotientResult q;
  timed("quotient.ms", [&] { q = bisimulation_quotient(fresh); });
  layers["quotient.blocks"] += static_cast<double>(q.num_blocks());
  layers["quotient.rounds"] += static_cast<double>(q.iterations);
}

namespace {

enum class Source { kLayer, kCounter, kTimer, kExtra };

struct LayerMetric {
  const char* name;
  const char* unit;
  Source source;
  const char* key;  ///< key into layers / counters / timers / extras
};

// The per-layer metric set, identical on every workload (BENCHMARK.json
// lists the same names). A layer the workload never calls reads 0.
const LayerMetric kPerLayer[] = {
    {"read.ms", "ms", Source::kLayer, "read.ms"},
    {"parse.prism.ms", "ms", Source::kLayer, "parse.prism.ms"},
    {"parse.pctl.ms", "ms", Source::kLayer, "parse.pctl.ms"},
    {"compile.ms", "ms", Source::kLayer, "compile.ms"},
    {"graph.preds.ms", "ms", Source::kLayer, "graph.preds.ms"},
    {"graph.scc.ms", "ms", Source::kLayer, "graph.scc.ms"},
    {"graph.mec.ms", "ms", Source::kLayer, "graph.mec.ms"},
    {"graph.prob0.ms", "ms", Source::kLayer, "graph.prob0.ms"},
    {"graph.prob1.ms", "ms", Source::kLayer, "graph.prob1.ms"},
    {"quotient.ms", "ms", Source::kLayer, "quotient.ms"},
    {"checker.check.ms", "ms", Source::kLayer, "checker.check.ms"},
    {"casestudies.generate.ms", "ms", Source::kLayer,
     "casestudies.generate.ms"},
    {"parametric.elimination.ms", "ms", Source::kTimer,
     "parametric.elimination.time"},
    {"opt.solve.ms", "ms", Source::kTimer, "opt.solve.time"},
    {"irl.fit.ms", "ms", Source::kTimer, "irl.fit.time"},
    {"core.session.batch.ms", "ms", Source::kTimer, "core.session.batch.time"},
    {"serve.wire.ms", "ms", Source::kExtra, "serve.wire.ms"},
    {"serve.cache.hit_share", "ratio", Source::kExtra, "serve.cache.hit_share"},
    {"serve.compiles_per_new_model", "ratio", Source::kExtra,
     "serve.compiles_per_new_model"},
    {"trace.overhead_share", "ratio", Source::kExtra, "trace.overhead_share"},
    {"compile.calls", "count", Source::kCounter, "compile.calls"},
    {"compile.patch_calls", "count", Source::kCounter, "compile.patch_calls"},
    {"compile.patch_hits", "count", Source::kCounter, "compile.patch_hits"},
    {"quotient.blocks", "count", Source::kLayer, "quotient.blocks"},
    {"quotient.rounds", "count", Source::kLayer, "quotient.rounds"},
    {"checker.interval_sweeps", "count", Source::kCounter,
     "checker.interval_sweeps"},
    {"checker.bounded.sweeps", "count", Source::kCounter,
     "checker.bounded.sweeps"},
    {"checker.vi.iterations", "count", Source::kCounter,
     "checker.vi.iterations"},
    {"checker.warm_solves", "count", Source::kCounter, "checker.warm_solves"},
    {"checker.warm_blocks_skipped", "count", Source::kCounter,
     "checker.warm_blocks_skipped"},
    {"checker.warm_seed_rejections", "count", Source::kCounter,
     "checker.warm_seed_rejections"},
    {"parametric.states_eliminated", "count", Source::kCounter,
     "parametric.states_eliminated"},
    {"parametric.fill_in_edges", "count", Source::kCounter,
     "parametric.fill_in_edges"},
    {"opt.objective_evals", "count", Source::kCounter, "opt.objective_evals"},
    {"opt.constraint_evals", "count", Source::kCounter,
     "opt.constraint_evals"},
    {"opt.gradient_evals", "count", Source::kCounter, "opt.gradient_evals"},
    {"irl.gradient_iterations", "count", Source::kCounter,
     "irl.gradient_iterations"},
    {"core.session.repairs", "count", Source::kCounter,
     "core.session.repairs"},
    {"serve.cache.misses", "count", Source::kCounter, "serve.cache.misses"},
    {"serve.cache.evictions", "count", Source::kCounter,
     "serve.cache.evictions"},
    {"serve.queue_peak", "count", Source::kCounter, "serve.queue_peak"},
    {"serve.rejected", "count", Source::kCounter, "serve.rejected"},
    {"serve.deadline_exhausted", "count", Source::kCounter,
     "serve.deadline_exhausted"},
    {"budget.exhausted", "count", Source::kCounter, "budget.exhausted"},
    {"work.count_mismatches", "count", Source::kExtra,
     "work.count_mismatches"},
};

}  // namespace

std::vector<std::string> per_layer_names() {
  std::vector<std::string> names;
  for (const LayerMetric& m : kPerLayer) names.push_back(m.name);
  return names;
}

void set_per_layer(Result& result, const std::map<std::string, double>& layers,
                   const StatsDelta& delta,
                   const std::map<std::string, double>& extras) {
  auto lookup = [](const std::map<std::string, double>& map,
                   const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  for (const LayerMetric& m : kPerLayer) {
    double value = 0.0;
    switch (m.source) {
      case Source::kLayer: value = lookup(layers, m.key); break;
      case Source::kCounter: value = delta.counter(m.key); break;
      case Source::kTimer: value = delta.ms(m.key); break;
      case Source::kExtra: value = lookup(extras, m.key); break;
    }
    result.set(m.name, value, m.unit);
  }
}

}  // namespace perfbench
