// `check` workload: a closed loop of one job at a time in one process. Each
// job reads a tml_gen fixture from disk and runs parse_prism -> parse_pctl ->
// compile -> check under a per-job deadline, as `tml_check` does.

#include <sys/wait.h>
#include <unistd.h>

#include <iostream>
#include <stdexcept>

#include "perfbench/common.hpp"
#include "perfbench/reference.hpp"
#include "src/casestudies/generator.hpp"
#include "src/checker/check.hpp"
#include "src/checker/reachability.hpp"
#include "src/logic/parser.hpp"
#include "src/mdp/prism_parser.hpp"

namespace perfbench {
namespace {

using namespace tml;

constexpr std::int64_t kJobDeadlineMs = 20000;

struct CheckJob {
  std::string name;
  GeneratorSpec spec;
  std::vector<std::string> formulas;
  std::string goal;  ///< target label of the formulas
  bool quotient = false;
  /// The formulas are unbounded Pmax reachability of `goal` avoiding
  /// "hazard", so the certified interval bracket can be recomputed.
  bool bracketed = false;
  /// The known non-converging instance: counted as a failed op when it
  /// fails, never left out.
  bool known_defect = false;
};

CheckJob make_job(std::string name, GeneratorFamily family, std::size_t size,
                  std::vector<std::string> formulas, std::string goal) {
  CheckJob job;
  job.name = std::move(name);
  job.spec.family = family;
  job.spec.size = size;
  job.formulas = std::move(formulas);
  job.goal = std::move(goal);
  return job;
}

std::vector<CheckJob> check_jobs(std::uint64_t seed) {
  const std::string pmax_delivered = "Pmax=? [ F<=256 \"delivered\" ]";
  const std::string pmax_goal = "Pmax=? [ !\"hazard\" U \"goal\" ]";
  std::vector<CheckJob> jobs;
  jobs.push_back(make_job("wsn-1e6-quotient", GeneratorFamily::kWsnField,
                          111112, {pmax_delivered}, "delivered"));
  jobs.back().quotient = true;
  jobs.push_back(make_job("wsn-jitter-1e5", GeneratorFamily::kWsnField, 11112,
                          {pmax_delivered, "Rmin=? [ F \"delivered\" ]"},
                          "delivered"));
  jobs.back().spec.jitter = 0.02;
  jobs.push_back(make_job("grid-300", GeneratorFamily::kGridRobot, 300,
                          {pmax_goal}, "goal"));
  jobs.back().bracketed = true;
  jobs.push_back(make_job("queue-300", GeneratorFamily::kQueueMesh, 300,
                          {"P=? [ F \"full\" ]"}, "full"));
  jobs.back().bracketed = true;
  for (CheckJob& job : jobs) job.spec.seed = seed;
  // The reproducer of the known defect keeps its own generator seed: with
  // seed 1 the 20x20 grid is the smallest that still fails.
  jobs.push_back(make_job("grid-hazard", GeneratorFamily::kGridRobot, 20,
                          {pmax_goal}, "goal"));
  jobs.back().spec.hazard_density = 0.1;
  jobs.back().spec.seed = 1;
  jobs.back().bracketed = true;
  jobs.back().known_defect = true;
  return jobs;
}

std::string fixture_path(const Args& args, const CheckJob& job) {
  return args.work_dir + "/" + job.name + ".prism";
}

/// Generates the fixtures of `lane` to disk in a forked child, so set-up
/// memory never counts towards the measuring process's peak RSS. The
/// child writes the generator's own time next to the fixtures.
pid_t generate_in_child(const Args& args, const std::vector<CheckJob>& jobs,
                        const std::vector<std::size_t>& lane, int id) {
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid > 0) return pid;
  int code = 0;
  try {
    double generate_ms = 0;
    for (const std::size_t j : lane) {
      const auto start = Clock::now();
      const std::string source = generate_prism(jobs[j].spec);
      generate_ms += ms_since(start);
      write_file(fixture_path(args, jobs[j]), source);
    }
    write_file(args.work_dir + "/generate_ms." + std::to_string(id),
               num(generate_ms));
  } catch (const std::exception& e) {
    std::cerr << "perfbench: set-up failed: " << e.what() << "\n";
    code = 1;
  }
  _exit(code);
}

/// One set-up: the 10^6-state WSN in one child, the other fixtures in a
/// second one running alongside. Returns its wall time in seconds and adds
/// the generators' own time to `generate_ms`.
double set_up(const Args& args, const std::vector<CheckJob>& jobs,
              double& generate_ms) {
  const auto start = Clock::now();
  std::vector<std::size_t> rest;
  for (std::size_t j = 1; j < jobs.size(); ++j) rest.push_back(j);
  const pid_t children[] = {generate_in_child(args, jobs, {0}, 0),
                            generate_in_child(args, jobs, rest, 1)};
  bool ok = true;
  for (const pid_t pid : children) {
    int status = 0;
    ok = waitpid(pid, &status, 0) == pid && WIFEXITED(status) &&
         WEXITSTATUS(status) == 0 && ok;
  }
  if (!ok) throw std::runtime_error("set-up child failed");
  const double elapsed = seconds_since(start);
  generate_ms = 0;
  for (int id = 0; id < 2; ++id) {
    generate_ms += std::stod(
        read_file(args.work_dir + "/generate_ms." + std::to_string(id)));
  }
  return elapsed;
}

struct JobRun {
  double wall_ms = 0;
  double peak_rss_mb = 0;
  std::map<std::string, double> layers;  ///< in-pass layer times
  std::vector<std::optional<double>> values;
  std::size_t quotient_states = 0;
  bool failed = false;  ///< the check threw (error or budget exhausted)
  bool wrong = false;   ///< an output check failed
  std::string failure;
};

/// One job: read -> parse -> compile -> check for each formula. `verify`
/// runs the output checks afterwards, outside the timed section.
JobRun run_job(const Args& args, const CheckJob& job, bool verify,
               Result& result) {
  JobRun run;
  reset_peak_rss();
  const auto job_start = Clock::now();
  auto lap = [&](const char* layer, Clock::time_point since) {
    run.layers[layer] += ms_since(since);
  };
  auto t = Clock::now();
  const std::string source = read_file(fixture_path(args, job));
  lap("read.ms", t);
  t = Clock::now();
  const PrismModel parsed = parse_prism(source);
  lap("parse.prism.ms", t);
  std::vector<StateFormulaPtr> formulas;
  t = Clock::now();
  for (const std::string& text : job.formulas) {
    formulas.push_back(parse_pctl(text));
  }
  lap("parse.pctl.ms", t);
  t = Clock::now();
  const CompiledModel model = compile(parsed.mdp);
  lap("compile.ms", t);
  CheckOptions options;
  options.threads = 1;
  options.quotient = job.quotient;
  for (const StateFormulaPtr& formula : formulas) {
    t = Clock::now();
    options.budget = Budget{};
    options.budget.deadline_in_ms(kJobDeadlineMs);
    try {
      const CheckResult r = check(model, *formula, options);
      run.values.push_back(r.value);
      run.quotient_states = r.quotient_states;
    } catch (const Error& e) {
      run.failed = true;
      run.failure = e.what();
      run.values.push_back(std::nullopt);
    }
    lap("checker.check.ms", t);
  }
  run.wall_ms = ms_since(job_start);
  run.peak_rss_mb = peak_rss_mb();
  if (!verify) return run;

  // Output checks: certified bracket, direct vs quotient route, reference.
  const auto wrong = [&](const std::string& what) {
    run.wrong = true;
    result.wrong(job.name + ": " + what);
  };
  for (std::size_t i = 0; i < formulas.size() && !run.failed; ++i) {
    const double value = run.values[i].value_or(-1.0);
    const std::optional<double> expected = check_reference(job.name, i);
    if (expected && !close_enough(*expected, value)) {
      wrong("value " + num(value) + " differs from reference " +
            num(*expected));
    }
    if (job.quotient || !expected) {
      // The other route: direct for the quotient job, quotiented for the
      // seeded fixtures that have no recorded reference.
      CheckOptions other;
      other.threads = 1;
      other.quotient = !job.quotient;
      const CheckResult alt = check(model, *formulas[i], other);
      if (!alt.value || !close_enough(*alt.value, value)) {
        wrong("direct and quotient routes disagree on " + job.formulas[i]);
      }
    }
    if (job.bracketed) {
      const StateSet goal = model.states_with_label(job.goal);
      const StateSet stay = complement(model.states_with_label("hazard"));
      const SolveResult bracket =
          mdp_until_bracket(model, stay, goal, Objective::kMaximize);
      const StateId s0 = model.initial_state();
      if (value < bracket.lo[s0] || value > bracket.hi[s0]) {
        wrong("value " + num(value) + " outside its bracket [" +
              num(bracket.lo[s0]) + ", " + num(bracket.hi[s0]) + "]");
      }
    }
  }
  return run;
}

struct PassRun {
  double wall_ms = 0;
  std::vector<JobRun> jobs;
  StatsDelta delta;
};

PassRun run_pass(const Args& args, const std::vector<CheckJob>& jobs,
                 bool verify, Result& result) {
  PassRun pass;
  const stats::Snapshot before = stats::snapshot();
  for (const CheckJob& job : jobs) {
    pass.jobs.push_back(run_job(args, job, verify, result));
    // Jobs run back to back; the output checks in between are not timed.
    pass.wall_ms += pass.jobs.back().wall_ms;
  }
  pass.delta = to_delta(before, stats::snapshot());
  return pass;
}

void count_ops(const std::vector<CheckJob>& jobs, const PassRun& pass,
               Result& result) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    ++result.attempted;
    if (pass.jobs[j].failed || pass.jobs[j].wrong) ++result.failed;
  }
}

void note_failures(const std::vector<CheckJob>& jobs, const PassRun& pass,
                   Result& result) {
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobRun& run = pass.jobs[j];
    if (!run.failed) continue;
    result.note("failed op: " + jobs[j].name + (jobs[j].known_defect
                                                    ? " (known defect)"
                                                    : " (UNEXPECTED)") +
                ": " + run.failure + " after " + num(run.wall_ms) + " ms");
    if (!jobs[j].known_defect) result.correct = false;
  }
}

}  // namespace

Result run_check(const Args& args, const Threads&) {
  Result result;
  const std::vector<CheckJob> jobs = check_jobs(args.seed);

  // Set-up: fixture generation in child processes, several times.
  std::vector<double> setup_s;
  double generate_ms = 0;
  for (int i = 0, n = args.trace ? 1 : 3; i < n; ++i) {
    setup_s.push_back(set_up(args, jobs, generate_ms));
  }

  // Untraced passes while the next one still fits in --seconds (the first
  // also checks every output, outside the timed sections).
  std::vector<PassRun> passes;
  double measured_s = 0;
  const double budget_s = args.trace ? 0.0 : args.seconds;
  do {
    passes.push_back(run_pass(args, jobs, passes.empty(), result));
    measured_s += passes.back().wall_ms / 1e3;
  } while (measured_s + passes.back().wall_ms / 1e3 <= budget_s);
  note_failures(jobs, passes.front(), result);

  // Job latency statistics are taken per pass over the jobs that
  // succeeded, then the median over passes, so they mean the same whether
  // one or two passes fit. A failed job (grid-hazard) counts in ok_share,
  // not in latency: its time is the time it takes to give up.
  std::vector<double> pass_ms;
  std::vector<double> pass_p50_ms;
  std::vector<double> pass_max_ms;
  double peak = 0;
  for (const PassRun& pass : passes) {
    pass_ms.push_back(pass.wall_ms);
    count_ops(jobs, pass, result);
    std::vector<double> job_ms;
    for (const JobRun& run : pass.jobs) {
      if (!run.failed && !run.wrong) job_ms.push_back(run.wall_ms);
      peak = std::max(peak, run.peak_rss_mb);
    }
    if (job_ms.empty()) throw std::runtime_error("no check job succeeded");
    pass_p50_ms.push_back(median(job_ms));
    pass_max_ms.push_back(quantile(job_ms, 1.0));
  }
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    std::vector<double> samples;
    for (const PassRun& pass : passes) samples.push_back(pass.jobs[j].wall_ms);
    result.note("job " + jobs[j].name + ": median " + num(median(samples)) +
                " ms over " + std::to_string(samples.size()) + " passes");
  }
  std::string each;
  for (const double ms : pass_ms) each += " " + num(ms / 1e3);
  result.note("check_wall_s = " + num(median(pass_ms) / 1e3) + " s (median of " +
              std::to_string(pass_ms.size()) + " passes:" + each + ")");

  if (!args.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("wall_s", median(pass_ms) / 1e3, "s");
    result.set("p50_ms", median(pass_p50_ms), "ms");
    result.set("tail_ms", median(pass_max_ms), "ms");
    result.set("peak_rss_mb", peak, "MB");
    result.note("peak_rss_mb = " + num(peak) + " MB; job latency p50 " +
                num(median(pass_p50_ms)) + " ms, max " +
                num(median(pass_max_ms)) + " ms (jobs that succeeded; " +
                std::to_string(jobs.size()) + " jobs a pass, median of " +
                std::to_string(passes.size()) + " passes)");
    return result;
  }

  // Traced run: two traced passes (their work counts must match), then
  // the graph precomputations and the quotient as standalone calls.
  stats::set_enabled(true);
  PassRun traced = run_pass(args, jobs, false, result);
  const PassRun again = run_pass(args, jobs, false, result);
  stats::set_enabled(false);
  count_ops(jobs, traced, result);
  count_ops(jobs, again, result);
  std::map<std::string, double> extras;
  extras["work.count_mismatches"] =
      count_mismatches(traced.delta, again.delta, result);
  const double traced_ms = std::min(traced.wall_ms, again.wall_ms);
  extras["trace.overhead_share"] =
      (traced_ms - passes.front().wall_ms) / passes.front().wall_ms;

  std::map<std::string, double> layers;
  layers["casestudies.generate.ms"] = generate_ms;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const JobRun& run = traced.jobs[j];
    double accounted = 0;
    for (const auto& [layer, ms] : run.layers) {
      layers[layer] += ms;
      accounted += ms;
      result.note(jobs[j].name + "." + layer + " = " + num(ms));
    }
    result.note(jobs[j].name + ".remainder.ms = " +
                num(run.wall_ms - accounted) + " (of " + num(run.wall_ms) +
                " ms wall)");
    std::map<std::string, double> standalone;
    {
      const PrismModel parsed = parse_prism(read_file(fixture_path(args, jobs[j])));
      const CompiledModel fresh = compile(parsed.mdp);
      time_graph_layers(fresh, jobs[j].goal, /*dtmc=*/false, standalone);
    }
    for (const auto& [layer, value] : standalone) {
      layers[layer] += value;
      result.note(jobs[j].name + "." + layer + " = " + num(value) +
                  " (standalone)");
    }
  }
  for (const auto& [name, value] : traced.delta.counters) {
    if (value != 0) result.note("stats " + name + " = " + num(value));
  }
  set_per_layer(result, layers, traced.delta, extras);
  return result;
}

}  // namespace perfbench
