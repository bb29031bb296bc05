// `repair` workload: closed-loop jobs in sequence — the paper's three §V
// tables, configured exactly as the bench/table_* binaries, plus one
// streaming RepairSession fed seeded trajectory batches.

#include <stdexcept>

#include "perfbench/common.hpp"
#include "perfbench/reference.hpp"
#include "src/casestudies/car.hpp"
#include "src/casestudies/generator.hpp"
#include "src/casestudies/wsn.hpp"
#include "src/checker/check.hpp"
#include "src/common/parallel.hpp"
#include "src/common/rng.hpp"
#include "src/common/table.hpp"
#include "src/core/data_repair.hpp"
#include "src/core/model_repair.hpp"
#include "src/core/repair_session.hpp"
#include "src/core/reward_repair.hpp"
#include "src/irl/max_ent_irl.hpp"
#include "src/learn/mle.hpp"
#include "src/logic/parser.hpp"
#include "src/logic/trajectory_rule.hpp"
#include "src/mdp/prism_parser.hpp"
#include "src/mdp/simulate.hpp"
#include "src/mdp/solver.hpp"

namespace perfbench {
namespace {

using namespace tml;

/// Accumulates the time spent in parse_pctl calls made by the jobs.
struct PctlTimer {
  double ms = 0;
  StateFormulaPtr parse(const std::string& text) {
    const auto start = Clock::now();
    StateFormulaPtr formula = parse_pctl(text);
    ms += ms_since(start);
    return formula;
  }
};

// ---- the paper's tables (cells in the order the table binaries print) ----

std::vector<std::string> car_reward_repair() {
  const Mdp car = build_car_mdp();
  const StateFeatures features = car_features(car);
  const TrajectoryDataset expert = car_expert_demonstrations(car);
  const auto verdict = [&](const Policy& p) {
    return std::string(car_policy_unsafe(car, p) ? "UNSAFE" : "safe");
  };
  std::vector<std::string> cells;
  const auto add_theta = [&](const std::vector<double>& theta) {
    for (int i = 0; i < 3; ++i) cells.push_back(format_double(theta[i], 3));
  };

  IrlOptions irl_options;
  irl_options.horizon = 10;
  irl_options.learning_rate = 0.1;
  irl_options.max_iterations = 4000;
  const IrlResult irl = max_ent_irl(car, features, expert, irl_options);
  const double discount = 0.9;
  add_theta(irl.theta);
  cells.push_back(
      verdict(optimal_policy_for_theta(car, features, irl.theta, discount)));

  QRepairConfig q_config;
  q_config.discount = discount;
  q_config.frozen = {0, 2};
  q_config.max_weight_change = 6.0;
  const std::vector<QDominanceConstraint> constraints{{1, 1, 0, 1e-3}};
  const QRepairResult repaired = reward_repair_q_constraints(
      car, features, irl.theta, constraints, q_config);
  QRepairConfig free_config = q_config;
  free_config.frozen.clear();
  const QRepairResult free_repair = reward_repair_q_constraints(
      car, features, irl.theta, constraints, free_config);
  for (const QRepairResult* r : {&repaired, &free_repair}) {
    if (!r->feasible()) throw std::runtime_error("car: repair infeasible");
    add_theta(r->theta_after);
    cells.push_back(verdict(r->policy_after));
  }
  cells.push_back(format_double(repaired.constraint_slack[0], 4));
  cells.push_back(format_double(repaired.cost, 4));

  const std::vector<WeightedRule> rules{
      {rules::never_visit_label("unsafe"), 8.0, "G !unsafe"}};
  ProjectionConfig projection_config;
  projection_config.horizon = 10;
  projection_config.num_samples = 4000;
  projection_config.refit.project_unit_ball = false;
  projection_config.refit.learning_rate = 0.2;
  projection_config.refit.max_iterations = 6000;
  const ProjectionResult projection = reward_repair_projection(
      car, features, irl.theta, rules, projection_config);
  cells.push_back(format_double(projection.satisfaction_before[0], 4));
  cells.push_back(format_double(projection.satisfaction_after[0], 4));
  cells.push_back(format_double(projection.satisfaction_repaired[0], 4));
  cells.push_back(format_double(projection.kl_divergence, 4));
  add_theta(projection.theta_after);
  cells.push_back(verdict(optimal_policy_for_theta(
      car, features, projection.theta_after, discount)));
  return cells;
}

std::vector<std::string> wsn_model_repair(PctlTimer& pctl) {
  const WsnConfig config;
  const double max_correction = 0.08;
  const Mdp base = build_wsn_mdp(config);
  std::vector<std::string> cells;
  std::string epsilon;
  for (const double x : {100.0, 40.0, 19.0}) {
    const StateFormulaPtr property =
        pctl.parse("Rmin<=" + format_double(x, 6) + " [ F \"delivered\" ]");
    const CheckResult before = check(base, *property);
    cells.push_back(format_double(before.value.value(), 5));
    if (before.satisfied) {
      cells.push_back("satisfied");
      continue;
    }
    const MdpModelRepairResult result = mdp_model_repair(
        base, *property,
        [&](const Dtmc& induced) {
          return wsn_perturbation(config, induced, max_correction);
        },
        [&](std::span<const double> v) {
          return build_wsn_mdp(config, v[0], v[1]);
        });
    if (result.inner.feasible()) {
      cells.push_back(format_double(result.inner.variable_values[0], 3));
      cells.push_back(format_double(result.inner.variable_values[1], 3));
      cells.push_back(format_double(result.inner.achieved, 5));
      cells.push_back(result.inner.recheck_passed ? "yes" : "NO");
      epsilon = format_double(result.inner.epsilon_bisimilarity, 3);
    } else {
      cells.push_back("INFEASIBLE");
      cells.push_back(format_double(result.inner.achieved, 5));
    }
  }
  cells.push_back(epsilon);
  return cells;
}

std::vector<std::string> wsn_data_repair(PctlTimer& pctl) {
  const WsnConfig config;
  const Mdp mdp = build_wsn_mdp(config);
  const StateSet delivered = mdp.states_with_label("delivered");
  const Policy routing =
      total_reward_to_target(mdp, delivered, Objective::kMinimize).policy;
  const Dtmc induced = mdp.induced_dtmc(routing);
  const TrajectoryDataset traces = generate_wsn_traces(mdp, 200, 42);
  const WsnDataRepairSetup setup = wsn_data_repair_setup(mdp, induced, traces);
  const StateFormulaPtr property = pctl.parse("R<=19 [ F \"delivered\" ]");
  const Dtmc learned = mle_dtmc(induced, setup.step_data);
  std::vector<std::string> cells;
  cells.push_back(format_double(check(learned, *property).value.value(), 5));
  DataRepairConfig repair_config;
  repair_config.pseudocount = 1e-3;
  const DataRepairResult result = data_repair(
      induced, setup.step_data, setup.groups, *property, repair_config);
  for (std::size_t g = 0; g < result.group_names.size(); ++g) {
    cells.push_back(result.keep_weights.empty()
                        ? "-"
                        : format_double(result.keep_weights[g], 4));
    cells.push_back(result.drop_fractions.empty()
                        ? "-"
                        : format_double(result.drop_fractions[g], 4));
  }
  cells.push_back(to_string(result.status));
  cells.push_back(format_double(result.achieved, 5));
  cells.push_back(result.recheck_passed ? "passed" : "FAILED");
  return cells;
}

// ---- the streaming session ---------------------------------------------

constexpr std::size_t kStreamGrid = 6;
constexpr std::uint64_t kStreamGridSeed = 7;
constexpr double kStreamHazard = 0.15;
constexpr std::size_t kSessions = 2;
constexpr std::size_t kBatchesPerSession = 64;
constexpr std::size_t kTrajectoriesPerBatch = 1000;
/// Every kDriftPeriod-th batch comes from a degraded plant.
constexpr std::size_t kDriftPeriod = 4;
/// Trajectory weight grows by this factor per batch, so the learner tracks
/// recent data (exponential forgetting through weighted MLE).
constexpr double kWeightGrowth = 3.0;
/// In the degraded plant each route slip into a hazard has this
/// probability (1/8 nominally), taken from the intended move.
constexpr double kDriftedSlip = 0.5;
/// Repair variables move up to this much probability between a route slip
/// and its intended move: enough to undo the whole drift.
constexpr double kRepairBox = 0.3;

/// A transition the degraded plant worsens and the repair class steers:
/// from `state`, probability moves between the intended move to `main`
/// and the slip into the hazard state `hazard`.
struct Slip {
  StateId state = 0;
  StateId main = 0;
  StateId hazard = 0;
};

/// The hazard slips of the route: following the most likely move from the
/// initial state until a state repeats, each transition of a visited state
/// into a "hazard" state other than that move.
std::vector<Slip> route_slips(const Dtmc& chain) {
  std::vector<Slip> slips;
  std::vector<bool> seen(chain.num_states(), false);
  for (StateId s = chain.initial_state(); !seen[s];) {
    seen[s] = true;
    const auto& row = chain.transitions(s);
    std::size_t main = 0;
    for (std::size_t k = 1; k < row.size(); ++k) {
      if (row[k].probability > row[main].probability) main = k;
    }
    for (std::size_t k = 0; k < row.size(); ++k) {
      if (k != main && chain.has_label(row[k].target, "hazard")) {
        slips.push_back({s, row[main].target, row[k].target});
      }
    }
    s = row[main].target;
  }
  return slips;
}

/// Repair class "steer away from hazards": one balanced variable per route
/// slip. Elimination cost grows steeply with the variable count, so the
/// class stays as small as the drift it has to undo.
PerturbationScheme hazard_scheme(const Dtmc& chain,
                                 const std::vector<Slip>& slips) {
  PerturbationScheme scheme(chain);
  for (const Slip& slip : slips) {
    const Var v = scheme.add_variable("z" + std::to_string(slip.state) + "_" +
                                          std::to_string(slip.hazard),
                                      -kRepairBox, kRepairBox);
    scheme.attach_balanced(v, slip.state, slip.main, slip.hazard);
  }
  return scheme;
}

/// Zig-zag route to the far corner: right on even diagonals, down on odd
/// ones, straight along the last row/column.
Policy zigzag_policy(const Mdp& grid, std::size_t w) {
  Policy policy;
  policy.choice_index.assign(grid.num_states(), 0);
  for (std::size_t y = 0; y < w; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const StateId s = static_cast<StateId>(y * w + x);
      if (grid.choices(s).size() < 4) continue;  // absorbing: "stay"
      const bool right = y == w - 1 || (x < w - 1 && (x + y) % 2 == 0);
      policy.choice_index[s] = right ? 3 : 1;  // up, down, left, right
    }
  }
  return policy;
}

/// The same chain with every route slip raised to kDriftedSlip; same
/// support, so the session's structure still fits its data.
Dtmc degraded(const Dtmc& chain, const std::vector<Slip>& slips) {
  Dtmc out = chain;
  for (const Slip& slip : slips) {
    std::vector<Transition> row = out.transitions(slip.state);
    double raise = 0;
    for (Transition& t : row) {
      if (t.target == slip.hazard) {
        raise = kDriftedSlip - t.probability;
        t.probability = kDriftedSlip;
      }
    }
    for (Transition& t : row) {
      if (t.target == slip.main) t.probability -= raise;
    }
    out.set_transitions(slip.state, std::move(row));
  }
  return out;
}

struct StreamFixture {
  std::string path;  ///< PRISM source of the grid MDP on disk
  Dtmc structure;
  std::vector<Slip> slips;  ///< route slips of the structure
  double bound = 0;  ///< of the property P<=bound [ F "hazard" ]
  std::string property_text;
  std::vector<std::vector<TrajectoryDataset>> sessions;
};

StreamFixture make_stream(const Args& args, double& generate_ms) {
  StreamFixture fx;
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kGridRobot;
  spec.size = kStreamGrid;
  spec.hazard_density = kStreamHazard;
  spec.seed = kStreamGridSeed;
  const auto start = Clock::now();
  const std::string source = generate_prism(spec);
  generate_ms += ms_since(start);
  fx.path = args.work_dir + "/stream-grid.prism";
  write_file(fx.path, source);

  const Mdp grid = parse_prism(read_file(fx.path)).mdp;
  fx.structure = grid.induced_dtmc(zigzag_policy(grid, kStreamGrid));
  fx.slips = route_slips(fx.structure);
  if (fx.slips.empty()) throw std::runtime_error("stream route has no slip");
  const Dtmc drifted = degraded(fx.structure, fx.slips);
  const StateSet hazard = fx.structure.states_with_label("hazard");
  const auto p_hazard = [&](const Dtmc& chain) {
    return check(chain, "P=? [ F \"hazard\" ]").value.value();
  };
  const double nominal = p_hazard(fx.structure);
  const double worst = p_hazard(drifted);
  // Bound halfway between the nominal and the drifted plant: a drift batch
  // pushes the weighted estimate over it, the following nominal batch back
  // under. Over seeds 1-1000 the estimate after a drift batch lies at least
  // 0.571 of the way from nominal to drifted, and after a nominal batch at
  // most 0.373, so every drift batch and no other triggers a repair.
  fx.bound = nominal + 0.5 * (worst - nominal);
  fx.property_text = "P<=" + num(fx.bound) + " [ F \"hazard\" ]";

  SimulationOptions sim;
  sim.max_steps = 200;
  sim.absorbing = set_union(hazard, fx.structure.states_with_label("goal"));
  const Mdp plant = fx.structure.as_mdp();
  const Mdp drifted_plant = drifted.as_mdp();
  Policy only;
  only.choice_index.assign(plant.num_states(), 0);
  Rng rng(args.seed);
  for (std::size_t s = 0; s < kSessions; ++s) {
    std::vector<TrajectoryDataset> batches;
    double weight = 1.0;
    for (std::size_t b = 0; b < kBatchesPerSession; ++b) {
      const bool drift = b % kDriftPeriod == kDriftPeriod - 1;
      TrajectoryDataset batch = simulate_dataset(
          drift ? drifted_plant : plant, only, rng, kTrajectoriesPerBatch, sim);
      batch.weights.assign(batch.size(), weight);
      weight *= kWeightGrowth;
      batches.push_back(std::move(batch));
    }
    fx.sessions.push_back(std::move(batches));
  }
  return fx;
}

struct StreamRun {
  std::vector<double> batch_ms;
  std::vector<std::string> reports;  ///< encode_session_report per session
  std::size_t repairs = 0;
  std::size_t batches = 0;
  std::size_t failed = 0;             ///< batches whose outcome is not OK
  std::vector<std::string> problems;  ///< one line per failed batch
};

/// Why a batch's outcome is not OK, or "" when it is. Each drift batch and
/// no other must be found violated and repaired to a satisfying chain
/// within budget; the final chain's certified bracket must meet the bound.
std::string batch_problem(const StreamFixture& fx, const BatchOutcome& o) {
  const bool drift = o.index % kDriftPeriod == kDriftPeriod - 1;
  if (o.budget_status != BudgetStatus::kOk) {
    return std::string("partial (budget stop ") + to_string(o.budget_stop) + ")";
  }
  if (o.violated != drift) {
    return std::string(drift ? "drift batch not" : "nominal batch") +
           " found violated";
  }
  if (o.repaired != o.violated) return "repaired != violated";
  if (o.repaired && !o.repair_feasible) return "Model Repair infeasible";
  if (o.hi > fx.bound) {
    return "final bracket [" + num(o.lo) + ", " + num(o.hi) +
           "] exceeds the bound " + num(fx.bound);
  }
  return "";
}

StreamRun run_stream(const StreamFixture& fx, PctlTimer& pctl,
                     std::size_t threads) {
  StreamRun run;
  for (std::size_t s = 0; s < fx.sessions.size(); ++s) {
    const auto& batches = fx.sessions[s];
    RepairSessionConfig config;
    config.scheme_for = [&fx](const Dtmc& chain) {
      return hazard_scheme(chain, fx.slips);
    };
    config.expected_batches = batches.size();
    config.threads = threads;
    RepairSession session(fx.structure, pctl.parse(fx.property_text),
                          std::move(config));
    for (const TrajectoryDataset& batch : batches) {
      const auto start = Clock::now();
      const BatchOutcome& outcome = session.feed(batch);
      run.batch_ms.push_back(ms_since(start));
      const std::string problem = batch_problem(fx, outcome);
      if (!problem.empty()) {
        ++run.failed;
        run.problems.push_back("stream session " + std::to_string(s) +
                               " batch " + std::to_string(outcome.index) +
                               ": " + problem);
      }
    }
    run.repairs += session.report().repairs;
    run.batches += batches.size();
    run.reports.push_back(encode_session_report(session.report()));
  }
  return run;
}

// ---- passes --------------------------------------------------------------

const char* const kTables[] = {"car_reward_repair", "wsn_model_repair",
                               "wsn_data_repair"};

struct PassRun {
  std::map<std::string, double> job_ms;
  StreamRun stream;
  double pctl_ms = 0;
  double wall_ms = 0;
  StatsDelta delta;
};

PassRun run_pass(const StreamFixture& fx, Result& result, bool verify) {
  PassRun pass;
  PctlTimer pctl;
  const stats::Snapshot before = stats::snapshot();
  const auto pass_start = Clock::now();
  for (const char* table : kTables) {
    const auto start = Clock::now();
    const std::string name = table;
    const std::vector<std::string> cells =
        name == "car_reward_repair" ? car_reward_repair()
        : name == "wsn_model_repair" ? wsn_model_repair(pctl)
                                     : wsn_data_repair(pctl);
    pass.job_ms[name] = ms_since(start);
    ++result.attempted;
    if (verify && cells != table_reference(name)) {
      std::string got;
      for (const std::string& c : cells) got += c + " ";
      result.wrong(name + " table differs from bench/table_" + name + ": " +
                   got);
      ++result.failed;
    }
  }
  const auto stream_start = Clock::now();
  pass.stream = run_stream(fx, pctl, 1);
  pass.job_ms["stream"] = ms_since(stream_start);
  // Every batch is an op; a failed one is unexpected, so the run is
  // incorrect.
  result.attempted += pass.stream.batches;
  result.failed += pass.stream.failed;
  for (const std::string& problem : pass.stream.problems) {
    result.wrong(problem);
  }
  pass.wall_ms = ms_since(pass_start);
  pass.pctl_ms = pctl.ms;
  pass.delta = to_delta(before, stats::snapshot());
  return pass;
}

}  // namespace

Result run_repair(const Args& args, const Threads& threads) {
  Result result;
  // Set-up: stream fixture generation, session structure and batch
  // simulation, seven times (the last one is kept). One takes ~0.1 s, so
  // the median of three still moved by a third between runs.
  std::vector<double> setup_s;
  double generate_ms = 0;
  StreamFixture fx;
  for (int i = 0, n = args.trace ? 1 : 7; i < n; ++i) {
    generate_ms = 0;
    const auto start = Clock::now();
    fx = make_stream(args, generate_ms);
    setup_s.push_back(seconds_since(start));
  }
  reset_peak_rss();

  std::vector<PassRun> passes;
  const auto measure_start = Clock::now();
  const double budget_s = args.trace ? 0.0 : args.seconds;
  do {
    passes.push_back(run_pass(fx, result, passes.empty()));
  } while (seconds_since(measure_start) + passes.back().wall_ms / 1e3 <=
           budget_s);
  const double peak = peak_rss_mb();

  // The session report must be byte-identical across passes and across
  // solver thread counts.
  for (const PassRun& pass : passes) {
    if (pass.stream.reports != passes.front().stream.reports) {
      result.wrong("stream session report differs between passes");
      ++result.failed;
    }
  }
  {
    set_default_thread_count(threads.nproc);
    PctlTimer unused;
    const StreamRun wide = run_stream(fx, unused, threads.nproc);
    set_default_thread_count(threads.solver);
    if (wide.reports != passes.front().stream.reports) {
      result.wrong("stream session report differs at " +
                   std::to_string(threads.nproc) + " threads");
      ++result.failed;
    }
  }

  std::vector<double> pass_ms;
  std::vector<double> batch_ms;
  std::map<std::string, std::vector<double>> job_samples;
  for (const PassRun& pass : passes) {
    pass_ms.push_back(pass.wall_ms);
    batch_ms.insert(batch_ms.end(), pass.stream.batch_ms.begin(),
                    pass.stream.batch_ms.end());
    for (const auto& [job, ms] : pass.job_ms) job_samples[job].push_back(ms);
  }
  for (const auto& [job, samples] : job_samples) {
    std::string metric = job;
    for (char& c : metric) c = c == '-' ? '_' : c;
    result.note(metric + "_s = " + num(median(samples) / 1e3) +
                " s (median of " + std::to_string(samples.size()) + ")");
  }
  const PassRun& first = passes.front();
  std::uint64_t digest = 14695981039346656037ull;  // FNV-1a
  for (const std::string& report : first.stream.reports) {
    for (const unsigned char c : report) digest = (digest ^ c) * 1099511628211ull;
  }
  result.note("stream report digest = " + std::to_string(digest));
  result.note("stream: " + std::to_string(first.stream.batches) +
              " batches per pass, " + std::to_string(first.stream.repairs) +
              " triggered Model Repair");
  result.note("batch_p50_ms = " + num(median(batch_ms)) + ", batch_p90_ms = " +
              num(quantile(batch_ms, 0.9)) + " over " +
              std::to_string(batch_ms.size()) + " batches");

  if (!args.trace) {
    result.set("setup_s", median(setup_s), "s");
    result.set("wall_s", median(pass_ms) / 1e3, "s");
    result.set("p50_ms", median(batch_ms), "ms");
    result.set("tail_ms", quantile(batch_ms, 0.9), "ms");
    result.set("peak_rss_mb", peak, "MB");
    return result;
  }

  stats::set_enabled(true);
  const PassRun traced = run_pass(fx, result, false);
  const PassRun again = run_pass(fx, result, false);
  stats::set_enabled(false);
  std::map<std::string, double> extras;
  extras["work.count_mismatches"] =
      count_mismatches(traced.delta, again.delta, result);
  const double traced_ms = std::min(traced.wall_ms, again.wall_ms);
  extras["trace.overhead_share"] =
      (traced_ms - first.wall_ms) / first.wall_ms;

  std::map<std::string, double> layers;
  layers["casestudies.generate.ms"] = generate_ms;
  layers["parse.pctl.ms"] = traced.pctl_ms;
  layers["compile.ms"] = traced.delta.ms("compile.time");
  layers["checker.check.ms"] = traced.delta.ms("checker.check.time");
  // The passes parse nothing: read, parse and the graph layers are timed
  // as standalone calls on the stream fixture.
  {
    auto start = Clock::now();
    const std::string source = read_file(fx.path);
    layers["read.ms"] = ms_since(start);
    start = Clock::now();
    const PrismModel parsed = parse_prism(source);
    layers["parse.prism.ms"] = ms_since(start);
    time_graph_layers(compile(fx.structure), "hazard", /*dtmc=*/true, layers);
  }
  for (const auto& [name, value] : traced.delta.counters) {
    if (value != 0) result.note("stats " + name + " = " + num(value));
  }
  for (const auto& [name, value] : traced.delta.timer_ms) {
    if (value != 0) result.note("stats " + name + " = " + num(value) + " ms");
  }
  set_per_layer(result, layers, traced.delta, extras);
  return result;
}

}  // namespace perfbench
