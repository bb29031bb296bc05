// Unit tests for the qualitative graph precomputations (prob0/prob1).

#include "src/mdp/graph.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "src/casestudies/generator.hpp"
#include "src/common/stats.hpp"

namespace tml {
namespace {

/// Classic MDP where qualitative analysis matters:
///   s0: action a → s1 (goal), action b → s2 (trap loop)
///   s1: absorbing (goal)
///   s2: absorbing (trap)
///   s3: 0.5 → s0, 0.5 → s2 (single action)
Mdp trap_mdp() {
  Mdp mdp(4);
  mdp.add_choice(0, "a", {Transition{1, 1.0}});
  mdp.add_choice(0, "b", {Transition{2, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_choice(3, "go", {Transition{0, 0.5}, Transition{2, 0.5}});
  mdp.add_label(1, "goal");
  return mdp;
}

template <typename Model>
StateSet goal_of(const Model& model) {
  return model.states_with_label("goal");
}

TEST(Graph, ReachableExistential) {
  const CompiledModel model = compile(trap_mdp());
  const StateSet r = reachable_existential(model, goal_of(model));
  EXPECT_TRUE(r[0]);   // choose a
  EXPECT_TRUE(r[1]);   // is goal
  EXPECT_FALSE(r[2]);  // trap
  EXPECT_TRUE(r[3]);   // via s0
}

TEST(Graph, AvoidCertain) {
  const CompiledModel model = compile(trap_mdp());
  const StateSet avoid = avoid_certain(model, goal_of(model));
  EXPECT_TRUE(avoid[0]);   // choose b forever
  EXPECT_FALSE(avoid[1]);  // is the goal itself
  EXPECT_TRUE(avoid[2]);
  EXPECT_TRUE(avoid[3]);  // the one action reaches {s0, s2}, both avoidable
}

TEST(Graph, Prob1Existential) {
  const CompiledModel model = compile(trap_mdp());
  const StateSet p1 = prob1_existential(model, goal_of(model));
  EXPECT_TRUE(p1[0]);   // action a reaches goal surely
  EXPECT_TRUE(p1[1]);
  EXPECT_FALSE(p1[2]);
  EXPECT_FALSE(p1[3]);  // half the mass falls into the trap
}

TEST(Graph, Prob1Universal) {
  const CompiledModel model = compile(trap_mdp());
  const StateSet p1 = prob1_universal(model, goal_of(model));
  EXPECT_FALSE(p1[0]);  // scheduler can pick b
  EXPECT_TRUE(p1[1]);
  EXPECT_FALSE(p1[2]);
  EXPECT_FALSE(p1[3]);
}

TEST(Graph, Prob1UniversalAllRoutesLead) {
  // A chain where every choice leads to the goal eventually.
  Mdp mdp(3);
  mdp.add_choice(0, "a", {Transition{1, 1.0}});
  mdp.add_choice(0, "b", {Transition{1, 0.5}, Transition{2, 0.5}});
  mdp.add_choice(1, "go", {Transition{2, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  mdp.add_label(2, "goal");
  const StateSet p1 = prob1_universal(compile(mdp), goal_of(mdp));
  EXPECT_TRUE(p1[0]);
  EXPECT_TRUE(p1[1]);
  EXPECT_TRUE(p1[2]);
}

TEST(Graph, DtmcProb0Prob1) {
  // Gambler's chain: 0 ← 1 → 2, absorbing at both ends; target is 2.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{0, 1.0}});
  chain.set_transitions(1, {Transition{0, 0.5}, Transition{2, 0.5}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  StateSet target(3, false);
  target[2] = true;
  const CompiledModel model = compile(chain);
  const StateSet zero = dtmc_prob0(model, target);
  EXPECT_TRUE(zero[0]);
  EXPECT_FALSE(zero[1]);
  EXPECT_FALSE(zero[2]);
  const StateSet one = dtmc_prob1(model, target);
  EXPECT_FALSE(one[0]);
  EXPECT_FALSE(one[1]);
  EXPECT_TRUE(one[2]);
}

TEST(Graph, DtmcProb1TransientLoop) {
  // 0 → 0 (0.9) / 1 (0.1); 1 absorbing target: reaches with prob 1.
  Dtmc chain(2);
  chain.set_transitions(0, {Transition{0, 0.9}, Transition{1, 0.1}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  StateSet target(2, false);
  target[1] = true;
  const StateSet one = dtmc_prob1(compile(chain), target);
  EXPECT_TRUE(one[0]);
  EXPECT_TRUE(one[1]);
}

TEST(Graph, ForwardReachableMdp) {
  const CompiledModel model = compile(trap_mdp());
  const StateSet from0 = forward_reachable(model, 0);
  EXPECT_TRUE(from0[0]);
  EXPECT_TRUE(from0[1]);
  EXPECT_TRUE(from0[2]);
  EXPECT_FALSE(from0[3]);
  const StateSet from3 = forward_reachable(model, 3);
  EXPECT_TRUE(from3[3]);
  EXPECT_TRUE(from3[0]);
}

TEST(Graph, ForwardReachableDtmc) {
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{1, 1.0}});
  chain.set_transitions(2, {Transition{0, 1.0}});
  const StateSet r = forward_reachable(compile(chain), 0);
  EXPECT_TRUE(r[0]);
  EXPECT_TRUE(r[1]);
  EXPECT_FALSE(r[2]);
}

TEST(Graph, SizeMismatchThrows) {
  const CompiledModel model = compile(trap_mdp());
  EXPECT_THROW(reachable_existential(model, StateSet(2, false)), Error);
  EXPECT_THROW(avoid_certain(model, StateSet(2, false)), Error);
  EXPECT_THROW(prob1_existential(model, StateSet(9, false)), Error);
}

TEST(Graph, DtmcProb1PathThroughTargetCounts) {
  // 0 → 1 (target) → 2 (absorbing, not target). P(F {1}) from 0 is exactly
  // 1 even though 0 can "reach" the prob-0 state 2 — only via the target.
  Dtmc chain(3);
  chain.set_transitions(0, {Transition{1, 1.0}});
  chain.set_transitions(1, {Transition{2, 1.0}});
  chain.set_transitions(2, {Transition{2, 1.0}});
  StateSet target(3, false);
  target[1] = true;
  const StateSet one = dtmc_prob1(compile(chain), target);
  EXPECT_TRUE(one[0]);
  EXPECT_TRUE(one[1]);
  EXPECT_FALSE(one[2]);
}

TEST(Graph, Prob1UniversalPathThroughTargetCounts) {
  // Same shape as an MDP: the post-target region is irrelevant to Pmin=1.
  Mdp mdp(3);
  mdp.add_choice(0, "go", {Transition{1, 1.0}});
  mdp.add_choice(1, "go", {Transition{2, 1.0}});
  mdp.add_choice(2, "stay", {Transition{2, 1.0}});
  StateSet target(3, false);
  target[1] = true;
  const StateSet one = prob1_universal(compile(mdp), target);
  EXPECT_TRUE(one[0]);
  EXPECT_TRUE(one[1]);
  EXPECT_FALSE(one[2]);
}

TEST(Graph, ZeroProbabilityEdgesIgnored) {
  // A structural edge with probability 0 must not create reachability.
  Mdp mdp(2);
  mdp.add_choice(0, "a", {Transition{1, 0.0}, Transition{0, 1.0}});
  mdp.add_choice(1, "stay", {Transition{1, 1.0}});
  mdp.add_label(1, "goal");
  const StateSet r = reachable_existential(compile(mdp), goal_of(mdp));
  EXPECT_FALSE(r[0]);
}

// ---------------------------------------------------------------------------
// Work bounds. The fixpoints re-examine a state only when a successor
// changes status, so the deterministic visit count stays within a small
// multiple of transitions per Prob1E round. A whole-model sweep repeated
// until stable costs states × diameter instead, which on the deep models
// below is orders of magnitude over the bound.

struct FixpointWork {
  std::uint64_t rounds = 0;
  std::uint64_t visits = 0;
};

/// Runs `fn` with stats collection on and returns the fixpoint counters it
/// added.
template <typename Fn>
FixpointWork measure(Fn&& fn) {
  const bool was_enabled = stats::enabled();
  stats::set_enabled(true);
  const stats::Snapshot before = stats::snapshot();
  fn();
  const stats::Snapshot d = stats::delta(before, stats::snapshot());
  stats::set_enabled(was_enabled);
  return {d.counter("graph.prob1.rounds"), d.counter("graph.fixpoint.visits")};
}

/// A chain 0 → 1 → … → n-1 (goal) plus an absorbing trap at n. Every chain
/// state steps right or stays; every third one may also gamble, reaching
/// the next state or the trap with equal odds. Its diameter is n, and each
/// status change propagates backwards against the state order.
Mdp long_chain(std::size_t n) {
  Mdp mdp(n + 1);
  const StateId trap = static_cast<StateId>(n);
  for (StateId s = 0; s + 1 < n; ++s) {
    mdp.add_choice(s, "step", {Transition{s, 0.5}, Transition{s + 1, 0.5}});
    if (s % 3 == 0) {
      mdp.add_choice(s, "gamble",
                     {Transition{s + 1, 0.5}, Transition{trap, 0.5}});
    }
  }
  mdp.add_choice(static_cast<StateId>(n - 1), "stay",
                 {Transition{static_cast<StateId>(n - 1), 1.0}});
  mdp.add_choice(trap, "stay", {Transition{trap, 1.0}});
  mdp.add_label(static_cast<StateId>(n - 1), "goal");
  mdp.validate();
  return mdp;
}

void expect_worklist_bounds(const CompiledModel& model, const StateSet& goal) {
  constexpr std::uint64_t kFactor = 2;
  const std::uint64_t transitions = model.num_transitions();
  (void)model.predecessors(0);  // build the CSC outside the measurement

  StateSet traced;
  const FixpointWork p1 =
      measure([&] { traced = prob1_existential(model, goal); });
  EXPECT_EQ(traced, prob1_existential(model, goal))
      << "collecting stats changed the result";
  EXPECT_GE(p1.rounds, 1u);
  EXPECT_GT(p1.visits, 0u);
  EXPECT_LE(p1.visits, kFactor * transitions * p1.rounds)
      << "prob1_existential: " << p1.visits << " visits over " << p1.rounds
      << " rounds on " << transitions << " transitions";

  const FixpointWork avoid = measure([&] { (void)avoid_certain(model, goal); });
  EXPECT_EQ(avoid.rounds, 0u);
  EXPECT_LE(avoid.visits, kFactor * transitions)
      << "avoid_certain: " << avoid.visits << " visits on " << transitions
      << " transitions";

  // The counts are deterministic: a second run adds exactly the same work.
  const FixpointWork again =
      measure([&] { (void)prob1_existential(model, goal); });
  EXPECT_EQ(again.rounds, p1.rounds);
  EXPECT_EQ(again.visits, p1.visits);
}

TEST(Graph, FixpointWorkIsBoundedOnLongChain) {
  const CompiledModel model = compile(long_chain(5000));
  const StateSet goal = goal_of(model);
  expect_worklist_bounds(model, goal);
  // Every chain state can step to the goal surely; none can avoid it.
  const StateSet p1 = prob1_existential(model, goal);
  EXPECT_EQ(count(p1), 5000u);
  EXPECT_TRUE(p1[0]);
  EXPECT_FALSE(p1[5000]);
  const StateSet avoid = avoid_certain(model, goal);
  EXPECT_EQ(count(avoid), 1u);  // only the trap
}

TEST(Graph, FixpointWorkIsBoundedOnGrid) {
  GeneratorSpec spec;
  spec.family = GeneratorFamily::kGridRobot;
  spec.size = 100;
  spec.hazard_density = 0.05;
  const CompiledModel model = compile(generate_grid_robot(spec));
  ASSERT_EQ(model.num_states(), 10000u);
  expect_worklist_bounds(model, goal_of(model));
}

}  // namespace
}  // namespace tml
