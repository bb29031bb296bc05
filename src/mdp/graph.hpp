// Qualitative graph analyses on MDPs and DTMCs.
//
// These are the PRISM-style precomputations that make quantitative model
// checking sound: they classify states where reachability probabilities are
// exactly 0 or exactly 1 *for graph reasons*, before any numerics run.
//
// Naming (T is the target set):
//  * reachable_existential(T): states from which SOME scheduler reaches T
//    with positive probability (plain backward reachability over all edges).
//    Complement = "Prob0A" (all schedulers give probability 0).
//  * avoid_certain(T): states from which SOME scheduler avoids T forever
//    with probability 1 (greatest fixpoint of "has a choice staying inside").
//    This set is exactly { s : Pmin(F T)(s) = 0 }.
//  * prob1_existential(T): { s : Pmax(F T)(s) = 1 } — the classic Prob1E
//    nested fixpoint (de Alfaro).
//  * prob1_universal(T):  { s : Pmin(F T)(s) = 1 } = complement of
//    reachable_existential(avoid_certain(T)).
//
// Every analysis runs over the compiled CSR form (src/mdp/compiled.hpp);
// callers holding an Mdp/Dtmc builder compile() once and pass the result.
// The cached predecessor structure (CSC) drives every backward pass as a
// worklist. The closures touch each edge once. The two fixpoints re-examine
// a state only when one of its successors changes status, never by a
// whole-model sweep: avoid_certain makes at most states + transitions
// visits in total, and each outer round of prob1_existential at most
// transitions, each visit costing the state's out-degree — O(Σ out-degree)
// per round on bounded-degree models instead of O(states × diameter). The
// stats registry counts the outer rounds (graph.prob1.rounds) and the
// visits (graph.fixpoint.visits).

#pragma once

#include "src/mdp/compiled.hpp"

namespace tml {

/// States with a path (under some scheduler) of positive probability to T.
StateSet reachable_existential(const CompiledModel& model,
                               const StateSet& targets);

/// States from which some scheduler stays out of T forever (prob 1 avoid).
/// Requires targets ∩ result = ∅ by construction.
StateSet avoid_certain(const CompiledModel& model, const StateSet& targets);

/// { s : Pmax(F T)(s) = 1 } (Prob1E).
StateSet prob1_existential(const CompiledModel& model, const StateSet& targets);

/// { s : Pmin(F T)(s) = 1 } (Prob1A).
StateSet prob1_universal(const CompiledModel& model, const StateSet& targets);

/// DTMC: states that reach T with positive probability.
StateSet dtmc_reach_positive(const CompiledModel& model,
                             const StateSet& targets);

/// DTMC: { s : P(F T)(s) = 0 }.
StateSet dtmc_prob0(const CompiledModel& model, const StateSet& targets);

/// DTMC: { s : P(F T)(s) = 1 }.
StateSet dtmc_prob1(const CompiledModel& model, const StateSet& targets);

/// The same set, given `zero` = dtmc_prob0(model, targets) already computed,
/// so a caller that needs both sets runs the prob0 closure once.
StateSet dtmc_prob1(const CompiledModel& model, const StateSet& targets,
                    const StateSet& zero);

/// States reachable (forward) from `from` in the model.
StateSet forward_reachable(const CompiledModel& model, StateId from);

/// SCC condensation over the positive-probability edges, blocks emitted in
/// dependency order (successor blocks first — Tarjan's emission order; see
/// SccDecomposition in compiled.hpp). Iterative, so deep chains cannot
/// overflow the call stack. Prefer CompiledModel::scc(), which caches.
SccDecomposition scc_decomposition(const CompiledModel& model);

/// Maximal end components of the sub-MDP restricted to `within`: maximal
/// state sets M ⊆ within such that some set of choices (each with full
/// support inside M) makes M strongly connected. States of `within` that
/// belong to no end component are absent from the result. Each MEC's state
/// list is sorted; the MEC order follows the smallest member state.
///
/// Interval iteration for Pmax needs these: value iteration from above
/// stalls at a spurious fixpoint inside an end component, and the standard
/// fix ("deflation") caps every MEC at its best exit value each sweep.
std::vector<std::vector<StateId>> maximal_end_components(
    const CompiledModel& model, const StateSet& within);

}  // namespace tml
