#include "src/mdp/compiled.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "src/common/stats.hpp"
#include "src/mdp/graph.hpp"

namespace tml {

namespace {

constexpr std::size_t kIndexLimit = std::numeric_limits<std::uint32_t>::max();

void record_compile_stats(std::size_t rows, std::size_t nnz) {
  static stats::Counter& c_calls = stats::counter("compile.calls");
  static stats::Counter& c_rows = stats::counter("compile.rows");
  static stats::Counter& c_nnz = stats::counter("compile.nnz");
  c_calls.bump();
  c_rows.add(rows);
  c_nnz.add(nnz);
}

/// Stats shared by both patch_probabilities overloads. `hit` distinguishes
/// an in-place rewrite from a structural fallback.
void record_patch_stats(bool hit, std::size_t dirty_states) {
  static stats::Counter& c_calls = stats::counter("compile.patch_calls");
  static stats::Counter& c_hits = stats::counter("compile.patch_hits");
  static stats::Counter& c_fallbacks =
      stats::counter("compile.patch_fallbacks");
  static stats::Counter& c_dirty = stats::counter("compile.patch_dirty_states");
  c_calls.bump();
  if (hit) {
    c_hits.bump();
    c_dirty.add(dirty_states);
  } else {
    c_fallbacks.bump();
  }
}

}  // namespace

namespace {

/// FNV-1a, 64-bit. Chosen over a fancier hash because the serve cache only
/// needs collision resistance against accidental collisions (requests are
/// compared byte-exact on the source text before a hit is trusted), and
/// FNV keeps this file dependency-free.
struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;

  void bytes(const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      state ^= p[i];
      state *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof(v)); }
  template <typename T>
  void vec(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    u64(v.size());
    bytes(v.data(), v.size() * sizeof(T));
  }
};

}  // namespace

std::uint64_t CompiledModel::content_hash() const {
  Fnv1a h;
  h.u64(num_states_);
  h.u64(initial_state_);
  h.u64(deterministic_ ? 1 : 0);
  h.vec(row_start_);
  h.vec(choice_start_);
  h.vec(target_);
  h.vec(prob_);  // bitwise doubles: vec() copies raw bytes
  h.vec(state_reward_);
  h.vec(choice_reward_);
  h.vec(choice_action_);
  h.u64(label_names_.size());
  for (std::size_t i = 0; i < label_names_.size(); ++i) {
    h.u64(label_names_[i].size());
    h.bytes(label_names_[i].data(), label_names_[i].size());
    h.u64(label_sets_[i].size());
    h.vec(label_sets_[i].words());
  }
  return h.state;
}

StateSet CompiledModel::states_with_label(const std::string& label) const {
  for (std::size_t i = 0; i < label_names_.size(); ++i) {
    if (label_names_[i] == label) return label_sets_[i];
  }
  return StateSet(num_states_, false);
}

void CompiledModel::build_predecessors() const {
  static stats::Counter& c_builds = stats::counter("compile.pred_builds");
  static stats::Counter& c_dedup = stats::counter("compile.pred_dedup_hits");
  static stats::Timer& t_preds = stats::timer("graph.preds.time");
  const stats::ScopedTimer span(t_preds);
  c_builds.bump();
  std::size_t dedup_hits = 0;
  const std::size_t n = num_states_;
  // Two passes over the columns with a per-target "last seen source" stamp:
  // sources are visited in increasing order, so a repeated (s, t) pair —
  // multiple edges of s hitting t across its choices — is caught by the
  // stamp and each distinct pair is counted exactly once.
  constexpr StateId kNone = std::numeric_limits<StateId>::max();
  std::vector<StateId> last_source(n, kNone);
  pred_start_.assign(n + 1, 0);
  for (StateId s = 0; s < n; ++s) {
    for (std::uint32_t c = row_start_[s]; c < row_start_[s + 1]; ++c) {
      for (std::uint32_t k = choice_start_[c]; k < choice_start_[c + 1]; ++k) {
        if (prob_[k] <= 0.0) continue;
        const StateId t = target_[k];
        if (last_source[t] == s) {
          ++dedup_hits;
          continue;
        }
        last_source[t] = s;
        ++pred_start_[t + 1];
      }
    }
  }
  for (std::size_t s = 0; s < n; ++s) pred_start_[s + 1] += pred_start_[s];
  pred_.resize(pred_start_[n]);
  std::vector<std::uint32_t> fill(pred_start_.begin(), pred_start_.end() - 1);
  std::fill(last_source.begin(), last_source.end(), kNone);
  for (StateId s = 0; s < n; ++s) {
    for (std::uint32_t c = row_start_[s]; c < row_start_[s + 1]; ++c) {
      for (std::uint32_t k = choice_start_[c]; k < choice_start_[c + 1]; ++k) {
        if (prob_[k] <= 0.0) continue;
        const StateId t = target_[k];
        if (last_source[t] == s) continue;
        last_source[t] = s;
        pred_[fill[t]++] = s;
      }
    }
  }
  c_dedup.add(dedup_hits);
  preds_built_ = true;
  pred_epoch_ = mutation_epoch_;
}

const SccDecomposition& CompiledModel::scc() const {
  if (!scc_built_) {
    scc_ = scc_decomposition(*this);
    scc_built_ = true;
    scc_epoch_ = mutation_epoch_;
  }
  require_fresh(scc_epoch_, "CompiledModel::scc");
  return scc_;
}

void CompiledModel::require_fresh(std::uint64_t built_epoch,
                                  const char* what) const {
  if (built_epoch != mutation_epoch_) {
    throw ModelError(
        std::string(what) +
        ": graph cache is stale — the model was mutated in place (set_prob) "
        "after the cache was built; call invalidate_graph_caches() to "
        "rebuild, or mutate through patch_probabilities(), which proves the "
        "support unchanged and keeps the caches valid");
  }
}

void CompiledModel::invalidate_graph_caches() const {
  preds_built_ = false;
  pred_start_.clear();
  pred_.clear();
  scc_built_ = false;
  scc_ = SccDecomposition{};
}

CompiledModel compile(const Mdp& mdp) {
  static stats::Timer& t_compile = stats::timer("compile.time");
  const stats::ScopedTimer span(t_compile);
  mdp.validate();
  const std::size_t n = mdp.num_states();

  CompiledModel out;
  out.num_states_ = n;
  out.initial_state_ = mdp.initial_state();
  out.deterministic_ = false;

  std::size_t num_choices = 0;
  std::size_t num_transitions = 0;
  for (StateId s = 0; s < n; ++s) {
    num_choices += mdp.choices(s).size();
    for (const Choice& c : mdp.choices(s)) {
      num_transitions += c.transitions.size();
    }
  }
  TML_REQUIRE(num_choices < kIndexLimit && num_transitions < kIndexLimit,
              "compile: model exceeds 32-bit index space");

  out.row_start_.reserve(n + 1);
  out.choice_start_.reserve(num_choices + 1);
  out.target_.reserve(num_transitions);
  out.prob_.reserve(num_transitions);
  out.choice_reward_.reserve(num_choices);
  out.choice_action_.reserve(num_choices);
  out.state_reward_ = mdp.state_rewards();

  out.row_start_.push_back(0);
  out.choice_start_.push_back(0);
  for (StateId s = 0; s < n; ++s) {
    for (const Choice& c : mdp.choices(s)) {
      for (const Transition& t : c.transitions) {
        out.target_.push_back(t.target);
        out.prob_.push_back(t.probability);
      }
      out.choice_start_.push_back(static_cast<std::uint32_t>(out.target_.size()));
      out.choice_reward_.push_back(c.reward);
      out.choice_action_.push_back(c.action);
    }
    out.row_start_.push_back(
        static_cast<std::uint32_t>(out.choice_start_.size() - 1));
  }

  out.label_names_ = mdp.all_labels();
  out.label_sets_.reserve(out.label_names_.size());
  for (const std::string& label : out.label_names_) {
    out.label_sets_.push_back(mdp.states_with_label(label));
  }
  record_compile_stats(n, num_transitions);
  return out;
}

CompiledModel compile(const Dtmc& chain) {
  static stats::Timer& t_compile = stats::timer("compile.time");
  const stats::ScopedTimer span(t_compile);
  chain.validate();
  const std::size_t n = chain.num_states();

  CompiledModel out;
  out.num_states_ = n;
  out.initial_state_ = chain.initial_state();
  out.deterministic_ = true;

  std::size_t num_transitions = 0;
  for (StateId s = 0; s < n; ++s) num_transitions += chain.transitions(s).size();
  TML_REQUIRE(num_transitions < kIndexLimit,
              "compile: model exceeds 32-bit index space");

  out.row_start_.reserve(n + 1);
  out.choice_start_.reserve(n + 1);
  out.target_.reserve(num_transitions);
  out.prob_.reserve(num_transitions);
  out.state_reward_ = chain.state_rewards();
  out.choice_reward_.assign(n, 0.0);
  out.choice_action_.assign(n, 0);

  out.row_start_.push_back(0);
  out.choice_start_.push_back(0);
  for (StateId s = 0; s < n; ++s) {
    for (const Transition& t : chain.transitions(s)) {
      out.target_.push_back(t.target);
      out.prob_.push_back(t.probability);
    }
    out.choice_start_.push_back(static_cast<std::uint32_t>(out.target_.size()));
    out.row_start_.push_back(static_cast<std::uint32_t>(s) + 1);
  }

  out.label_names_ = chain.all_labels();
  out.label_sets_.reserve(out.label_names_.size());
  for (const std::string& label : out.label_names_) {
    out.label_sets_.push_back(chain.states_with_label(label));
  }
  record_compile_stats(n, num_transitions);
  return out;
}

CompiledModel CompiledModel::make_absorbing(const StateSet& absorb) const {
  TML_REQUIRE(absorb.size() == num_states_,
              "make_absorbing: set size mismatch");
  CompiledModel out;
  out.num_states_ = num_states_;
  out.initial_state_ = initial_state_;
  out.deterministic_ = deterministic_;
  out.state_reward_ = state_reward_;
  out.label_names_ = label_names_;
  out.label_sets_ = label_sets_;

  out.row_start_.reserve(num_states_ + 1);
  out.choice_start_.reserve(num_choices() + 1);
  out.target_.reserve(num_transitions());
  out.prob_.reserve(num_transitions());
  out.choice_reward_.reserve(num_choices());
  out.choice_action_.reserve(num_choices());

  out.row_start_.push_back(0);
  out.choice_start_.push_back(0);
  for (StateId s = 0; s < num_states_; ++s) {
    if (absorb[s]) {
      out.target_.push_back(s);
      out.prob_.push_back(1.0);
      out.choice_start_.push_back(
          static_cast<std::uint32_t>(out.target_.size()));
      out.choice_reward_.push_back(0.0);
      out.choice_action_.push_back(0);
    } else {
      for (std::uint32_t c = row_start_[s]; c < row_start_[s + 1]; ++c) {
        for (std::uint32_t k = choice_start_[c]; k < choice_start_[c + 1];
             ++k) {
          out.target_.push_back(target_[k]);
          out.prob_.push_back(prob_[k]);
        }
        out.choice_start_.push_back(
            static_cast<std::uint32_t>(out.target_.size()));
        out.choice_reward_.push_back(choice_reward_[c]);
        out.choice_action_.push_back(choice_action_[c]);
      }
    }
    out.row_start_.push_back(
        static_cast<std::uint32_t>(out.choice_start_.size() - 1));
  }
  return out;
}

namespace {

/// Mutable-internals bundle handed to patch_core by the two friend
/// overloads (patch_core itself is not a friend of CompiledModel).
struct PatchAccess {
  std::vector<double>& prob;
  std::vector<double>& state_reward;
  std::vector<double>& choice_reward;
  const std::vector<std::string>& label_names;
  const std::vector<StateSet>& label_sets;
};

/// Shared core of the two patch_probabilities overloads, generic over the
/// builder shape via row lambdas (`transitions_of(s, ci)` etc.). Two
/// passes: a read-only structure/support check that leaves the model
/// untouched on mismatch, then the in-place rewrite. Returns via `bless`
/// whether the caller should re-stamp the graph caches.
template <typename Source, typename NumChoicesOf, typename RewardOf,
          typename ActionOf, typename TransitionsOf>
PatchResult patch_core(CompiledModel& model, PatchAccess acc,
                       const Source& source, bool source_deterministic,
                       NumChoicesOf num_choices_of, RewardOf reward_of,
                       ActionOf action_of, TransitionsOf transitions_of) {
  PatchResult out;
  const std::size_t n = source.num_states();
  auto fallback = [&]() {
    record_patch_stats(/*hit=*/false, 0);
    return PatchResult{};
  };

  // ---- pass 1: structure + support check (pure reads) --------------------
  if (n != model.num_states() ||
      source_deterministic != model.deterministic() ||
      source.initial_state() != model.initial_state()) {
    return fallback();
  }
  {
    std::uint32_t c = 0;
    std::uint32_t k = 0;
    const auto& choice_start = model.choice_start();
    const auto& target = model.target();
    for (StateId s = 0; s < n; ++s) {
      if (num_choices_of(s) != model.num_choices_of(s)) return fallback();
      for (std::size_t ci = 0; ci < num_choices_of(s); ++ci, ++c) {
        const std::vector<Transition>& transitions = transitions_of(s, ci);
        if (transitions.size() != choice_start[c + 1] - choice_start[c]) {
          return fallback();
        }
        if (action_of(s, ci) != model.choice_action(c)) return fallback();
        for (const Transition& t : transitions) {
          // Same targets in the same order, and the same positive support:
          // an entry moving between zero and nonzero changes the graph, so
          // every graph-derived cache would be wrong — full recompile.
          if (t.target != target[k]) return fallback();
          if ((t.probability > 0.0) != (acc.prob[k] > 0.0)) return fallback();
          ++k;
        }
      }
    }
  }
  // Labels participate in checking semantics; a changed labelling is a
  // structural change even though the graph is intact.
  {
    const std::vector<std::string> labels = source.all_labels();
    if (labels != acc.label_names) return fallback();
    for (std::size_t i = 0; i < labels.size(); ++i) {
      if (source.states_with_label(labels[i]) != acc.label_sets[i]) {
        return fallback();
      }
    }
  }

  // ---- pass 2: in-place rewrite ------------------------------------------
  out.patched = true;
  out.dirty = StateSet(n, false);
  const std::vector<double>& rewards = source.state_rewards();
  std::uint32_t c = 0;
  std::uint32_t k = 0;
  for (StateId s = 0; s < n; ++s) {
    bool dirty = false;
    if (!rewards.empty() && acc.state_reward[s] != rewards[s]) {
      acc.state_reward[s] = rewards[s];
      dirty = true;
    }
    for (std::size_t ci = 0; ci < num_choices_of(s); ++ci, ++c) {
      const double reward = reward_of(s, ci);
      if (acc.choice_reward[c] != reward) {
        acc.choice_reward[c] = reward;
        dirty = true;
      }
      for (const Transition& t : transitions_of(s, ci)) {
        const double delta = std::abs(t.probability - acc.prob[k]);
        if (delta > 0.0) {
          out.max_abs_delta = std::max(out.max_abs_delta, delta);
          acc.prob[k] = t.probability;
          dirty = true;
        }
        ++k;
      }
    }
    if (dirty) {
      out.dirty.set(s);
      ++out.dirty_states;
    }
  }
  record_patch_stats(/*hit=*/true, out.dirty_states);
  return out;
}

}  // namespace

PatchResult patch_probabilities(CompiledModel& model, const Mdp& mdp) {
  mdp.validate();
  PatchResult out = patch_core(
      model,
      PatchAccess{model.prob_, model.state_reward_, model.choice_reward_,
                  model.label_names_, model.label_sets_},
      mdp, /*source_deterministic=*/false,
      [&](StateId s) { return mdp.choices(s).size(); },
      [&](StateId s, std::size_t c) { return mdp.choices(s)[c].reward; },
      [&](StateId s, std::size_t c) { return mdp.choices(s)[c].action; },
      [&](StateId s, std::size_t c) -> const std::vector<Transition>& {
        return mdp.choices(s)[c].transitions;
      });
  if (out.patched) {
    // The support check proves the positive-probability graph is unchanged,
    // so the lazy predecessor/SCC caches still describe this model exactly:
    // bump the epoch for external observers, then re-bless built caches.
    ++model.mutation_epoch_;
    if (model.preds_built_) model.pred_epoch_ = model.mutation_epoch_;
    if (model.scc_built_) model.scc_epoch_ = model.mutation_epoch_;
  }
  return out;
}

PatchResult patch_probabilities(CompiledModel& model, const Dtmc& chain) {
  chain.validate();
  PatchResult out = patch_core(
      model,
      PatchAccess{model.prob_, model.state_reward_, model.choice_reward_,
                  model.label_names_, model.label_sets_},
      chain, /*source_deterministic=*/true,
      [](StateId) -> std::size_t { return 1; },
      [](StateId, std::size_t) { return 0.0; },  // compile(Dtmc) zeroes these
      [](StateId, std::size_t) -> ActionId { return 0; },
      [&](StateId s, std::size_t) -> const std::vector<Transition>& {
        return chain.transitions(s);
      });
  if (out.patched) {
    ++model.mutation_epoch_;
    if (model.preds_built_) model.pred_epoch_ = model.mutation_epoch_;
    if (model.scc_built_) model.scc_epoch_ = model.mutation_epoch_;
  }
  return out;
}

}  // namespace tml
