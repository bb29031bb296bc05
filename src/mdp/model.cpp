#include "src/mdp/model.hpp"

#include <algorithm>
#include <cmath>

namespace tml {

namespace {

/// Checks one distribution. `where` builds the "Mdp state s choice c"
/// prefix of the error message; it runs only on failure, because validate()
/// is called on every parse and every compile.
template <typename Where>
void check_distribution(const std::vector<Transition>& transitions,
                        std::size_t num_states, double tol,
                        const Where& where) {
  if (transitions.empty()) {
    throw ModelError(where() + ": empty distribution");
  }
  double sum = 0.0;
  for (const Transition& t : transitions) {
    if (t.target >= num_states) {
      throw ModelError(where() + ": target state " + std::to_string(t.target) +
                       " out of range");
    }
    if (t.probability < -tol || t.probability > 1.0 + tol) {
      throw ModelError(where() + ": probability " +
                       std::to_string(t.probability) + " out of [0,1]");
    }
    sum += t.probability;
  }
  if (std::abs(sum - 1.0) > tol) {
    throw ModelError(where() + ": distribution sums to " + std::to_string(sum));
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// StateLabels

void StateLabels::grow(std::size_t num_states) {
  TML_ASSERT(num_states >= num_states_, "StateLabels::grow: cannot shrink");
  num_states_ = num_states;
  for (StateSet& set : label_sets_) set.resize(num_states);
  if (!names_.empty()) names_.resize(num_states);
}

void StateLabels::add_label(StateId state, const std::string& label) {
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) {
    const auto id = static_cast<std::uint32_t>(label_names_.size());
    it = label_ids_.emplace(label, id).first;
    label_names_.push_back(label);
    label_sets_.emplace_back(num_states_, false);
  }
  label_sets_[it->second].set(state);
}

bool StateLabels::has_label(StateId state, const std::string& label) const {
  auto it = label_ids_.find(label);
  return it != label_ids_.end() && label_sets_[it->second].test(state);
}

StateSet StateLabels::states_with_label(const std::string& label) const {
  auto it = label_ids_.find(label);
  if (it == label_ids_.end()) return StateSet(num_states_, false);
  return label_sets_[it->second];
}

std::vector<std::string> StateLabels::labels_of(StateId state) const {
  std::vector<std::string> out;
  for (std::size_t id = 0; id < label_sets_.size(); ++id) {
    if (label_sets_[id].test(state)) out.push_back(label_names_[id]);
  }
  return out;
}

const std::string& StateLabels::name(StateId state) const {
  static const std::string kUnnamed;
  return names_.empty() ? kUnnamed : names_[state];
}

void StateLabels::set_name(StateId state, const std::string& name) {
  if (names_.empty()) {
    if (name.empty()) return;
    names_.resize(num_states_);
  }
  names_[state] = name;
}

StateId StateLabels::by_name(const std::string& name, const char* owner) const {
  std::optional<StateId> found;
  for (std::size_t s = 0; s < num_states_; ++s) {
    if (this->name(static_cast<StateId>(s)) == name) {
      TML_REQUIRE(!found.has_value(),
                  owner << ": ambiguous state name " << name);
      found = static_cast<StateId>(s);
    }
  }
  TML_REQUIRE(found.has_value(), owner << ": unknown state name " << name);
  return *found;
}

// ---------------------------------------------------------------------------
// Mdp

StateId Mdp::add_state(const std::string& name) {
  const StateId id = static_cast<StateId>(choices_.size());
  choices_.emplace_back();
  state_rewards_.push_back(0.0);
  labels_.grow(choices_.size());
  labels_.set_name(id, name);
  return id;
}

void Mdp::resize(std::size_t num_states) {
  TML_REQUIRE(num_states >= choices_.size(), "Mdp::resize: cannot shrink");
  choices_.resize(num_states);
  state_rewards_.resize(num_states, 0.0);
  labels_.grow(num_states);
}

void Mdp::set_initial_state(StateId s) {
  TML_REQUIRE(s < choices_.size(), "Mdp: initial state out of range");
  initial_state_ = s;
}

ActionId Mdp::declare_action(const std::string& name) {
  TML_REQUIRE(!name.empty(), "Mdp: empty action name");
  auto it = action_ids_.find(name);
  if (it != action_ids_.end()) return it->second;
  const ActionId id = static_cast<ActionId>(action_names_.size());
  action_names_.push_back(name);
  action_ids_.emplace(name, id);
  return id;
}

const std::string& Mdp::action_name(ActionId a) const {
  TML_REQUIRE(a < action_names_.size(), "Mdp: unknown action id " << a);
  return action_names_[a];
}

std::uint32_t Mdp::add_choice(StateId state, ActionId action,
                              std::vector<Transition> transitions,
                              double action_reward) {
  TML_REQUIRE(state < choices_.size(), "Mdp::add_choice: state out of range");
  TML_REQUIRE(action < action_names_.size(),
              "Mdp::add_choice: undeclared action id " << action);
  choices_[state].push_back(
      Choice{action, action_reward, std::move(transitions)});
  return static_cast<std::uint32_t>(choices_[state].size() - 1);
}

std::uint32_t Mdp::add_choice(StateId state, const std::string& action,
                              std::vector<Transition> transitions,
                              double action_reward) {
  return add_choice(state, declare_action(action), std::move(transitions),
                    action_reward);
}

const std::vector<Choice>& Mdp::choices(StateId state) const {
  TML_REQUIRE(state < choices_.size(), "Mdp::choices: state out of range");
  return choices_[state];
}

std::vector<Choice>& Mdp::mutable_choices(StateId state) {
  TML_REQUIRE(state < choices_.size(), "Mdp::choices: state out of range");
  return choices_[state];
}

std::size_t Mdp::num_choices() const {
  std::size_t n = 0;
  for (const auto& c : choices_) n += c.size();
  return n;
}

void Mdp::set_state_reward(StateId state, double reward) {
  TML_REQUIRE(state < choices_.size(), "Mdp: state out of range");
  state_rewards_[state] = reward;
}

double Mdp::state_reward(StateId state) const {
  TML_REQUIRE(state < choices_.size(), "Mdp: state out of range");
  return state_rewards_[state];
}

void Mdp::add_label(StateId state, const std::string& label) {
  TML_REQUIRE(state < choices_.size(), "Mdp::add_label: state out of range");
  TML_REQUIRE(!label.empty(), "Mdp: empty label");
  labels_.add_label(state, label);
}

bool Mdp::has_label(StateId state, const std::string& label) const {
  TML_REQUIRE(state < choices_.size(), "Mdp::has_label: state out of range");
  return labels_.has_label(state, label);
}

StateSet Mdp::states_with_label(const std::string& label) const {
  return labels_.states_with_label(label);
}

std::vector<std::string> Mdp::labels_of(StateId state) const {
  TML_REQUIRE(state < choices_.size(), "Mdp::labels_of: state out of range");
  return labels_.labels_of(state);
}

std::vector<std::string> Mdp::all_labels() const {
  return labels_.label_names();
}

const std::string& Mdp::state_name(StateId state) const {
  TML_REQUIRE(state < choices_.size(), "Mdp::state_name: out of range");
  return labels_.name(state);
}

void Mdp::set_state_name(StateId state, const std::string& name) {
  TML_REQUIRE(state < choices_.size(), "Mdp::set_state_name: out of range");
  labels_.set_name(state, name);
}

StateId Mdp::state_by_name(const std::string& name) const {
  return labels_.by_name(name, "Mdp");
}

void Mdp::validate(double tol) const {
  if (choices_.empty()) throw ModelError("Mdp: no states");
  if (initial_state_ >= choices_.size()) {
    throw ModelError("Mdp: initial state out of range");
  }
  for (std::size_t s = 0; s < choices_.size(); ++s) {
    const auto& choices = choices_[s];
    if (choices.empty()) {
      throw ModelError("Mdp: state " + std::to_string(s) + " (" +
                       labels_.name(static_cast<StateId>(s)) +
                       ") has no choices");
    }
    for (std::size_t c = 0; c < choices.size(); ++c) {
      check_distribution(choices[c].transitions, choices_.size(), tol, [&] {
        return "Mdp state " + std::to_string(s) + " choice " +
               std::to_string(c);
      });
    }
  }
}

Dtmc Mdp::induced_dtmc(const Policy& policy) const {
  TML_REQUIRE(policy.choice_index.size() == choices_.size(),
              "induced_dtmc: policy size mismatch");
  Dtmc chain(choices_.size());
  chain.set_initial_state(initial_state_);
  for (std::size_t s = 0; s < choices_.size(); ++s) {
    const StateId state = static_cast<StateId>(s);
    const std::uint32_t c = policy.choice_index[s];
    TML_REQUIRE(c < choices_[s].size(),
                "induced_dtmc: policy chooses missing choice " << c
                    << " in state " << s);
    const Choice& choice = choices_[s][c];
    chain.set_transitions(state, choice.transitions);
    chain.set_state_reward(state, state_rewards_[s] + choice.reward);
    chain.set_state_name(state, labels_.name(state));
    for (const std::string& label : labels_.labels_of(state)) {
      chain.add_label(state, label);
    }
  }
  return chain;
}

Dtmc Mdp::induced_dtmc(const RandomizedPolicy& policy) const {
  TML_REQUIRE(policy.choice_probabilities.size() == choices_.size(),
              "induced_dtmc: policy size mismatch");
  Dtmc chain(choices_.size());
  chain.set_initial_state(initial_state_);
  for (std::size_t s = 0; s < choices_.size(); ++s) {
    const StateId state = static_cast<StateId>(s);
    const auto& probs = policy.choice_probabilities[s];
    TML_REQUIRE(probs.size() == choices_[s].size(),
                "induced_dtmc: choice distribution size mismatch in state "
                    << s);
    std::unordered_map<StateId, double> merged;
    double reward = state_rewards_[s];
    for (std::size_t c = 0; c < probs.size(); ++c) {
      const Choice& choice = choices_[s][c];
      reward += probs[c] * choice.reward;
      for (const Transition& t : choice.transitions) {
        merged[t.target] += probs[c] * t.probability;
      }
    }
    std::vector<Transition> row;
    row.reserve(merged.size());
    for (const auto& [target, p] : merged) row.push_back({target, p});
    std::sort(row.begin(), row.end(),
              [](const Transition& a, const Transition& b) {
                return a.target < b.target;
              });
    chain.set_transitions(state, std::move(row));
    chain.set_state_reward(state, reward);
    chain.set_state_name(state, labels_.name(state));
    for (const std::string& label : labels_.labels_of(state)) {
      chain.add_label(state, label);
    }
  }
  return chain;
}

Policy Mdp::first_choice_policy() const {
  Policy p;
  p.choice_index.assign(choices_.size(), 0);
  return p;
}

RandomizedPolicy Mdp::uniform_policy() const {
  RandomizedPolicy p;
  p.choice_probabilities.resize(choices_.size());
  for (std::size_t s = 0; s < choices_.size(); ++s) {
    const std::size_t n = choices_[s].size();
    p.choice_probabilities[s].assign(n, n == 0 ? 0.0 : 1.0 / double(n));
  }
  return p;
}

// ---------------------------------------------------------------------------
// Dtmc

Dtmc::Dtmc(std::size_t num_states)
    : rows_(num_states), state_rewards_(num_states, 0.0) {
  labels_.grow(num_states);
}

StateId Dtmc::add_state(const std::string& name) {
  const StateId id = static_cast<StateId>(rows_.size());
  rows_.emplace_back();
  state_rewards_.push_back(0.0);
  labels_.grow(rows_.size());
  labels_.set_name(id, name);
  return id;
}

void Dtmc::set_initial_state(StateId s) {
  TML_REQUIRE(s < rows_.size(), "Dtmc: initial state out of range");
  initial_state_ = s;
}

void Dtmc::set_transitions(StateId state, std::vector<Transition> transitions) {
  TML_REQUIRE(state < rows_.size(), "Dtmc::set_transitions: out of range");
  rows_[state] = std::move(transitions);
}

const std::vector<Transition>& Dtmc::transitions(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::transitions: out of range");
  return rows_[state];
}

void Dtmc::set_state_reward(StateId state, double reward) {
  TML_REQUIRE(state < rows_.size(), "Dtmc: state out of range");
  state_rewards_[state] = reward;
}

double Dtmc::state_reward(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc: state out of range");
  return state_rewards_[state];
}

void Dtmc::add_label(StateId state, const std::string& label) {
  TML_REQUIRE(state < rows_.size(), "Dtmc::add_label: out of range");
  TML_REQUIRE(!label.empty(), "Dtmc: empty label");
  labels_.add_label(state, label);
}

bool Dtmc::has_label(StateId state, const std::string& label) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::has_label: out of range");
  return labels_.has_label(state, label);
}

StateSet Dtmc::states_with_label(const std::string& label) const {
  return labels_.states_with_label(label);
}

std::vector<std::string> Dtmc::labels_of(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::labels_of: out of range");
  return labels_.labels_of(state);
}

std::vector<std::string> Dtmc::all_labels() const {
  return labels_.label_names();
}

const std::string& Dtmc::state_name(StateId state) const {
  TML_REQUIRE(state < rows_.size(), "Dtmc::state_name: out of range");
  return labels_.name(state);
}

void Dtmc::set_state_name(StateId state, const std::string& name) {
  TML_REQUIRE(state < rows_.size(), "Dtmc::set_state_name: out of range");
  labels_.set_name(state, name);
}

StateId Dtmc::state_by_name(const std::string& name) const {
  return labels_.by_name(name, "Dtmc");
}

void Dtmc::validate(double tol) const {
  if (rows_.empty()) throw ModelError("Dtmc: no states");
  if (initial_state_ >= rows_.size()) {
    throw ModelError("Dtmc: initial state out of range");
  }
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    check_distribution(rows_[s], rows_.size(), tol,
                       [&] { return "Dtmc state " + std::to_string(s); });
  }
}

Mdp Dtmc::as_mdp() const {
  Mdp mdp(rows_.size());
  mdp.set_initial_state(initial_state_);
  const ActionId tau = mdp.declare_action("tau");
  for (std::size_t s = 0; s < rows_.size(); ++s) {
    const StateId state = static_cast<StateId>(s);
    mdp.add_choice(state, tau, rows_[s]);
    mdp.set_state_reward(state, state_rewards_[s]);
    mdp.set_state_name(state, labels_.name(state));
    for (const std::string& label : labels_.labels_of(state)) {
      mdp.add_label(state, label);
    }
  }
  return mdp;
}

}  // namespace tml
