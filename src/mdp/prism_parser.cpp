#include "src/mdp/prism_parser.hpp"

#include <climits>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <string_view>
#include <utility>

#include "src/common/numeric.hpp"
#include "src/common/stats.hpp"

namespace tml {

namespace {

// PRISM text is ASCII; these match the "C" locale's isspace / isalnum
// without a locale lookup per character.
bool is_space(char c) {
  return c == ' ' || c == '\n' || c == '\t' || c == '\r' || c == '\v' ||
         c == '\f';
}

bool is_ident_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_';
}

/// Scans the source in place: tokens are matched against the text and
/// identifiers come back as views into it, so the lexer allocates nothing.
class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  void skip_ws() {
    while (pos_ < text_.size()) {
      if (is_space(text_[pos_])) {
        ++pos_;
      } else if (text_[pos_] == '/' && pos_ + 1 < text_.size() &&
                 text_[pos_ + 1] == '/') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  bool consume(char c) {
    skip_ws();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool consume(std::string_view token) {
    skip_ws();
    if (text_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// Consumes a keyword respecting identifier boundaries.
  bool consume_word(std::string_view word) {
    skip_ws();
    if (text_.compare(pos_, word.size(), word) != 0) return false;
    const std::size_t end = pos_ + word.size();
    if (end < text_.size() && is_ident_char(text_[end])) return false;
    pos_ = end;
    return true;
  }

  void expect(char c) {
    if (!consume(c)) fail(std::string("expected '") + c + "'");
  }

  void expect(std::string_view token) {
    if (!consume(token)) fail("expected '" + std::string(token) + "'");
  }

  std::string_view identifier() {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && is_ident_char(text_[pos_])) ++pos_;
    if (pos_ == begin) fail("expected identifier");
    return text_.substr(begin, pos_ - begin);
  }

  std::string quoted() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected '\"'");
    ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    if (pos_ >= text_.size()) fail("unterminated string");
    std::string out(text_.substr(begin, pos_ - begin));
    ++pos_;
    return out;
  }

  /// A base-10 integer with an optional sign. Out-of-range literals
  /// saturate to the range of `long`, as strtol does.
  long integer() {
    skip_ws();
    std::size_t i = pos_;
    const bool negative = i < text_.size() && text_[i] == '-';
    if (i < text_.size() && (text_[i] == '-' || text_[i] == '+')) ++i;
    const std::size_t digits = i;
    constexpr unsigned long long kLimit =
        static_cast<unsigned long long>(LONG_MAX) + 1;
    unsigned long long magnitude = 0;
    for (; i < text_.size() && text_[i] >= '0' && text_[i] <= '9'; ++i) {
      magnitude = magnitude <= kLimit / 10
                      ? magnitude * 10 + static_cast<unsigned>(text_[i] - '0')
                      : kLimit + 1;
    }
    if (i == digits) fail("expected integer");
    pos_ = i;
    if (negative) {
      return magnitude >= kLimit ? LONG_MIN : -static_cast<long>(magnitude);
    }
    return magnitude > static_cast<unsigned long long>(LONG_MAX)
               ? LONG_MAX
               : static_cast<long>(magnitude);
  }

  double number() {
    skip_ws();
    if (const std::optional<double> value = short_decimal()) return *value;
    // Locale-independent parse (src/common/numeric.hpp): a PRISM file's
    // "0.5" must not read as 0 under a comma-decimal LC_NUMERIC locale,
    // which is what the strtod this replaces silently did. Reject the
    // textual forms a stochastic model never contains ("nan", "inf", and
    // overflowing literals) before they can poison the numeric engines
    // downstream.
    double value = 0.0;
    std::size_t consumed = parse_double(text_.substr(pos_), &value);
    if (consumed == 0) fail("expected number");
    if (!std::isfinite(value)) fail("number is not finite");
    pos_ += consumed;
    return value;
  }

  /// The common literal, `digits[.digits]` of at most 15 digits with no
  /// exponent, as mantissa / 10^k: both are exact doubles, so the one
  /// rounding of the division gives the correctly rounded value, the same
  /// bits as from_chars. Anything else is left to parse_double.
  std::optional<double> short_decimal() {
    static constexpr double kPow10[] = {1e0,  1e1,  1e2,  1e3,  1e4,  1e5,
                                        1e6,  1e7,  1e8,  1e9,  1e10, 1e11,
                                        1e12, 1e13, 1e14, 1e15};
    std::size_t i = pos_;
    std::uint64_t mantissa = 0;
    std::size_t digits = 0;
    std::size_t fraction = 0;
    const auto take_digits = [&] {
      const std::size_t begin = i;
      for (; i < text_.size() && text_[i] >= '0' && text_[i] <= '9'; ++i) {
        mantissa = mantissa * 10 + static_cast<unsigned>(text_[i] - '0');
        if (++digits > 15) return std::size_t{0};
      }
      return i - begin;
    };
    if (take_digits() == 0) return std::nullopt;
    if (i < text_.size() && text_[i] == '.') {
      ++i;
      fraction = take_digits();
      if (fraction == 0) return std::nullopt;
    }
    if (i < text_.size() && (text_[i] == 'e' || text_[i] == 'E')) {
      return std::nullopt;
    }
    pos_ = i;
    return static_cast<double>(mantissa) / kPow10[fraction];
  }

  /// A transition probability: a finite number in [0, 1].
  double probability() {
    const double value = number();
    if (value < 0.0) fail("probability is negative");
    if (value > 1.0) fail("probability exceeds 1");
    return value;
  }

  /// A reward (rate): finite and non-negative.
  double reward() {
    const double value = number();
    if (value < 0.0) fail("reward is negative");
    return value;
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  [[noreturn]] void fail(const std::string& message) const {
    // Report 1-based line and column of the current position: tooling and
    // humans both index PRISM files by line, not byte offset.
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw ParseError("PRISM parse error at line " + std::to_string(line) +
                     ", column " + std::to_string(column) + ": " + message);
  }

 private:
  std::string_view text_;
  std::size_t pos_ = 0;
};

/// Action names resolved to ids once per distinct name: a model has a
/// handful of actions but one command per state, so a short scan over
/// views beats hashing a string per command. Past kMaxCached names the
/// model's own table takes over.
class ActionTable {
 public:
  explicit ActionTable(Mdp& mdp) : mdp_(mdp) {}

  /// Declares the action on first use.
  ActionId declare(std::string_view name) {
    if (const std::optional<ActionId> id = find(name)) return *id;
    const ActionId id = mdp_.declare_action(std::string(name));
    if (seen_.size() < kMaxCached) seen_.emplace_back(name, id);
    return id;
  }

  /// The action's id if it is among the cached names.
  std::optional<ActionId> find(std::string_view name) const {
    for (const auto& [seen, id] : seen_) {
      if (seen == name) return id;
    }
    return std::nullopt;
  }

 private:
  static constexpr std::size_t kMaxCached = 32;
  Mdp& mdp_;
  std::vector<std::pair<std::string_view, ActionId>> seen_;
};

}  // namespace

Dtmc PrismModel::dtmc() const {
  TML_REQUIRE(type == Type::kDtmc, "PrismModel::dtmc: model is an MDP");
  Dtmc chain(mdp.num_states());
  chain.set_initial_state(mdp.initial_state());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    const auto& choices = mdp.choices(s);
    TML_ASSERT(choices.size() == 1, "PrismModel::dtmc: multiple choices");
    chain.set_transitions(s, choices[0].transitions);
    chain.set_state_reward(s, mdp.state_reward(s) + choices[0].reward);
    chain.set_state_name(s, mdp.state_name(s));
    for (const std::string& label : mdp.labels_of(s)) {
      chain.add_label(s, label);
    }
  }
  return chain;
}

PrismModel parse_prism(const std::string& source) {
  static stats::Timer& t_parse = stats::timer("parse.prism.time");
  static stats::Counter& c_bytes = stats::counter("parse.prism.bytes");
  const stats::ScopedTimer span(t_parse);
  c_bytes.add(source.size());
  Lexer lex(source);

  PrismModel model;
  if (lex.consume_word("dtmc")) {
    model.type = PrismModel::Type::kDtmc;
  } else if (lex.consume_word("mdp")) {
    model.type = PrismModel::Type::kMdp;
  } else {
    lex.fail("expected model type 'dtmc' or 'mdp'");
  }

  lex.expect("module");
  (void)lex.identifier();  // module name

  // State variable: ident : [lo..hi] init k;
  const std::string_view var = lex.identifier();
  lex.expect(':');
  lex.expect('[');
  const long lo = lex.integer();
  lex.expect("..");
  const long hi = lex.integer();
  lex.expect(']');
  lex.expect("init");
  const long init = lex.integer();
  lex.expect(';');
  if (lo != 0 || hi < lo) lex.fail("state range must be [0..N]");
  if (init < lo || init > hi) lex.fail("initial state out of range");
  // Bound the allocation below by the input: every state needs a command
  // of several bytes, so a range with more states than the source has
  // bytes cannot describe a valid model, and a short request must not make
  // the parser allocate gigabytes. State ids are 32-bit.
  if (static_cast<unsigned long>(hi) >= std::numeric_limits<StateId>::max()) {
    lex.fail("state range exceeds the 32-bit state index");
  }
  if (static_cast<unsigned long>(hi) >= source.size()) {
    lex.fail("state range has more states than the source has bytes");
  }

  model.mdp.resize(static_cast<std::size_t>(hi + 1));
  model.mdp.set_initial_state(static_cast<StateId>(init));

  // Commands until 'endmodule'. Updates collect in one reused buffer and
  // move into the model as an exact-size vector.
  ActionTable actions(model.mdp);
  std::vector<Transition> updates;
  while (!lex.consume_word("endmodule")) {
    lex.expect('[');
    std::string_view action = "tau";
    if (lex.peek() != ']') action = lex.identifier();
    lex.expect(']');
    const std::string_view guard_var = lex.identifier();
    if (guard_var != var) {
      lex.fail("unknown variable '" + std::string(guard_var) + "'");
    }
    lex.expect('=');
    const long from = lex.integer();
    if (from < lo || from > hi) lex.fail("guard state out of range");
    lex.expect("->");
    updates.clear();
    do {
      const double p = lex.probability();
      lex.expect(':');
      lex.expect('(');
      if (lex.identifier() != var) lex.fail("unknown variable in update");
      lex.expect('\'');
      lex.expect('=');
      const long to = lex.integer();
      if (to < lo || to > hi) lex.fail("update target out of range");
      lex.expect(')');
      updates.push_back(Transition{static_cast<StateId>(to), p});
    } while (lex.consume('+'));
    lex.expect(';');
    model.mdp.add_choice(
        static_cast<StateId>(from), actions.declare(action),
        std::vector<Transition>(updates.begin(), updates.end()));
  }

  // Trailing blocks: `label` definitions and `rewards ... endrewards`
  // structures, in any order and any number (PRISM imposes no ordering;
  // hand-edited files routinely put rewards first). Multiple rewards
  // blocks accumulate, matching PRISM's additive reward semantics within
  // a structure.
  while (true) {
    if (lex.consume_word("label")) {
      const std::string name = lex.quoted();
      if (name.empty()) lex.fail("empty label name");
      lex.expect('=');
      if (!lex.consume_word("false")) {
        do {
          lex.expect('(');
          if (lex.identifier() != var) lex.fail("unknown variable in label");
          lex.expect('=');
          const long s = lex.integer();
          if (s < lo || s > hi) lex.fail("label state out of range");
          lex.expect(')');
          model.mdp.add_label(static_cast<StateId>(s), name);
        } while (lex.consume('|'));
      }
      lex.expect(';');
      continue;
    }
    if (!lex.consume_word("rewards")) break;
    // The structure name is optional — `rewards ... endrewards` without a
    // quoted name is valid PRISM.
    if (lex.peek() == '"') (void)lex.quoted();
    while (!lex.consume_word("endrewards")) {
      std::string_view action;
      if (lex.consume('[')) {
        action = lex.identifier();
        lex.expect(']');
      }
      if (lex.identifier() != var) lex.fail("unknown variable in reward");
      lex.expect('=');
      const long s = lex.integer();
      if (s < lo || s > hi) lex.fail("reward state out of range");
      lex.expect(':');
      const double r = lex.reward();
      lex.expect(';');
      const StateId state = static_cast<StateId>(s);
      if (action.empty()) {
        model.mdp.set_state_reward(state,
                                   model.mdp.state_reward(state) + r);
      } else {
        // Match by id; an action outside the cache is matched by name.
        const std::optional<ActionId> id = actions.find(action);
        bool matched = false;
        for (Choice& choice : model.mdp.mutable_choices(state)) {
          if (id ? choice.action == *id
                 : model.mdp.action_name(choice.action) == action) {
            choice.reward += r;
            matched = true;
          }
        }
        if (!matched) lex.fail("action reward for unknown command");
      }
    }
  }

  if (!lex.eof()) lex.fail("unexpected trailing input");

  model.mdp.validate();
  if (model.type == PrismModel::Type::kDtmc) {
    for (StateId s = 0; s < model.mdp.num_states(); ++s) {
      if (model.mdp.choices(s).size() != 1) {
        throw ModelError(
            "parse_prism: dtmc state " + std::to_string(s) +
            " has multiple commands");
      }
    }
  }
  return model;
}

}  // namespace tml
