#include "src/logic/parser.hpp"

#include <cctype>
#include <cstdlib>
#include <optional>

#include "src/common/numeric.hpp"
#include "src/common/stats.hpp"

namespace tml {

namespace {

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StateFormulaPtr parse() {
    StateFormulaPtr formula = parse_state();
    skip_ws();
    if (pos_ != text_.size()) {
      fail("unexpected trailing input");
    }
    return formula;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    throw ParseError("PCTL parse error at position " + std::to_string(pos_) +
                     ": " + message + " (input: \"" + text_ + "\")");
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  bool eof() {
    skip_ws();
    return pos_ >= text_.size();
  }

  char peek() {
    skip_ws();
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }

  bool consume(const std::string& token) {
    skip_ws();
    if (text_.compare(pos_, token.size(), token) == 0) {
      pos_ += token.size();
      return true;
    }
    return false;
  }

  /// Consumes `token` only if it is not followed by an identifier character
  /// (so "F" does not eat the F of "Foo" — labels are quoted, but keywords
  /// like "true" need the boundary).
  bool consume_word(const std::string& token) {
    skip_ws();
    if (text_.compare(pos_, token.size(), token) != 0) return false;
    const std::size_t end = pos_ + token.size();
    if (end < text_.size() &&
        (std::isalnum(static_cast<unsigned char>(text_[end])) ||
         text_[end] == '_')) {
      return false;
    }
    pos_ = end;
    return true;
  }

  void expect(const std::string& token) {
    if (!consume(token)) fail("expected '" + token + "'");
  }

  double parse_number() {
    skip_ws();
    // Locale-independent (src/common/numeric.hpp): bounds like "0.5" must
    // parse identically under a comma-decimal LC_NUMERIC locale, where the
    // strtod this replaces silently read them as 0.
    double value = 0.0;
    const std::size_t consumed =
        parse_double(std::string_view(text_).substr(pos_), &value);
    if (consumed == 0) fail("expected a number");
    pos_ += consumed;
    return value;
  }

  std::size_t parse_integer() {
    skip_ws();
    const std::size_t begin = pos_;
    while (pos_ < text_.size() &&
           std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    if (pos_ == begin) fail("expected an integer");
    return static_cast<std::size_t>(
        std::strtoull(text_.substr(begin, pos_ - begin).c_str(), nullptr, 10));
  }

  std::string parse_quoted_label() {
    skip_ws();
    if (pos_ >= text_.size() || text_[pos_] != '"') fail("expected '\"'");
    ++pos_;
    const std::size_t begin = pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') ++pos_;
    if (pos_ >= text_.size()) fail("unterminated label");
    std::string name = text_.substr(begin, pos_ - begin);
    ++pos_;
    if (name.empty()) fail("empty label");
    return name;
  }

  std::optional<Comparison> try_comparison() {
    if (consume("<=")) return Comparison::kLessEqual;
    if (consume(">=")) return Comparison::kGreaterEqual;
    if (consume("<")) return Comparison::kLess;
    if (consume(">")) return Comparison::kGreater;
    return std::nullopt;
  }

  // Grammar (PRISM precedence: `=>` binds loosest and associates to the
  // right, then `|`, then `&`, then `!`):
  //   state := impl
  //   impl  := or ('=>' impl)?
  //   or    := and ('|' and)*
  //   and   := not ('&' not)*
  StateFormulaPtr parse_state() { return parse_impl(); }

  StateFormulaPtr parse_impl() {
    StateFormulaPtr lhs = parse_or();
    if (consume("=>")) {
      // Right recursion gives right associativity: a => b => c is
      // a => (b => c).
      return pctl::implication(std::move(lhs), parse_impl());
    }
    return lhs;
  }

  StateFormulaPtr parse_or() {
    StateFormulaPtr lhs = parse_and();
    while (peek() == '|') {
      expect("|");
      lhs = pctl::disjunction(std::move(lhs), parse_and());
    }
    return lhs;
  }

  StateFormulaPtr parse_and() {
    StateFormulaPtr lhs = parse_not();
    while (peek() == '&') {
      expect("&");
      lhs = pctl::conjunction(std::move(lhs), parse_not());
    }
    return lhs;
  }

  StateFormulaPtr parse_not() {
    if (consume("!")) return pctl::negation(parse_not());
    return parse_atom();
  }

  StateFormulaPtr parse_atom() {
    skip_ws();
    if (eof()) fail("unexpected end of input");
    if (consume_word("true")) return pctl::truth();
    if (consume_word("false")) return pctl::falsity();
    if (peek() == '"') return pctl::label(parse_quoted_label());
    if (peek() == '(') {
      expect("(");
      StateFormulaPtr inner = parse_state();
      expect(")");
      return inner;
    }
    // P / Pmax / Pmin
    if (consume_word("Pmax")) return parse_prob_tail(Quantifier::kMax);
    if (consume_word("Pmin")) return parse_prob_tail(Quantifier::kMin);
    if (consume_word("P")) return parse_prob_tail(std::nullopt);
    if (consume_word("Rmax")) return parse_reward_tail(Quantifier::kMax);
    if (consume_word("Rmin")) return parse_reward_tail(Quantifier::kMin);
    if (consume_word("R")) return parse_reward_tail(std::nullopt);
    fail("expected a state formula");
  }

  StateFormulaPtr parse_prob_tail(std::optional<Quantifier> quantifier) {
    if (consume("=?")) {
      expect("[");
      PathFormulaPtr path = parse_path();
      expect("]");
      // `P=?` without a quantifier is allowed; the checker requires a DTMC
      // (or resolves it as max on MDPs with a warning-free default).
      return pctl::prob_query(quantifier.value_or(Quantifier::kMax),
                              std::move(path));
    }
    const auto cmp = try_comparison();
    if (!cmp) fail("expected comparison or '=?' after P");
    const double bound = parse_number();
    expect("[");
    PathFormulaPtr path = parse_path();
    expect("]");
    return pctl::prob(*cmp, bound, std::move(path), quantifier);
  }

  StateFormulaPtr parse_reward_tail(std::optional<Quantifier> quantifier) {
    std::string structure;
    if (consume("{")) {
      structure = parse_quoted_label();
      expect("}");
    }
    const bool query = consume("=?");
    std::optional<Comparison> cmp;
    double bound = 0.0;
    if (!query) {
      cmp = try_comparison();
      if (!cmp) fail("expected comparison or '=?' after R");
      bound = parse_number();
    }
    expect("[");
    StateFormulaPtr target;
    std::size_t horizon = 0;
    bool cumulative = false;
    if (consume_word("F")) {
      target = parse_state();
    } else if (consume_word("C")) {
      expect("<=");
      horizon = parse_integer();
      cumulative = true;
    } else {
      fail("expected 'F' or 'C<=' in reward path");
    }
    expect("]");

    if (query) {
      const Quantifier q = quantifier.value_or(Quantifier::kMax);
      return cumulative
                 ? pctl::reward_cumulative_query(q, horizon, structure)
                 : pctl::reward_reach_query(q, std::move(target), structure);
    }
    return cumulative
               ? pctl::reward_cumulative(*cmp, bound, horizon, quantifier,
                                         structure)
               : pctl::reward_reach(*cmp, bound, std::move(target), quantifier,
                                    structure);
  }

  PathFormulaPtr parse_path() {
    if (consume_word("X")) return pctl::next(parse_state());
    if (consume_word("F")) {
      const auto bound = try_step_bound();
      return pctl::eventually(parse_state(), bound);
    }
    if (consume_word("G")) {
      const auto bound = try_step_bound();
      return pctl::globally(parse_state(), bound);
    }
    StateFormulaPtr lhs = parse_state();
    if (!consume_word("U")) fail("expected 'U' in path formula");
    const auto bound = try_step_bound();
    return pctl::until(std::move(lhs), parse_state(), bound);
  }

  std::optional<std::size_t> try_step_bound() {
    if (consume("<=")) return parse_integer();
    return std::nullopt;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

StateFormulaPtr parse_pctl(const std::string& text) {
  static stats::Timer& t_parse = stats::timer("parse.pctl.time");
  const stats::ScopedTimer span(t_parse);
  return Parser(text).parse();
}

}  // namespace tml
