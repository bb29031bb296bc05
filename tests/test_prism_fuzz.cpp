// Fuzz suite for the PRISM front end (src/mdp/prism_parser.cpp):
//
//   * pinned errors — the exact ParseError / ModelError text (line, column,
//     message) for a table of malformed inputs must not drift;
//   * round trips — random oracle-sized and tml_gen models go through
//     to_prism and parse_prism and come back with the same compiled content
//     hash and the same labels on every state;
//   * mutations — truncations at every offset and random token deletions,
//     duplications and swaps may only parse or throw ParseError/ModelError.
//
// Seeds rotate with TML_FUZZ_SEED.

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/casestudies/generator.hpp"
#include "src/common/rng.hpp"
#include "src/mdp/compiled.hpp"
#include "src/mdp/export.hpp"
#include "src/mdp/prism_parser.hpp"
#include "tests/oracle.hpp"

namespace tml {
namespace {

std::uint64_t fuzz_base_seed() {
  if (const char* env = std::getenv("TML_FUZZ_SEED")) {
    return std::strtoull(env, nullptr, 10);
  }
  return 20261019ull;
}

// ---------------------------------------------------------------------------
// Pinned errors

struct PinnedError {
  const char* source;
  bool parse_error;  ///< ParseError, else ModelError
  const char* message;
};

constexpr PinnedError kPinnedErrors[] = {
    {"",
     true,
     "PRISM parse error at line 1, column 1: "
     "expected model type 'dtmc' or 'mdp'"},
    {"ctmc\n"
     "module m endmodule",
     true,
     "PRISM parse error at line 1, column 1: "
     "expected model type 'dtmc' or 'mdp'"},
    {"mdpx module m",
     true,
     "PRISM parse error at line 1, column 1: "
     "expected model type 'dtmc' or 'mdp'"},
    {"dtmc modul m",
     true,
     "PRISM parse error at line 1, column 6: expected 'module'"},
    {"dtmc module 9",
     true,
     "PRISM parse error at line 1, column 14: expected identifier"},
    {"dtmc module m s [0..1] init 0;",
     true,
     "PRISM parse error at line 1, column 17: expected ':'"},
    {"dtmc module m s : [1..2] init 1;",
     true,
     "PRISM parse error at line 1, column 33: state range must be [0..N]"},
    {"dtmc module m s : [0..2] init 5;",
     true,
     "PRISM parse error at line 1, column 33: initial state out of range"},
    {"dtmc module m s : [0..x] init 0;",
     true,
     "PRISM parse error at line 1, column 23: expected integer"},
    {"dtmc module m s : [0..1] init 0 endmodule",
     true,
     "PRISM parse error at line 1, column 33: expected ';'"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [] t=0 -> 1 : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 7: unknown variable 't'"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [] s=7 -> 1 : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 9: guard state out of range"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [] s=0 1 : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 10: expected '->'"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> x : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 15: expected number"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> 1.5 : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 18: probability exceeds 1"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> -0.5 : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 19: probability is negative"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> 1e999 : (s'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 15: expected number"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> 1 : (t'=0);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 21: unknown variable in update"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> 1 : (s'=2);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 24: update target out of range"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> 1 : (s'=1)\n"
     "  [go] s=1 -> 1 : (s'=1);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 5, column 3: expected ';'"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go s=0 -> 1 : (s'=1);\n"
     "endmodule\n",
     true,
     "PRISM parse error at line 4, column 7: expected ']'"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [go] s=0 -> 1 : (s'=1);\n",
     true,
     "PRISM parse error at line 5, column 1: expected '['"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "label \"x\" = (t=0);\n",
     true,
     "PRISM parse error at line 6, column 15: unknown variable in label"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "label \"x\" = (s=9);\n",
     true,
     "PRISM parse error at line 6, column 17: label state out of range"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "label x = (s=0);\n",
     true,
     "PRISM parse error at line 6, column 7: expected '\"'"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "label \"x = (s=0);\n",
     true,
     "PRISM parse error at line 7, column 1: unterminated string"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "label \"x\" = (s=0) | s=0;\n",
     true,
     "PRISM parse error at line 6, column 21: expected '('"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "rewards \"r\"\n"
     "  s=0 : -1;\n"
     "endrewards\n",
     true,
     "PRISM parse error at line 7, column 11: reward is negative"},
    {"mdp\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [go] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "rewards \"r\"\n"
     "  [stop] s=0 : 1;\n"
     "endrewards\n",
     true,
     "PRISM parse error at line 7, column 18: "
     "action reward for unknown command"},
    {"mdp\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [go] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "rewards \"r\"\n"
     "  [go] s=0 : 1;\n"
     "  t=0 : 1;\n"
     "endrewards\n",
     true,
     "PRISM parse error at line 8, column 4: unknown variable in reward"},
    {"mdp\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [go] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "rewards \"r\"\n"
     "  s=3 : 1;\n"
     "endrewards\n",
     true,
     "PRISM parse error at line 7, column 6: reward state out of range"},
    {"mdp\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [go] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "rewards \"r\"\n"
     "  s=0 : 1\n"
     "endrewards\n",
     true,
     "PRISM parse error at line 8, column 1: expected ';'"},
    {"mdp\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [go] s=0 -> 1 : (s'=0);\n"
     "endmodule\n"
     "rewards \"r\"\n"
     "  s=0 : 1;\n",
     true,
     "PRISM parse error at line 8, column 1: expected identifier"},
    {"// header\n"
     "\n"
     "  // more\n"
     "dtmc\n"
     "module m\n"
     "  s : [0..0] init 0;\n"
     "  [] s=0 -> 1 : (s'=0); // ok\n"
     "endmodule\n"
     "garbage\n",
     true,
     "PRISM parse error at line 9, column 1: unexpected trailing input"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [] s=0 -> 0.5 : (s'=0);\n"
     "  [] s=1 -> 1 : (s'=1);\n"
     "endmodule\n",
     false,
     "Mdp state 0 choice 0: distribution sums to 0.500000"},
    {"dtmc\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [] s=0 -> 1 : (s'=0);\n"
     "  [] s=0 -> 1 : (s'=1);\n"
     "  [] s=1 -> 1 : (s'=1);\n"
     "endmodule\n",
     false,
     "parse_prism: dtmc state 0 has multiple commands"},
    {"mdp\n"
     "module m\n"
     "  s : [0..2] init 0;\n"
     "  [a] s=0 -> 1 : (s'=0);\n"
     "  [a] s=2 -> 1 : (s'=2);\n"
     "endmodule\n",
     false,
     "Mdp: state 1 () has no choices"},
    {"mdp\n"
     "module m\n"
     "  s : [0..1] init 0;\n"
     "  [a] s=0 -> 1 : (s'=0);\n"
     "  [a] s=1 -> 0.25 : (s'=0) + 0.25 : (s'=1);\n"
     "endmodule\n",
     false,
     "Mdp state 1 choice 0: distribution sums to 0.500000"},
};

TEST(PrismFuzz, ErrorMessagesArePinned) {
  for (const PinnedError& pinned : kPinnedErrors) {
    SCOPED_TRACE(pinned.source);
    try {
      (void)parse_prism(pinned.source);
      ADD_FAILURE() << "accepted";
    } catch (const ParseError& error) {
      EXPECT_TRUE(pinned.parse_error) << "ParseError instead of ModelError";
      EXPECT_EQ(std::string(error.what()), pinned.message);
    } catch (const ModelError& error) {
      EXPECT_FALSE(pinned.parse_error) << "ModelError instead of ParseError";
      EXPECT_EQ(std::string(error.what()), pinned.message);
    }
  }
}

TEST(PrismFuzz, StateRangeLargerThanTheSourceIsRejected) {
  // A short source must not make the parser allocate a state per number in
  // its range: every state needs a command, so [0..N] needs > N bytes.
  const std::string source =
      "dtmc module m s : [0..100000] init 0; [] s=0 -> 1 : (s'=0); "
      "endmodule";
  ASSERT_LT(source.size(), 100u);
  try {
    (void)parse_prism(source);
    ADD_FAILURE() << "accepted";
  } catch (const ParseError& error) {
    EXPECT_EQ(std::string(error.what()),
              "PRISM parse error at line 1, column 38: state range has more "
              "states than the source has bytes");
  }
  // The bound refuses no valid model: a range exactly as large as the
  // commands need still parses.
  std::string chain = "dtmc module m s : [0..99] init 0;\n";
  for (int s = 0; s < 100; ++s) {
    chain += "[] s=" + std::to_string(s) + " -> 1 : (s'=" +
             std::to_string(std::min(s + 1, 99)) + ");\n";
  }
  chain += "endmodule\n";
  EXPECT_EQ(parse_prism(chain).mdp.num_states(), 100u);
}

TEST(PrismFuzz, EmptyLabelNameIsAParseError) {
  // Found by the token mutations below: `label ""` used to reach
  // Mdp::add_label and fail its precondition instead of the parse.
  try {
    (void)parse_prism(
        "dtmc module m s : [0..0] init 0; [] s=0 -> 1 : (s'=0); endmodule "
        "label \"\" = (s=0);");
    ADD_FAILURE() << "accepted";
  } catch (const ParseError& error) {
    EXPECT_EQ(std::string(error.what()),
              "PRISM parse error at line 1, column 74: empty label name");
  }
}

TEST(PrismFuzz, DecimalLiteralsMatchFromChars) {
  // Probabilities are read through a short-decimal fast path; every literal
  // must give the bits std::from_chars gives, on and off that path (long
  // mantissas, exponents).
  Rng rng(fuzz_base_seed());
  for (int trial = 0; trial < 3000; ++trial) {
    std::string literal;
    switch (rng.index(4)) {
      case 0:
        literal = rng.bernoulli(0.5) ? "1" : "0";
        break;
      case 1:
        literal = "1." + std::string(1 + rng.index(20), '0');
        break;
      default:
        literal = "0." + std::string(rng.index(4), '0');
        for (std::size_t d = 1 + rng.index(20); d > 0; --d) {
          literal += static_cast<char>('0' + rng.index(10));
        }
        break;
    }
    if (rng.bernoulli(0.1)) literal += "e0";
    // A reward literal with digits on both sides of the point.
    std::string reward;
    for (std::size_t d = 1 + rng.index(12); d > 0; --d) {
      reward += static_cast<char>('0' + rng.index(10));
    }
    if (rng.bernoulli(0.7)) {
      reward += '.';
      for (std::size_t d = 1 + rng.index(12); d > 0; --d) {
        reward += static_cast<char>('0' + rng.index(10));
      }
    }
    const auto read = [](const std::string& text) {
      double value = 0.0;
      std::from_chars(text.data(), text.data() + text.size(), value);
      return value;
    };
    const double expected = read(literal);
    const double expected_reward = read(reward);
    char rest[64];
    const auto end = std::to_chars(rest, rest + sizeof(rest), 1.0 - expected);
    const std::string source =
        "dtmc module m s : [0..1] init 0; [] s=0 -> " + literal +
        " : (s'=0) + " + std::string(rest, end.ptr) +
        " : (s'=1); [] s=1 -> 1 : (s'=1); endmodule rewards s=1 : " + reward +
        "; endrewards";
    const PrismModel parsed = parse_prism(source);
    const double got = parsed.mdp.choices(0)[0].transitions[0].probability;
    EXPECT_EQ(std::memcmp(&got, &expected, sizeof(double)), 0)
        << literal << " read as " << got;
    const double got_reward = parsed.mdp.state_reward(1);
    EXPECT_EQ(std::memcmp(&got_reward, &expected_reward, sizeof(double)), 0)
        << reward << " read as " << got_reward;
  }
}

// ---------------------------------------------------------------------------
// Round trips

std::set<std::string> label_set(const std::vector<std::string>& labels) {
  return {labels.begin(), labels.end()};
}

void expect_near(const std::vector<double>& a, const std::vector<double>& b,
                 const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], 1e-11 * std::max(1.0, std::abs(a[i])))
        << what << "[" << i << "]";
  }
}

/// The exporter prints 12 significant digits. Dyadic models survive that
/// exactly, so their compiled content hash must come back unchanged. Others
/// (tml_gen queue rates are products of k/64) must come back with the same
/// structure and labels, numbers within print precision, and reach a fixed
/// point: a second round trip changes no bit.
void expect_same_model(const CompiledModel& back, const CompiledModel& model,
                       bool dyadic, const std::string& where) {
  if (dyadic) {
    EXPECT_EQ(back.content_hash(), model.content_hash()) << where;
    return;
  }
  EXPECT_EQ(back.row_start(), model.row_start()) << where;
  EXPECT_EQ(back.choice_start(), model.choice_start()) << where;
  EXPECT_EQ(back.target(), model.target()) << where;
  EXPECT_EQ(back.label_names(), model.label_names()) << where;
  for (const std::string& label : model.label_names()) {
    EXPECT_EQ(back.states_with_label(label), model.states_with_label(label))
        << where << ", label " << label;
  }
  expect_near(back.prob(), model.prob(), where + ": prob");
  expect_near(back.state_rewards(), model.state_rewards(),
              where + ": state rewards");
  expect_near(back.choice_rewards(), model.choice_rewards(),
              where + ": choice rewards");
}

void expect_round_trip(const Mdp& mdp, bool dyadic, const std::string& where) {
  const PrismModel parsed = parse_prism(to_prism(mdp));
  EXPECT_EQ(parsed.type, PrismModel::Type::kMdp) << where;
  ASSERT_EQ(parsed.mdp.num_states(), mdp.num_states()) << where;
  expect_same_model(compile(parsed.mdp), compile(mdp), dyadic, where);
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    EXPECT_EQ(label_set(parsed.mdp.labels_of(s)), label_set(mdp.labels_of(s)))
        << where << ", state " << s;
  }
  if (!dyadic) expect_round_trip(parsed.mdp, true, where + " (again)");
}

void expect_round_trip(const Dtmc& chain, bool dyadic,
                       const std::string& where) {
  const PrismModel parsed = parse_prism(to_prism(chain));
  EXPECT_EQ(parsed.type, PrismModel::Type::kDtmc) << where;
  const Dtmc back = parsed.dtmc();
  ASSERT_EQ(back.num_states(), chain.num_states()) << where;
  expect_same_model(compile(back), compile(chain), dyadic, where);
  for (StateId s = 0; s < chain.num_states(); ++s) {
    EXPECT_EQ(label_set(back.labels_of(s)), label_set(chain.labels_of(s)))
        << where << ", state " << s;
  }
  if (!dyadic) expect_round_trip(back, true, where + " (again)");
}

/// Extra labels and dyadic rewards (exact in the exporter's 12 digits) on
/// top of the oracle's "goal" label.
void decorate(Rng& rng, Mdp& mdp) {
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    if (rng.bernoulli(0.3)) {
      mdp.add_label(s, "l" + std::to_string(rng.index(3)));
    }
    if (rng.bernoulli(0.3)) {
      mdp.set_state_reward(s, static_cast<double>(1 + rng.index(64)) / 8.0);
    }
    for (Choice& choice : mdp.mutable_choices(s)) {
      if (rng.bernoulli(0.3)) {
        choice.reward = static_cast<double>(1 + rng.index(64)) / 16.0;
      }
    }
  }
}

Dtmc first_choice_chain(const Mdp& mdp) {
  Dtmc chain(mdp.num_states());
  chain.set_initial_state(mdp.initial_state());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    chain.set_transitions(s, mdp.choices(s)[0].transitions);
    chain.set_state_reward(s, mdp.state_reward(s));
    for (const std::string& label : mdp.labels_of(s)) chain.add_label(s, label);
  }
  return chain;
}

class PrismRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(PrismRoundTrip, ExportThenParseKeepsHashAndLabels) {
  Rng rng(fuzz_base_seed() * 7919 + static_cast<std::uint64_t>(GetParam()));
  for (int trial = 0; trial < 20; ++trial) {
    oracle::RandomModelConfig config;
    config.num_states = 2 + rng.index(80);
    config.max_choices = 1 + rng.index(3);
    oracle::RandomModel random = oracle::random_model(rng, config);
    Mdp& mdp = random.mdp;
    mdp.set_initial_state(static_cast<StateId>(rng.index(mdp.num_states())));
    decorate(rng, mdp);
    const std::string where = "trial " + std::to_string(trial);
    expect_round_trip(mdp, true, where + " (mdp)");
    expect_round_trip(first_choice_chain(mdp), true, where + " (dtmc)");
  }

  GeneratorSpec grid;
  grid.family = GeneratorFamily::kGridRobot;
  grid.size = 2 + rng.index(8);
  grid.seed = rng.index(1000);
  grid.hazard_density = 0.2 * rng.uniform();
  expect_round_trip(generate_grid_robot(grid), false, "grid");

  GeneratorSpec queue;
  queue.family = GeneratorFamily::kQueueMesh;
  queue.size = 1 + rng.index(8);
  queue.seed = rng.index(1000);
  expect_round_trip(generate_queue_mesh(queue), false, "queue");

  GeneratorSpec wsn;
  wsn.family = GeneratorFamily::kWsnField;
  wsn.size = 1 + rng.index(4);
  wsn.seed = rng.index(1000);
  wsn.jitter = rng.bernoulli(0.5) ? 0.02 : 0.0;
  expect_round_trip(generate_wsn_field(wsn), false, "wsn");
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrismRoundTrip, ::testing::Range(0, 8));

TEST(PrismFuzz, ManyActionsRoundTrip) {
  // More distinct actions than the parser's local action table holds, with
  // action rewards on every one: rewards must still find their commands.
  Mdp mdp(3);
  for (StateId s = 0; s < 3; ++s) {
    for (int a = 0; a < 50; ++a) {
      mdp.add_choice(s, "act" + std::to_string((a * 7 + s) % 50),
                     {Transition{static_cast<StateId>((s + a) % 3), 1.0}},
                     static_cast<double>(a + 1) / 4.0);
    }
  }
  mdp.add_label(2, "goal");
  expect_round_trip(mdp, true, "50 actions");
}

// ---------------------------------------------------------------------------
// Mutations

/// Parses `source`; success, ParseError and ModelError are the only allowed
/// outcomes.
void expect_parse_or_reject(const std::string& source) {
  try {
    (void)parse_prism(source);
  } catch (const ParseError&) {
  } catch (const ModelError&) {
  } catch (const std::exception& error) {
    ADD_FAILURE() << "unexpected exception: " << error.what() << "\non:\n"
                  << source;
  }
}

/// Splits PRISM text into tokens: identifier/number runs, the two-character
/// operators, single punctuation characters and whitespace runs, so that
/// concatenating the tokens gives the text back.
std::vector<std::string> tokenize(const std::string& text) {
  const auto word_char = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
           c == '.';
  };
  std::vector<std::string> tokens;
  std::size_t i = 0;
  while (i < text.size()) {
    std::size_t j = i + 1;
    const char c = text[i];
    const auto space = [](char ch) {
      return std::isspace(static_cast<unsigned char>(ch)) != 0;
    };
    if (space(c)) {
      while (j < text.size() && space(text[j])) ++j;
    } else if (word_char(c)) {
      while (j < text.size() && word_char(text[j])) ++j;
    } else if (text.compare(i, 2, "->") == 0 ||
               text.compare(i, 2, "//") == 0) {
      j = i + 2;
    }
    tokens.push_back(text.substr(i, j - i));
    i = j;
  }
  return tokens;
}

std::string join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& token : tokens) out += token;
  return out;
}

std::string small_model_text(Rng& rng) {
  oracle::RandomModelConfig config;
  config.num_states = 2 + rng.index(6);
  config.max_choices = 1 + rng.index(2);
  config.max_successors = 3;
  oracle::RandomModel random = oracle::random_model(rng, config);
  decorate(rng, random.mdp);
  if (rng.bernoulli(0.5)) return to_prism(random.mdp);
  return to_prism(first_choice_chain(random.mdp));
}

class PrismMutation : public ::testing::TestWithParam<int> {};

TEST_P(PrismMutation, TruncationsOnlyParseOrReject) {
  Rng rng(fuzz_base_seed() * 104729 + static_cast<std::uint64_t>(GetParam()));
  const std::string text = small_model_text(rng);
  for (std::size_t cut = 0; cut <= text.size(); ++cut) {
    expect_parse_or_reject(text.substr(0, cut));
  }
}

TEST_P(PrismMutation, TokenEditsOnlyParseOrReject) {
  Rng rng(fuzz_base_seed() * 1299709 + static_cast<std::uint64_t>(GetParam()));
  const std::string text = small_model_text(rng);
  const std::vector<std::string> tokens = tokenize(text);
  ASSERT_EQ(join(tokens), text);
  // Every single-token deletion and duplication.
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    std::vector<std::string> edited = tokens;
    edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
    expect_parse_or_reject(join(edited));
    edited = tokens;
    edited.insert(edited.begin() + static_cast<std::ptrdiff_t>(i), tokens[i]);
    expect_parse_or_reject(join(edited));
  }
  // Random multi-token edits: swaps, replacements, byte noise.
  const std::string noise = "\"/()[];:=+-.'|0123456789e\n\t ";
  for (int trial = 0; trial < 300; ++trial) {
    std::vector<std::string> edited = tokens;
    for (std::size_t edits = 1 + rng.index(3); edits > 0; --edits) {
      const std::size_t i = rng.index(edited.size());
      const std::size_t j = rng.index(edited.size());
      switch (rng.index(4)) {
        case 0:
          std::swap(edited[i], edited[j]);
          break;
        case 1:
          edited[i] = tokens[rng.index(tokens.size())];
          break;
        case 2:
          edited[i] = std::string(1, noise[rng.index(noise.size())]);
          break;
        default:
          edited.erase(edited.begin() + static_cast<std::ptrdiff_t>(i));
          break;
      }
      if (edited.empty()) break;
    }
    expect_parse_or_reject(join(edited));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PrismMutation, ::testing::Range(0, 8));

}  // namespace
}  // namespace tml
