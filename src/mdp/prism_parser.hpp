// Parser for the explicit-state PRISM-language subset that
// src/mdp/export.hpp emits.
//
// Grammar (comments `// ...` allowed anywhere):
//
//   model    := ("dtmc" | "mdp") module labels? rewards?
//   module   := "module" ident var command* "endmodule"
//   var      := ident ":" "[" int ".." int "]" "init" int ";"
//   command  := "[" ident? "]" ident "=" int "->" update ("+" update)* ";"
//   update   := number ":" "(" ident "'" "=" int ")"
//   labels   := ("label" quoted "=" guard ("|" guard)* ";")*
//   guard    := "(" ident "=" int ")" | "false"
//   rewards  := "rewards" quoted reward* "endrewards"
//   reward   := ("[" ident "]")? ident "=" int ":" number ";"
//
// This makes the export/import pair a faithful round trip and lets models
// authored for PRISM (in this single-module explicit style) be loaded into
// the tml pipeline directly.

#pragma once

#include <string>

#include "src/mdp/model.hpp"

namespace tml {

/// The parsed model; exactly one of the two is meaningful per `type`.
struct PrismModel {
  enum class Type { kDtmc, kMdp } type = Type::kMdp;
  Mdp mdp;  ///< always populated (a DTMC parses into a one-choice MDP)

  /// DTMC view; throws unless type == kDtmc.
  Dtmc dtmc() const;
};

/// Parses PRISM source text; throws ParseError with position information
/// on malformed input and ModelError if the resulting model is invalid.
/// A state range with more states than the source has bytes is malformed
/// (each state needs a command), so the input bounds what gets allocated.
PrismModel parse_prism(const std::string& source);

}  // namespace tml
