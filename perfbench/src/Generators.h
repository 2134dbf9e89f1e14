//===- perfbench/src/Generators.h - Seeded input generators -----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seeded generators for every input the benchmark feeds the program: data
/// documents (csv, ini, json, dot), programs (lua, sexpr, lambda, plus the
/// bench/common Java and Sql generators sized to a byte target), editable
/// documents with their statement boundaries, and small rpc snippets. All
/// output is in the language of the shipped grammar it names; the same
/// generator state gives the same text.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_GENERATORS_H
#define PERFBENCH_GENERATORS_H

#include "Common.h"

#include <string>
#include <vector>

namespace perfbench {
namespace gen {

/// A document of about \p Bytes bytes in the named language.
std::string csv(Rng &R, size_t Bytes);
std::string ini(Rng &R, size_t Bytes);
std::string json(Rng &R, size_t Bytes);
std::string dot(Rng &R, size_t Bytes);
std::string lua(Rng &R, size_t Bytes);
std::string sexpr(Rng &R, size_t Bytes);
std::string lambda(Rng &R, size_t Bytes);
/// bench/common's Java and Sql generators, sized to about \p Bytes.
std::string java(Rng &R, size_t Bytes);
std::string sql(Rng &R, size_t Bytes);

/// A document plus the offsets where a whole statement (lua) or array
/// element (json) may be inserted without breaking the syntax.
struct EditableDoc {
  std::string Text;
  std::vector<size_t> Boundaries;
};
EditableDoc luaDocument(Rng &R, size_t Bytes);
EditableDoc jsonDocument(Rng &R, size_t Bytes);

/// Text that, inserted at a boundary of the matching EditableDoc, leaves it
/// valid: one lua statement line, or one json element followed by ", ".
std::string luaStatementLine(Rng &R);
std::string jsonElementItem(Rng &R);
/// A short line for typing at a boundary: a one-line lua statement (a local,
/// an assignment or a call), or a scalar json element (number, string or
/// literal) followed by ", "; \p Form % 3 picks which.
std::string typedLine(Rng &R, bool Lua, int Form);

/// A small json or dot document of about \p Tokens tokens.
std::string jsonSnippet(Rng &R, int Tokens);
std::string dotSnippet(Rng &R, int Tokens);

} // namespace gen
} // namespace perfbench

#endif // PERFBENCH_GENERATORS_H
