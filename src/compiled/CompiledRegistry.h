//===- compiled/CompiledRegistry.h - Compiled-grammar registry --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The conformance-gated registry of native grammar modules, the optional
/// accelerator of \ref LLStarParser. The `llstar-emit` executable (run by
/// the build) turns a grammar into a self-contained C++ module holding
/// generated switch predictors for its predicate-free decisions, generated
/// rule bodies and the grammar's serialized payload; the module registers
/// here under the grammar's name plus the FNV-1a hash of that payload. A
/// module carries no parser or lexer tables: its generated code runs
/// against the tables the grammar's own analysis built
/// (\ref AnalyzedGrammar::tables), and input is tokenized by the grammar's
/// own \ref Lexer.
///
/// The hash is the gate: \ref resolveCompiledTables only serves a module
/// when the payload hash of the grammar just loaded matches the hash the
/// module was generated from, so every state id, decision number and set
/// index folded into the generated code names the same entry of those
/// tables. A module generated from another version of the grammar is
/// skipped: the parser walks the same tables without the generated code.
/// The build regenerates the shipped modules from grammars/*.g, so they
/// match the grammars they ship with.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_COMPILED_COMPILEDREGISTRY_H
#define LLSTAR_COMPILED_COMPILEDREGISTRY_H

#include "analysis/CompiledTables.h"
#include "runtime/LLStarParser.h"

#include <cstdint>
#include <string_view>
#include <vector>

namespace llstar {

class AnalyzedGrammar;

namespace compiled {

/// One generated grammar module: every pointer references static storage
/// inside the generated translation unit, so modules are trivially
/// shareable across threads and live for the whole process.
struct CompiledGrammarModule {
  const char *GrammarName = nullptr;
  /// FNV-1a hash of serializeGrammar() output for the grammar this module
  /// was generated from (see \ref hashPayload).
  uint64_t PayloadHash = 0;

  /// Per decision: generated switch predictor, or null for decisions that
  /// need the table walk (predicated DFAs). Null when none were generated.
  const NativePredictFn *Native = nullptr;
  /// Per rule: generated goto-threaded rule body (every jump target and
  /// token label folded to a constant), or null to fall back to the table
  /// walk. Null when none were generated.
  const NativeRuleFn *Rules = nullptr;
  /// The serializeGrammar() output the module was generated from
  /// (hashPayload(Payload) == PayloadHash): \ref deserializeGrammar loads
  /// it without grammar analysis.
  std::string_view Payload;
};

/// FNV-1a over \p Bytes; the hash \ref CompiledGrammarModule::PayloadHash
/// is computed with (matches the bundle-container content hash).
uint64_t hashPayload(std::string_view Bytes);

/// Registers \p M (idempotent per grammar name + hash; a new hash for an
/// existing name replaces the older module). \p M must live for the whole
/// process — generated modules pass static-storage objects.
void registerCompiledModule(const CompiledGrammarModule &M);

/// Module registered under \p GrammarName, or null.
const CompiledGrammarModule *findCompiledModule(std::string_view GrammarName);

/// All registered modules (stable registration order).
std::vector<const CompiledGrammarModule *> compiledModules();

/// What a grammar's parses may use beyond its own tables: the generated code
/// of a registered module whose payload hash matched, or nothing.
struct CompiledResolution {
  /// The tables to walk: always the grammar's own AnalyzedGrammar::tables(),
  /// module or not.
  TablesView View;
  const NativePredictFn *Native = nullptr;
  const NativeRuleFn *Rules = nullptr;
  /// The matched module, or null.
  const CompiledGrammarModule *Module = nullptr;

  bool fromModule() const { return Module != nullptr; }
  /// The generated code to pass to \ref LLStarParser (empty without a
  /// module).
  NativeCode native() const { return {Native, Rules}; }
};

/// Resolves the module for \p AG. \p SerializedPayload is the output of
/// serializeGrammar(AG) (the caller computes it because this library must
/// not depend on the serializer); pass empty to skip the module lookup.
/// Serializing costs about as much as loading the grammar, so callers
/// serialize only when \ref findCompiledModule finds a module by name.
CompiledResolution resolveCompiledTables(const AnalyzedGrammar &AG,
                                         std::string_view SerializedPayload);

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_COMPILED_COMPILEDREGISTRY_H
