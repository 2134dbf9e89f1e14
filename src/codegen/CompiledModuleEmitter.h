//===- codegen/CompiledModuleEmitter.h - Grammar -> C++ module --*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits an analyzed grammar as a self-contained C++ translation unit, the
/// native module that accelerates \ref LLStarParser: a generated
/// switch-dispatch predictor function per predicate-free decision, a
/// generated body per rule (state ids, labels and set indices of the
/// grammar's analysis/CompiledTables.h folded to constants; the parser
/// supplies the tables at run time), the grammar's serialized analysis
/// payload (\ref serializeGrammar), and one extern
/// \ref llstar::compiled::CompiledGrammarModule object stamped with the
/// payload's FNV-1a hash. A program that links the module can load the
/// payload with \ref deserializeGrammar and parse with no grammar analysis
/// at run time. The emitted file compiles against
/// compiled/CompiledRegistry.h and runtime/LLStarParser.h only.
///
/// This is the backend of the `llstar-emit` executable, which the build
/// runs (CMake function `llstar_add_grammar_module`) to turn each shipped
/// grammar, test grammar and example grammar into its module. Emission is
/// deterministic: an unchanged grammar gives byte-identical source.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_CODEGEN_COMPILEDMODULEEMITTER_H
#define LLSTAR_CODEGEN_COMPILEDMODULEEMITTER_H

#include <string>

namespace llstar {

class AnalyzedGrammar;

/// Emits the compiled module for \p AG: the complete C++ source, whose
/// module object is named `kModule_<grammar name>`.
std::string emitCompiledModule(const AnalyzedGrammar &AG);

} // namespace llstar

#endif // LLSTAR_CODEGEN_COMPILEDMODULEEMITTER_H
