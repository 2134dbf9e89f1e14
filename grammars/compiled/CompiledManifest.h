//===- CompiledManifest.h - Shipped compiled-grammar registry ---*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Registers the compiled modules of the shipped grammars (one per grammar
/// in grammars/, emitted by the build; the list is in CMakeLists.txt) with
/// the compiled-grammar registry. Explicit on purpose: static
/// self-registration inside an archive member gets dropped by the linker
/// when nothing references the member, so tools opt in explicitly.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_GRAMMARS_COMPILED_COMPILEDMANIFEST_H
#define LLSTAR_GRAMMARS_COMPILED_COMPILEDMANIFEST_H

namespace llstar {
namespace compiled {

/// Registers every shipped compiled-grammar module (idempotent).
void registerShippedGrammars();

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_GRAMMARS_COMPILED_COMPILEDMANIFEST_H
