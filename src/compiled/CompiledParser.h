//===- compiled/CompiledParser.h - Old name of LLStarParser ---*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `compiled::CompiledParser` is another name for \ref LLStarParser, the
/// one LL(*) engine, kept so existing callers that spell it (with the
/// tables-view constructor `CompiledParser(AG, View, Stream, Env, Diags,
/// Opts, Native, Rules)`), such as perfbench/src/Harness.cpp, still
/// compile. New code should use LLStarParser.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_COMPILED_COMPILEDPARSER_H
#define LLSTAR_COMPILED_COMPILEDPARSER_H

#include "compiled/CompiledRegistry.h"
#include "runtime/LLStarParser.h"

namespace llstar {
namespace compiled {

using CompiledParser = LLStarParser;

} // namespace compiled
} // namespace llstar

#endif // LLSTAR_COMPILED_COMPILEDPARSER_H
