//===- codegen/llstar_emit.cpp - Grammar -> native module emitter ---------===//
//
// The `llstar-emit` executable: analyzes one grammar and writes its native
// module (see CompiledModuleEmitter.h).
//
//   llstar-emit <grammar.g> -o <out.cpp>
//
// The build runs it through the CMake function `llstar_add_grammar_module`
// (codegen/CMakeLists.txt) for the shipped grammars, the SetOps test grammar
// and the example Config grammar. It links the llstar libraries only, never
// the shipped-module registry it generates.
//
// Exit codes: 0 written, 2 errors (unreadable grammar, grammar errors,
// unwritable output), 3 usage errors. Diagnostics are printed only when
// the grammar has errors: warnings are `llstar analyze`'s and `llstar
// lint`'s to report, so the build stays quiet (grammars/csv.g warns).
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "codegen/CompiledModuleEmitter.h"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

using namespace llstar;

int main(int Argc, char **Argv) {
  if (Argc != 4 || std::string(Argv[2]) != "-o") {
    std::fprintf(stderr, "usage: llstar-emit <grammar.g> -o <out.cpp>\n");
    return 3;
  }
  std::ifstream In(Argv[1], std::ios::binary);
  if (!In) {
    std::fprintf(stderr, "error: cannot read %s\n", Argv[1]);
    return 2;
  }
  std::ostringstream Text;
  Text << In.rdbuf();

  DiagnosticEngine Diags;
  auto AG = analyzeGrammarText(Text.str(), Diags);
  if (!AG || Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 2;
  }

  std::ofstream Out(Argv[3], std::ios::binary);
  Out << emitCompiledModule(*AG);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Argv[3]);
    return 2;
  }
  return 0;
}
