//===- examples/generated_config.cpp - Using a generated parser -----------===//
//
// Demonstrates the ahead-of-time workflow: the build emits the native
// module of examples/grammars/Config.g (llstar_add_grammar_module in
// CMakeLists.txt). The module carries the grammar's serialized tables next
// to its generated predictors and rule bodies; this program loads the
// tables and parses with the generated code — no grammar analysis happens
// at runtime, exactly like deploying an ANTLR-generated parser.
//
//===----------------------------------------------------------------------===//

#include "codegen/Serializer.h"
#include "compiled/CompiledRegistry.h"
#include "runtime/TreeUtils.h"

#include <cstdio>

namespace llstar::compiled {
/// Defined by the module the build emits from Config.g.
extern const CompiledGrammarModule kModule_Config;
} // namespace llstar::compiled

int main() {
  const llstar::compiled::CompiledGrammarModule &Module =
      llstar::compiled::kModule_Config;
  llstar::DiagnosticEngine Diags;
  auto Config = llstar::deserializeGrammar(Module.Payload, Diags);
  if (!Config) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  const char *Sample = R"(
# build configuration
[build]
jobs = 8
targets = core, tests, bench
profile = "release with debug info"

[paths]
prefix = "/usr/local"
cache.dir = "/tmp/cache"
)";

  llstar::TokenStream Stream(Config->tokenize(Sample, Diags));
  // The tables just loaded are the ones the module was generated from, so
  // its generated code can drive the parser.
  llstar::LLStarParser Parser(*Config->AG, Stream, nullptr, Diags,
                              llstar::ParserOptions(),
                              {Module.Native, Module.Rules});
  auto Tree = Parser.parse();
  if (Diags.hasErrors()) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }

  // Walk the tree by rule index, looked up by name in the loaded grammar.
  const llstar::Grammar &G = Config->AG->grammar();
  auto Sections = llstar::collectRuleNodes(*Tree, G.findRule("section"));
  std::printf("parsed %zu sections:\n", Sections.size());
  for (const llstar::ParseTree *S : Sections) {
    // section : '[' ID ']' entry* ;
    std::printf("  [%s] with %zu entries\n",
                std::string(S->child(1)->token().Text).c_str(),
                S->numChildren() - 3);
  }
  auto Entries = llstar::collectRuleNodes(*Tree, G.findRule("entry"));
  for (const llstar::ParseTree *E : Entries)
    std::printf("    %-10s = %s\n",
                std::string(E->child(0)->token().Text).c_str(),
                llstar::treeText(*E->child(2)).c_str());
  return 0;
}
