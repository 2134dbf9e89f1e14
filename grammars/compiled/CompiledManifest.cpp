#include "CompiledManifest.h"

#include "compiled/CompiledRegistry.h"

namespace llstar {
namespace compiled {

// ShippedGrammars.inc, written by CMakeLists.txt alongside, holds one
// LLSTAR_SHIPPED_GRAMMAR(<Name>) line per shipped grammar; the module the
// build emits from that grammar defines kModule_<Name>.
#define LLSTAR_SHIPPED_GRAMMAR(Name)                                          \
  extern const CompiledGrammarModule kModule_##Name;
#include "ShippedGrammars.inc"
#undef LLSTAR_SHIPPED_GRAMMAR

void registerShippedGrammars() {
#define LLSTAR_SHIPPED_GRAMMAR(Name) registerCompiledModule(kModule_##Name);
#include "ShippedGrammars.inc"
#undef LLSTAR_SHIPPED_GRAMMAR
}

} // namespace compiled
} // namespace llstar
