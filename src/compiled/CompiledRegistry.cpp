#include "compiled/CompiledRegistry.h"

#include "analysis/AnalyzedGrammar.h"
#include "lexer/Lexer.h"

#include <mutex>

using namespace llstar;
using namespace llstar::compiled;

uint64_t llstar::compiled::hashPayload(std::string_view Bytes) {
  uint64_t H = 0xcbf29ce484222325ull;
  for (unsigned char C : Bytes) {
    H ^= C;
    H *= 0x100000001b3ull;
  }
  return H;
}

namespace {
struct Registry {
  std::mutex Lock;
  std::vector<const CompiledGrammarModule *> Modules;
};

Registry &registry() {
  static Registry R;
  return R;
}
} // namespace

void llstar::compiled::registerCompiledModule(const CompiledGrammarModule &M) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (const CompiledGrammarModule *&Existing : R.Modules) {
    if (std::string_view(Existing->GrammarName) ==
        std::string_view(M.GrammarName)) {
      Existing = &M;
      return;
    }
  }
  R.Modules.push_back(&M);
}

const CompiledGrammarModule *
llstar::compiled::findCompiledModule(std::string_view GrammarName) {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  for (const CompiledGrammarModule *M : R.Modules)
    if (std::string_view(M->GrammarName) == GrammarName)
      return M;
  return nullptr;
}

std::vector<const CompiledGrammarModule *> llstar::compiled::compiledModules() {
  Registry &R = registry();
  std::lock_guard<std::mutex> G(R.Lock);
  return R.Modules;
}

CompiledResolution
llstar::compiled::resolveCompiledTables(const AnalyzedGrammar &AG,
                                        std::string_view SerializedPayload) {
  CompiledResolution Res;
  Res.View = AG.tables().view();
  if (SerializedPayload.empty())
    return Res;
  const CompiledGrammarModule *M = findCompiledModule(AG.grammar().Name);
  if (M && M->PayloadHash == hashPayload(SerializedPayload)) {
    Res.Native = M->Native;
    Res.Rules = M->Rules;
    Res.Module = M;
  }
  return Res;
}

std::unique_ptr<Lexer>
llstar::compiled::makeModuleLexer(const CompiledGrammarModule &M) {
  std::vector<regex::CharDfaState> States(size_t(M.NumLexStates));
  for (int32_t S = 0; S < M.NumLexStates; ++S) {
    regex::CharDfaState &St = States[size_t(S)];
    const int32_t *Row = M.LexNext + size_t(S) * 256;
    for (int32_t B = 0; B < 256; ++B)
      St.Next[size_t(B)] = Row[B];
    St.AcceptTag = M.LexAccept[S];
  }
  std::vector<LexerAction> Actions(size_t(M.NumLexTags));
  std::vector<TokenType> Types(size_t(M.NumLexTags));
  for (int32_t T = 0; T < M.NumLexTags; ++T) {
    Actions[size_t(T)] = LexerAction(M.LexActions[T]);
    Types[size_t(T)] = TokenType(M.LexTypes[T]);
  }
  return std::make_unique<Lexer>(
      regex::CharDfa::fromTables(std::move(States)), std::move(Actions),
      std::move(Types));
}
