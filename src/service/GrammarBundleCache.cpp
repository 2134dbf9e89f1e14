#include "service/GrammarBundleCache.h"

#include "codegen/Serializer.h"
#include "support/StringUtils.h"

#include <fstream>
#include <sstream>

using namespace llstar;

std::shared_ptr<const GrammarBundle>
llstar::makeGrammarBundle(std::string_view Bytes, DiagnosticEngine &Diags) {
  auto Bundle = std::shared_ptr<GrammarBundle>(new GrammarBundle());
  Bundle->Hash = hashBytes(Bytes);

  if (looksLikeBundle(Bytes)) {
    std::unique_ptr<CompiledGrammar> CG = readBundle(Bytes, Diags);
    if (!CG)
      return nullptr;
    Bundle->Lex = std::move(CG->Lex);
    Bundle->AG = std::move(CG->AG);
  } else {
    Bundle->AG = analyzeGrammarText(Bytes, Diags);
    if (!Bundle->AG)
      return nullptr;
    // Compile the lexer once here rather than per request; lexer-spec
    // problems were already reported during grammar validation.
    DiagnosticEngine LexDiags;
    Bundle->Lex = std::make_unique<Lexer>(
        Bundle->AG->grammar().lexerSpec(), LexDiags);
    if (LexDiags.hasErrors()) {
      for (const Diagnostic &D : LexDiags.diagnostics())
        Diags.report(D.Severity, D.Loc, D.Message);
      return nullptr;
    }
  }
  return Bundle;
}

const compiled::CompiledResolution &GrammarBundle::compiledTables() const {
  std::call_once(CompiledOnce, [this] {
    // The serialized payload keys the module-registry hash gate: at most
    // one serialization per bundle, amortized over every request, over the
    // lexer the bundle already holds, and none when no module carries the
    // grammar's name.
    std::string Payload;
    if (compiled::findCompiledModule(AG->grammar().Name))
      Payload = serializeGrammar(*AG, *Lex);
    Compiled = compiled::resolveCompiledTables(*AG, Payload);
  });
  return Compiled;
}

std::shared_ptr<const GrammarBundle>
GrammarBundleCache::get(std::string_view Bytes, DiagnosticEngine &Diags) {
  uint64_t Key = hashBytes(Bytes);
  {
    std::lock_guard<std::mutex> Lock(Mu);
    auto It = Map.find(Key);
    if (It != Map.end()) {
      ++Stats.Hits;
      return It->second;
    }
  }

  // Load outside the lock: analysis can be slow and must not stall workers
  // fetching unrelated bundles. Two threads racing on the same new content
  // both load; the first insert wins and the duplicate is dropped.
  std::shared_ptr<const GrammarBundle> Bundle =
      makeGrammarBundle(Bytes, Diags);

  std::lock_guard<std::mutex> Lock(Mu);
  if (!Bundle) {
    ++Stats.LoadFailures;
    return nullptr;
  }
  ++Stats.Misses;
  auto [It, Inserted] = Map.emplace(Key, std::move(Bundle));
  return It->second;
}

std::shared_ptr<const GrammarBundle>
GrammarBundleCache::getFile(const std::string &Path,
                            DiagnosticEngine &Diags) {
  std::ifstream In(Path, std::ios::binary);
  if (!In) {
    Diags.error("cannot read grammar file '" + Path + "'");
    return nullptr;
  }
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  return get(Buffer.str(), Diags);
}

GrammarBundleCache::CacheStats GrammarBundleCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mu);
  CacheStats S = Stats;
  S.Entries = Map.size();
  return S;
}

void GrammarBundleCache::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Map.clear();
  Stats = CacheStats();
}
