//===- tests/CompiledConformanceTests.cpp - One engine, every path --------===//
//
// LLStarParser is the one LL(*) engine; a native module only accelerates
// it. This suite holds every way of reaching the engine to the same
// observable output: verdict, diagnostics, heap and arena trees, and the
// full ParserStats.
//
//   - Over the fuzz corpus (tests/corpus/*.g, the same sampled sentences
//     + mutants FuzzRegressionTests replays), with and without error
//     recovery: the parse through the analyzed grammar must match the
//     parse through the grammar read back from `llstarbundle` bytes, and
//     the digest recorded in tests/golden/corpus/<grammar>.txt. Those
//     digests were recorded from the ATN interpreter the table walk
//     replaced, so the walk keeps reproducing it.
//   - Against the recovery golden snapshots of the shipped grammars
//     (tests/golden/recovery/*.txt), heap and arena trees both, with and
//     without the native module.
//   - Through the checked-in native modules: every shipped grammar must
//     hash-match its registered module (stale modules fail here *and* in
//     the CI regen-diff gate), the module lexer must tokenize identically
//     to the spec-compiled lexer, and parses through the module's native
//     predictors and rule bodies must match the table walk alone.
//   - Through every AnalyzedGrammar construction path: analyze, fromParts,
//     deserializeGrammar and bundle bytes all carry tables and parse alike.
//
//===----------------------------------------------------------------------===//

#include "TestHelpers.h"
#include "analysis/DecisionAnalyzer.h"
#include "atn/ATNBuilder.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledRegistry.h"
#include "fuzz/SentenceGen.h"
#include "fuzz/SentenceSampler.h"
#include "grammar/GrammarParser.h"
#include "leftrec/LeftRecursionRewriter.h"
#include "runtime/Arena.h"
#include "service/GrammarBundleCache.h"

#include "CompiledManifest.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

using namespace llstar;
using namespace llstar::test;

namespace {

std::string slurp(const std::filesystem::path &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

std::filesystem::path sourcePath(const std::string &Rel) {
  return std::filesystem::path(LLSTAR_SOURCE_DIR) / Rel;
}

std::vector<std::filesystem::path> corpusFiles() {
  std::vector<std::filesystem::path> Files;
  for (const auto &Entry :
       std::filesystem::directory_iterator(sourcePath("tests/corpus")))
    if (Entry.path().extension() == ".g")
      Files.push_back(Entry.path());
  std::sort(Files.begin(), Files.end());
  return Files;
}

// Deterministic per-file sampler seed, independent of directory order
// (same scheme as FuzzRegressionTests so the suites replay comparable
// sentence sets).
uint64_t fileSeed(const std::filesystem::path &Path) {
  uint64_t H = 0xcbf29ce484222325ull; // FNV-1a
  for (char C : Path.filename().string())
    H = (H ^ uint64_t(uint8_t(C))) * 0x100000001b3ull;
  return H;
}

std::vector<Token> lex(const AnalyzedGrammar &AG, const std::string &Input) {
  DiagnosticEngine Diags;
  Lexer L(AG.grammar().lexerSpec(), Diags);
  return L.tokenize(Input, Diags);
}

/// Everything observable from one parse, for differential comparison.
struct Capture {
  bool Ok = false;
  bool DeadlineHit = false;
  std::string DiagText;
  std::string HeapTree;
  std::string ArenaTree;
  size_t HeapErrorNodes = 0;
  std::string StatsJson; ///< full per-decision stats, serialized
  /// Heap tree of a parse with stats off: with no deadline either, that is
  /// the configuration where native rule bodies call their predictors
  /// directly instead of through the engine.
  std::string FastTree;

  /// FNV-1a over every field: the form tests/golden/corpus/ records.
  std::string digest() const {
    uint64_t H = 0xcbf29ce484222325ull;
    auto Mix = [&H](std::string_view S) {
      for (char C : S)
        H = (H ^ uint64_t(uint8_t(C))) * 0x100000001b3ull;
      H = (H ^ 0x1f) * 0x100000001b3ull;
    };
    Mix(Ok ? "ok" : "fail");
    Mix(DeadlineHit ? "deadline" : "-");
    Mix(DiagText);
    Mix(HeapTree);
    Mix(ArenaTree);
    Mix(std::to_string(HeapErrorNodes));
    Mix(StatsJson);
    Mix(FastTree);
    char Buf[17];
    std::snprintf(Buf, sizeof(Buf), "%016llx", (unsigned long long)H);
    return Buf;
  }
};

/// How a capture reaches the engine: the grammar's own tables alone, or
/// with a module's native code, tokenized by the spec-compiled lexer or by
/// \p Lex.
struct Route {
  NativeCode Native;
  const Lexer *Lex = nullptr;
};

ParserOptions baseOptions(const AnalyzedGrammar &AG, bool Recover) {
  ParserOptions Opts;
  Opts.Memoize = AG.grammar().Options.Memoize;
  Opts.Recover = Recover;
  return Opts;
}

Capture capture(const AnalyzedGrammar &AG, const std::string &Input,
                bool Recover, const Route &Via = Route()) {
  auto Tokenize = [&] {
    if (!Via.Lex)
      return lex(AG, Input);
    DiagnosticEngine Diags;
    return Via.Lex->tokenize(Input, Diags);
  };
  auto Parse = [&](TokenStream &Stream, DiagnosticEngine &Diags,
                   const ParserOptions &Opts, auto &&Use) {
    LLStarParser P(AG, Stream, nullptr, Diags, Opts, Via.Native);
    Use(P);
  };
  Capture C;
  {
    TokenStream Stream(Tokenize());
    DiagnosticEngine Diags;
    Parse(Stream, Diags, baseOptions(AG, Recover), [&](LLStarParser &P) {
      auto Tree = P.parse();
      C.Ok = P.ok();
      C.DeadlineHit = P.deadlineExpired();
      C.StatsJson = P.stats().json(/*IncludeDecisions=*/true);
      if (Tree) {
        C.HeapTree = Tree->str(AG.grammar());
        C.HeapErrorNodes = Tree->numErrorNodes();
      }
    });
    C.DiagText = Diags.str();
  }
  {
    TokenStream Stream(Tokenize());
    DiagnosticEngine Diags;
    Arena TreeArena;
    ParserOptions Opts = baseOptions(AG, Recover);
    Opts.TreeArena = &TreeArena;
    Parse(Stream, Diags, Opts, [&](LLStarParser &P) {
      P.parse();
      if (P.arenaTree())
        C.ArenaTree = P.arenaTree()->str(AG.grammar(), Stream);
    });
  }
  {
    TokenStream Stream(Tokenize());
    DiagnosticEngine Diags;
    ParserOptions Opts = baseOptions(AG, Recover);
    Opts.CollectStats = false;
    Parse(Stream, Diags, Opts, [&](LLStarParser &P) {
      if (auto Tree = P.parse())
        C.FastTree = Tree->str(AG.grammar());
    });
  }
  return C;
}

void expectIdentical(const Capture &Want, const Capture &Got,
                     const std::string &Context) {
  EXPECT_EQ(Want.Ok, Got.Ok) << Context;
  EXPECT_EQ(Want.DeadlineHit, Got.DeadlineHit) << Context;
  EXPECT_EQ(Want.DiagText, Got.DiagText) << Context;
  EXPECT_EQ(Want.HeapTree, Got.HeapTree) << Context;
  EXPECT_EQ(Want.ArenaTree, Got.ArenaTree) << Context;
  EXPECT_EQ(Want.HeapErrorNodes, Got.HeapErrorNodes) << Context;
  EXPECT_EQ(Want.StatsJson, Got.StatsJson) << Context;
  EXPECT_EQ(Want.FastTree, Got.FastTree) << Context;
}

//===----------------------------------------------------------------------===//
// Differential replay over the fuzz corpus
//===----------------------------------------------------------------------===//

class CompiledCorpusConformance
    : public ::testing::TestWithParam<std::filesystem::path> {};

TEST_P(CompiledCorpusConformance, MatchesInterpreterOnSampledSentences) {
  const std::filesystem::path &File = GetParam();
  auto AG = analyzeOrFail(slurp(File));
  ASSERT_TRUE(AG);
  DiagnosticEngine BundleDiags;
  std::unique_ptr<CompiledGrammar> FromBundle =
      readBundle(writeBundle(*AG), BundleDiags);
  ASSERT_TRUE(FromBundle) << BundleDiags.str();

  // One line per case: "<case> <recover> <digest>".
  std::string Recorded;
  fuzz::SentenceSampler Sampler(AG->grammar(), fileSeed(File));
  int Case = 0;
  for (int S = 0; S < 8; ++S) {
    std::vector<std::string> Tokens = Sampler.sample();
    std::vector<std::string> Inputs{fuzz::SentenceSampler::render(Tokens)};
    for (int M = 0; M < 2; ++M)
      Inputs.push_back(
          fuzz::SentenceSampler::render(Sampler.mutate(Tokens)));
    for (const std::string &Input : Inputs) {
      for (bool Recover : {false, true}) {
        std::string Context = File.filename().string() +
                              (Recover ? " [recover] <" : " <") + Input + ">";
        Capture Walk = capture(*AG, Input, Recover);
        Capture Read = capture(*FromBundle->AG, Input, Recover,
                               {{}, FromBundle->Lex.get()});
        expectIdentical(Walk, Read, Context + " (from bundle bytes)");
        Recorded += std::to_string(Case) + (Recover ? " 1 " : " 0 ") +
                    Walk.digest() + "\n";
      }
      ++Case;
    }
  }

  std::filesystem::path Golden = sourcePath("tests/golden/corpus") /
                                 (File.stem().string() + ".txt");
  if (std::getenv("LLSTAR_REGEN_GOLDEN")) {
    std::ofstream Out(Golden, std::ios::binary);
    ASSERT_TRUE(Out.good()) << Golden;
    Out << Recorded;
    return;
  }
  EXPECT_EQ(Recorded, slurp(Golden))
      << "parses of " << File.filename().string()
      << " no longer match the recorded interpreter digests; regenerate "
         "with LLSTAR_REGEN_GOLDEN=1 only for an intended change";
}

std::string corpusTestName(
    const ::testing::TestParamInfo<std::filesystem::path> &Info) {
  std::string Name = Info.param.stem().string();
  for (char &C : Name)
    if (!std::isalnum(uint8_t(C)))
      C = '_';
  return Name;
}

INSTANTIATE_TEST_SUITE_P(Corpus, CompiledCorpusConformance,
                         ::testing::ValuesIn(corpusFiles()), corpusTestName);

//===----------------------------------------------------------------------===//
// Golden recovered-tree snapshots (shipped grammars)
//===----------------------------------------------------------------------===//

struct GoldenCase {
  const char *Grammar;
  const char *Input;
};

// Same cases RecoveryTests pins; the table walk and the native module must
// both reproduce the committed snapshots byte for byte.
const GoldenCase GoldenCases[] = {
    {"csv", "a,b\n\"x\" y,c\n"},
    {"dot", "digraph g { a -> -> b ; x = ; }"},
    {"ini", "[a]\nx 1\n[b\ny = 2\n"},
    {"json", "{\"a\": 1 \"b\": 2,}"},
    {"lambda", "lambda x (x"},
    {"lua", "x = = 1"},
    {"sexpr", "(a b)) (c"},
};

std::unique_ptr<AnalyzedGrammar> shippedGrammar(const char *Name) {
  std::string Text =
      slurp(sourcePath("grammars/" + std::string(Name) + ".g"));
  EXPECT_FALSE(Text.empty()) << Name;
  return analyzeOrFail(Text);
}

/// The module registered for \p AG, asserting its payload hash matches.
compiled::CompiledResolution shippedModule(const AnalyzedGrammar &AG) {
  compiled::registerShippedGrammars();
  compiled::CompiledResolution Res =
      compiled::resolveCompiledTables(AG, serializeGrammar(AG));
  const std::string &Name = AG.grammar().Name;
  EXPECT_TRUE(Res.fromModule())
      << "stale compiled module for " << Name
      << "; regenerate with: llstar compile grammars/" << Name
      << ".g --emit-cpp -o grammars/compiled/" << Name << "_compiled.cpp";
  return Res;
}

TEST(CompiledConformance, GoldenRecoveredTreesMatchSnapshots) {
  for (const GoldenCase &C : GoldenCases) {
    SCOPED_TRACE(C.Grammar);
    auto AG = shippedGrammar(C.Grammar);
    ASSERT_TRUE(AG);

    Capture Walk = capture(*AG, C.Input, /*Recover=*/true);
    EXPECT_FALSE(Walk.Ok);
    EXPECT_GE(Walk.HeapErrorNodes, 1u) << Walk.HeapTree;
    EXPECT_EQ(Walk.ArenaTree, Walk.HeapTree);

    std::string Expected = slurp(sourcePath("tests/golden/recovery/" +
                                            std::string(C.Grammar) + ".txt"));
    ASSERT_FALSE(Expected.empty());
    EXPECT_EQ(std::string(C.Input) + "\n" + Walk.HeapTree + "\n", Expected)
        << "recovery diverges from the committed golden snapshot";

    compiled::CompiledResolution Res = shippedModule(*AG);
    auto ModuleLex = compiled::makeModuleLexer(*Res.Module);
    Capture Native = capture(*AG, C.Input, /*Recover=*/true,
                             {Res.native(), ModuleLex.get()});
    expectIdentical(Walk, Native, C.Grammar);
  }
}

//===----------------------------------------------------------------------===//
// Checked-in module registry
//===----------------------------------------------------------------------===//

TEST(CompiledConformance, ShippedModulesHashMatchAndAgree) {
  for (const GoldenCase &C : GoldenCases) { // one entry per shipped grammar
    SCOPED_TRACE(C.Grammar);
    auto AG = shippedGrammar(C.Grammar);
    ASSERT_TRUE(AG);

    compiled::CompiledResolution Res = shippedModule(*AG);
    ASSERT_TRUE(Res.fromModule());
    EXPECT_NE(Res.Native, nullptr);
    EXPECT_NE(Res.Rules, nullptr);

    // The module lexer must tokenize exactly like the spec-compiled one,
    // over decision-covering minimal sentences (guaranteed valid, so the
    // generated predictors all run hot).
    auto ModuleLex = compiled::makeModuleLexer(*Res.Module);
    fuzz::SentenceGen Gen(*AG);
    std::vector<std::string> Inputs;
    for (const auto &Seed : Gen.seeds())
      Inputs.push_back(fuzz::SentenceSampler::render(Seed));
    ASSERT_FALSE(Inputs.empty());
    if (Inputs.size() > 6)
      Inputs.resize(6);
    // The recovery golden input again: a rejected sentence drives the
    // native bodies into the engine's reporting and recovery paths.
    Inputs.push_back(C.Input);
    for (const std::string &Input : Inputs) {
      DiagnosticEngine D1;
      std::vector<Token> A = ModuleLex->tokenize(Input, D1);
      std::vector<Token> B = lex(*AG, Input);
      ASSERT_EQ(A.size(), B.size()) << Input;
      for (size_t I = 0; I < A.size(); ++I) {
        EXPECT_EQ(A[I].Type, B[I].Type);
        EXPECT_EQ(A[I].Text, B[I].Text);
        EXPECT_EQ(A[I].Loc.Line, B[I].Loc.Line);
        EXPECT_EQ(A[I].Loc.Column, B[I].Loc.Column);
      }

      // Table walk alone vs the same tables with the module's native
      // predictors, generated rule bodies and lexer (what the tools pass).
      for (bool Recover : {false, true}) {
        std::string Context = std::string(C.Grammar) + " <" + Input + ">";
        expectIdentical(capture(*AG, Input, Recover),
                        capture(*AG, Input, Recover,
                                {Res.native(), ModuleLex.get()}),
                        Context);
      }
    }
  }
}

TEST(CompiledConformance, BundlesFromSourceAndBundleBytesHashMatch) {
  // A bundle serializes over the lexer it already holds. For a bundle read
  // from `llstarbundle` bytes that is the precompiled lexer (its grammar
  // has no lexer spec), so it must hash-match the shipped module exactly
  // like the same grammar analyzed from source.
  compiled::registerShippedGrammars();
  std::string Text = slurp(sourcePath("grammars/json.g"));
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  std::string Payload = serializeGrammar(*AG);
  for (const std::string &Bytes : {Text, writeBundle(*AG)}) {
    DiagnosticEngine Diags;
    auto Bundle = makeGrammarBundle(Bytes, Diags);
    ASSERT_TRUE(Bundle) << Diags.str();
    EXPECT_EQ(serializeGrammar(Bundle->analyzed(), Bundle->lexer()),
              Payload);
    EXPECT_TRUE(Bundle->compiledTables().fromModule());
  }
}

TEST(CompiledConformance, HashGateRejectsStaleModules) {
  compiled::registerShippedGrammars();
  std::string Text = slurp(sourcePath("grammars/json.g"));
  auto AG = analyzeOrFail(Text);
  ASSERT_TRUE(AG);
  std::string Payload = serializeGrammar(*AG);

  const compiled::CompiledGrammarModule *M =
      compiled::findCompiledModule(AG->grammar().Name);
  ASSERT_NE(M, nullptr);

  // A module whose payload hash disagrees (a grammar edited after its last
  // --emit-cpp run) must be skipped: no native code. The tables are the
  // grammar's own either way.
  static compiled::CompiledGrammarModule Stale;
  Stale = *M;
  Stale.PayloadHash ^= 1;
  compiled::registerCompiledModule(Stale);
  compiled::CompiledResolution Res =
      compiled::resolveCompiledTables(*AG, Payload);
  EXPECT_FALSE(Res.fromModule());
  EXPECT_EQ(Res.View.States, AG->tables().view().States);
  EXPECT_EQ(Res.Native, nullptr);
  EXPECT_EQ(Res.native().Rules, nullptr);

  // Restore the genuine module and confirm the gate opens again.
  compiled::registerShippedGrammars();
  Res = compiled::resolveCompiledTables(*AG, Payload);
  EXPECT_TRUE(Res.fromModule());
  EXPECT_EQ(Res.View.States, AG->tables().view().States);

  // An empty payload skips the registry entirely.
  Res = compiled::resolveCompiledTables(*AG, "");
  EXPECT_FALSE(Res.fromModule());
}

//===----------------------------------------------------------------------===//
// Construction paths
//===----------------------------------------------------------------------===//

/// Rebuilds \p Text's analysis by hand and assembles it with fromParts.
std::unique_ptr<AnalyzedGrammar> assembleFromParts(const std::string &Text) {
  DiagnosticEngine Diags;
  std::unique_ptr<Grammar> G = parseGrammarText(Text, Diags, false);
  if (!G)
    return nullptr;
  rewriteLeftRecursion(*G, Diags);
  G->validate(Diags);
  if (Diags.hasErrors())
    return nullptr;
  std::unique_ptr<Atn> M = buildAtn(*G);
  AnalysisOptions Opts = AnalysisOptions::fromGrammar(G->Options);
  std::vector<std::unique_ptr<LookaheadDfa>> Dfas;
  for (size_t D = 0; D < M->numDecisions(); ++D)
    Dfas.push_back(analyzeDecision(*M, int32_t(D), Opts, Diags, nullptr));
  return AnalyzedGrammar::fromParts(std::move(G), std::move(M),
                                    std::move(Dfas));
}

/// Every field of two table sets, element by element.
void expectSameTables(const compiled::CompiledTables &A,
                      const compiled::CompiledTables &B) {
  const compiled::TablesView &X = A.view(), &Y = B.view();
  ASSERT_EQ(X.NumTokens, Y.NumTokens);
  ASSERT_EQ(X.NumStates, Y.NumStates);
  ASSERT_EQ(X.NumRules, Y.NumRules);
  ASSERT_EQ(X.NumDecisions, Y.NumDecisions);
  ASSERT_EQ(X.SetWordsPerSet, Y.SetWordsPerSet);
  ASSERT_EQ(A.numAltTargets(), B.numAltTargets());
  ASSERT_EQ(A.numDfaTransEntries(), B.numDfaTransEntries());
  ASSERT_EQ(A.numDfaStatesTotal(), B.numDfaStatesTotal());
  ASSERT_EQ(A.numPredEdges(), B.numPredEdges());
  ASSERT_EQ(A.numSetWords(), B.numSetWords());
  auto Same = [](const auto *P, const auto *Q, size_t N) {
    return N == 0 || std::memcmp(P, Q, N * sizeof(*P)) == 0;
  };
  EXPECT_TRUE(Same(X.States, Y.States, size_t(X.NumStates)));
  EXPECT_TRUE(Same(X.RuleStarts, Y.RuleStarts, size_t(X.NumRules)));
  EXPECT_TRUE(Same(X.RuleStops, Y.RuleStops, size_t(X.NumRules)));
  EXPECT_TRUE(Same(X.AltTargets, Y.AltTargets, A.numAltTargets()));
  EXPECT_TRUE(
      Same(X.DecisionStates, Y.DecisionStates, size_t(X.NumDecisions)));
  EXPECT_TRUE(Same(X.Decisions, Y.Decisions, size_t(X.NumDecisions)));
  EXPECT_TRUE(Same(X.DfaTrans, Y.DfaTrans, A.numDfaTransEntries()));
  EXPECT_TRUE(Same(X.DfaAccept, Y.DfaAccept, A.numDfaStatesTotal()));
  EXPECT_TRUE(Same(X.DfaPredFirst, Y.DfaPredFirst, A.numDfaStatesTotal()));
  EXPECT_TRUE(Same(X.DfaPredCount, Y.DfaPredCount, A.numDfaStatesTotal()));
  EXPECT_TRUE(Same(X.PredEdges, Y.PredEdges, A.numPredEdges()));
  EXPECT_TRUE(Same(X.SetWords, Y.SetWords, A.numSetWords()));
}

TEST(CompiledConformance, EveryConstructionPathCarriesTables) {
  // lua has precedence rules and predicated decisions; dot and json are
  // small. Inputs: decision-covering sentences plus the recovery case.
  for (const GoldenCase &C : GoldenCases) {
    SCOPED_TRACE(C.Grammar);
    std::string Text =
        slurp(sourcePath("grammars/" + std::string(C.Grammar) + ".g"));
    auto Analyzed = analyzeOrFail(Text);
    ASSERT_TRUE(Analyzed);
    auto Assembled = assembleFromParts(Text);
    ASSERT_TRUE(Assembled);
    DiagnosticEngine Diags;
    std::unique_ptr<CompiledGrammar> Deserialized =
        deserializeGrammar(serializeGrammar(*Analyzed), Diags);
    ASSERT_TRUE(Deserialized) << Diags.str();
    std::shared_ptr<const GrammarBundle> Bundle =
        makeGrammarBundle(writeBundle(*Analyzed), Diags);
    ASSERT_TRUE(Bundle) << Diags.str();

    const AnalyzedGrammar *Paths[] = {Analyzed.get(), Assembled.get(),
                                      Deserialized->AG.get(),
                                      &Bundle->analyzed()};
    // Deserialized grammars carry no lexer spec, only the precompiled
    // lexer.
    const Lexer *Lexers[] = {nullptr, nullptr, Deserialized->Lex.get(),
                             &Bundle->lexer()};
    const char *Names[] = {"analyze", "fromParts", "deserializeGrammar",
                           "bundle bytes"};
    for (const AnalyzedGrammar *AG : Paths) {
      EXPECT_GT(AG->tables().view().NumStates, 0);
      EXPECT_EQ(size_t(AG->tables().view().NumDecisions),
                AG->numDecisions());
      expectSameTables(Analyzed->tables(), AG->tables());
    }

    fuzz::SentenceGen Gen(*Analyzed);
    std::vector<std::string> Inputs{C.Input};
    for (const auto &Seed : Gen.seeds())
      if (Inputs.size() < 5)
        Inputs.push_back(fuzz::SentenceSampler::render(Seed));
    for (const std::string &Input : Inputs) {
      Capture Want = capture(*Analyzed, Input, /*Recover=*/true);
      for (size_t P = 1; P < std::size(Paths); ++P)
        expectIdentical(Want,
                        capture(*Paths[P], Input, /*Recover=*/true,
                                {{}, Lexers[P]}),
                        std::string(Names[P]) + " <" + Input + ">");
    }
  }
}

} // namespace
