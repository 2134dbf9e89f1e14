//===- bench/bench_compiled.cpp - Table walk vs native module -------------===//
//
// Measures what the native modules (src/compiled/, grammars/compiled/) add
// on top of LL(*) parsing's table walk on every shipped grammar: a full
// parse by LLStarParser walking the grammar's own tables vs the same
// parser with the module's native predictors and rule bodies, over the
// same token stream, trees and stats off, so the number isolates
// prediction and matching throughput (the layer the generated code
// replaces; lexing and tree building cost the same in both).
//
// Workloads are synthetic but idiomatic per grammar, sized by --units.
// Each cell alternates --repeat sample pairs (table walk, native), each
// sample repeating its parse for at least MinSampleSecs, and
// reports the median and interquartile range. `--json FILE` records the
// results with the build type and git revision; BENCH_compiled.json at
// the repo root is a committed baseline from a Release build. Every shipped grammar is expected to resolve
// the module the build emitted from it (hash gate open); the report says
// so per grammar.
//
//   bench_compiled [--units N] [--repeat N] [--json FILE]
//
//===----------------------------------------------------------------------===//

#include "analysis/AnalyzedGrammar.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledRegistry.h"
#include "lexer/Lexer.h"
#include "lexer/TokenStream.h"
#include "runtime/LLStarParser.h"

#include "BenchHarness.h"
#include "CompiledManifest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace llstar;

namespace {

double now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Per-grammar workloads
//===----------------------------------------------------------------------===//

std::string csvWorkload(int Units) {
  std::string Out = "name,kind,count,comment\n";
  for (int I = 0; I < Units; ++I) {
    Out += "row" + std::to_string(I) + ",\"quoted \"\"v" +
           std::to_string(I % 7) + "\"\" field\"," + std::to_string(I * 3) +
           ",plain text\n";
  }
  return Out;
}

std::string dotWorkload(int Units) {
  std::string Out = "digraph bench {\n  graph [rankdir=LR, label=\"b\"]\n";
  for (int I = 0; I < Units; ++I) {
    std::string A = "n" + std::to_string(I);
    std::string B = "n" + std::to_string((I + 1) % Units);
    Out += "  " + A + " [shape=box, weight=" + std::to_string(I % 9) +
           "]\n";
    Out += "  " + A + " -> " + B + " -> n" +
           std::to_string((I + 2) % Units) + " [color=\"red\"]\n";
    if (I % 8 == 0)
      Out += "  subgraph c" + std::to_string(I) + " { " + A + ":p -> " + B +
             " }\n";
  }
  Out += "}\n";
  return Out;
}

std::string iniWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I) {
    Out += "[section" + std::to_string(I) + "]\n";
    Out += "count = " + std::to_string(I * 17) + "\n";
    Out += "name = \"value " + std::to_string(I) + "\"\n";
    Out += "tags = alpha, beta, gamma\n";
    Out += "path = usr.local.share\n";
  }
  return Out;
}

std::string jsonWorkload(int Units) {
  std::string Out = "{\"items\": [";
  for (int I = 0; I < Units; ++I) {
    if (I)
      Out += ", ";
    Out += "{\"id\": " + std::to_string(I) +
           ", \"name\": \"item" + std::to_string(I) +
           "\", \"score\": " + std::to_string(I % 10) + "." +
           std::to_string(I % 100) +
           ", \"tags\": [\"a\", \"b\"], \"ok\": " +
           (I % 2 ? "true" : "false") + ", \"extra\": null}";
  }
  Out += "], \"total\": " + std::to_string(Units) + "}";
  return Out;
}

std::string lambdaWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I)
    Out += "let f" + std::to_string(I) +
           " = lambda x. lambda y. f x (y " + std::to_string(I) + ") in\n";
  Out += "f0 ";
  for (int I = 0; I < Units; ++I)
    Out += "(g " + std::to_string(I) + ") ";
  return Out;
}

std::string luaWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I) {
    std::string N = std::to_string(I);
    Out += "local acc" + N + " = obj.field[" + N + "].next\n";
    Out += "acc" + N + ".slot, t = 1 + 2 * " + N + " ^ 2, \"s\" .. \"t\"\n";
    Out += "obj:method(acc" + N + ", { k = " + N + ", [2] = false })\n";
    Out += "if acc" + N + " ~= nil and " + N +
           " < 10 then\n  print(acc" + N + ")\nelse\n  call(" + N +
           ")\nend\n";
    Out += "for i = 1, " + N + ", 2 do work(i) end\n";
  }
  Out += "return acc0\n";
  return Out;
}

std::string sexprWorkload(int Units) {
  std::string Out;
  for (int I = 0; I < Units; ++I)
    Out += "(define (fn" + std::to_string(I) + " x y) (+ (* x " +
           std::to_string(I) + ") (- y 1.5) 'sym \"str\"))\n";
  return Out;
}

struct Workload {
  const char *File; ///< grammars/<File>.g
  std::string (*Generate)(int Units);
};

const Workload Workloads[] = {
    {"csv", csvWorkload},     {"dot", dotWorkload},
    {"ini", iniWorkload},     {"json", jsonWorkload},
    {"lambda", lambdaWorkload}, {"lua", luaWorkload},
    {"sexpr", sexprWorkload},
};

//===----------------------------------------------------------------------===//
// Timing
//===----------------------------------------------------------------------===//

std::string readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Every sample repeats its call until this much wall time has passed, so
/// sub-millisecond parses are timed over many runs.
constexpr double MinSampleSecs = 0.1;

/// Seconds per call of \p Fn over one sample.
template <class FnT> double sample(FnT &&Fn) {
  int64_t Calls = 0;
  double T0 = now(), Elapsed = 0;
  do {
    Fn();
    ++Calls;
    Elapsed = now() - T0;
  } while (Elapsed < MinSampleSecs);
  return Elapsed / double(Calls);
}

/// Median and interquartile range of a set of samples.
struct Spread {
  double Median = 0, Q1 = 0, Q3 = 0;

  static Spread of(std::vector<double> V) {
    std::sort(V.begin(), V.end());
    auto At = [&](double Q) {
      double Pos = Q * double(V.size() - 1);
      size_t Lo = size_t(Pos);
      size_t Hi = std::min(Lo + 1, V.size() - 1);
      return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
    };
    return {At(0.5), At(0.25), At(0.75)};
  }
};

/// One layer measured without (Base) and with (Native) the module's code:
/// Repeat sample pairs, alternating the two sides so host drift hits both.
/// Speedup is the spread of the per-pair ratios base/native.
struct Split {
  Spread BaseSecs, NativeSecs, Speedup;
  double BaseTps = 0, NativeTps = 0;

  template <class BaseFn, class NativeFn>
  void measure(int Repeat, int64_t Tokens, BaseFn &&Base,
               NativeFn &&Native) {
    std::vector<double> B, N, R;
    for (int Rep = 0; Rep < Repeat; ++Rep) {
      B.push_back(sample(Base));
      N.push_back(sample(Native));
      R.push_back(B.back() / N.back());
    }
    BaseSecs = Spread::of(B);
    NativeSecs = Spread::of(N);
    Speedup = Spread::of(R);
    BaseTps = double(Tokens) / BaseSecs.Median;
    NativeTps = double(Tokens) / NativeSecs.Median;
  }
};

struct GrammarReport {
  std::string Name;
  bool FromModule = false;
  int NativePredictors = 0;
  int Decisions = 0;
  int64_t Tokens = 0;
  Split Parse;
};

} // namespace

int main(int Argc, char **Argv) {
  int Units = 400, Repeat = 5;
  std::string JsonPath;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--units") && I + 1 < Argc)
      Units = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--repeat") && I + 1 < Argc)
      Repeat = std::atoi(Argv[++I]);
    else if (!std::strcmp(Argv[I], "--json") && I + 1 < Argc)
      JsonPath = Argv[++I];
    else {
      std::fprintf(stderr,
                   "usage: bench_compiled [--units N] [--repeat N] "
                   "[--json FILE]\n");
      return 2;
    }
  }

  compiled::registerShippedGrammars();
  std::vector<GrammarReport> Reports;
  std::printf("table walk vs native module: %d units, median of %d "
              "alternating samples of >= %.2f s (%s build, %s)\n\n",
              Units, Repeat, MinSampleSecs, LLSTAR_BUILD_TYPE,
              bench::gitRevision(LLSTAR_SOURCE_DIR).c_str());
  std::printf("%-8s %-7s %-8s %12s %12s %8s\n", "grammar", "module",
              "native", "walk t/s", "native t/s", "par-x");

  for (const Workload &W : Workloads) {
    std::string Text = readFile(std::string(LLSTAR_SOURCE_DIR) +
                                "/grammars/" + W.File + ".g");
    DiagnosticEngine GDiags;
    auto AG = analyzeGrammarText(Text, GDiags);
    if (!AG) {
      std::fprintf(stderr, "grammar %s failed to analyze:\n%s", W.File,
                   GDiags.str().c_str());
      return 1;
    }
    compiled::CompiledResolution Res =
        compiled::resolveCompiledTables(*AG, serializeGrammar(*AG));

    GrammarReport R;
    R.Name = AG->grammar().Name;
    R.FromModule = Res.fromModule();
    R.Decisions = int(AG->numDecisions());
    if (Res.Native)
      for (int32_t D = 0; D < int32_t(AG->numDecisions()); ++D)
        if (Res.Native[D])
          ++R.NativePredictors;

    std::string Input = W.Generate(Units);
    DiagnosticEngine LexDiags;
    Lexer SpecLex(AG->grammar().lexerSpec(), LexDiags);
    std::vector<Token> Tokens = SpecLex.tokenize(Input, LexDiags);
    if (LexDiags.hasErrors()) {
      std::fprintf(stderr, "%s workload does not lex:\n%s", W.File,
                   LexDiags.str().c_str());
      return 1;
    }
    R.Tokens = int64_t(Tokens.size()) - 1; // exclude EOF

    // Full-parse split: trees and stats off so the measurement isolates
    // prediction + matching, the layer the generated code replaces.
    TokenStream Stream(std::move(Tokens));
    ParserOptions Opts;
    Opts.Memoize = AG->grammar().Options.Memoize;
    Opts.BuildTree = false;
    Opts.CollectStats = false;
    auto CheckOk = [&](bool Ok, const DiagnosticEngine &D,
                       const char *Engine) {
      if (!Ok) {
        std::fprintf(stderr, "%s workload does not parse (%s):\n%s", W.File,
                     Engine, D.str().c_str());
        std::exit(1);
      }
    };
    R.Parse.measure(
        Repeat, R.Tokens,
        [&] {
          Stream.seek(0);
          DiagnosticEngine D;
          LLStarParser P(*AG, Stream, nullptr, D, Opts);
          P.parse();
          CheckOk(P.ok(), D, "table walk");
        },
        [&] {
          Stream.seek(0);
          DiagnosticEngine D;
          LLStarParser P(*AG, Stream, nullptr, D, Opts, Res.native());
          P.parse();
          CheckOk(P.ok(), D, "native module");
        });

    char Native[16];
    std::snprintf(Native, sizeof(Native), "%d/%d", R.NativePredictors,
                  R.Decisions);
    std::printf("%-8s %-7s %-8s %12.0f %12.0f %7.2fx (IQR %.2f-%.2f)\n",
                R.Name.c_str(), R.FromModule ? "yes" : "STALE", Native,
                R.Parse.BaseTps, R.Parse.NativeTps, R.Parse.Speedup.Median,
                R.Parse.Speedup.Q1, R.Parse.Speedup.Q3);
    Reports.push_back(std::move(R));
  }

  if (!JsonPath.empty()) {
    char Buf[768];
    std::snprintf(Buf, sizeof(Buf),
                  "{\n  \"buildType\": \"%s\",\n  \"gitRev\": \"%s\",\n"
                  "  \"units\": %d,\n  \"repeat\": %d,\n"
                  "  \"minSampleSecs\": %.2f,\n"
                  "  \"note\": \"seconds per parse (trees and stats off): "
                  "median and [q1, q3] over alternating sample pairs; "
                  "speedup is the spread of per-pair base/native "
                  "ratios\",\n  \"grammars\": [\n",
                  LLSTAR_BUILD_TYPE,
                  bench::gitRevision(LLSTAR_SOURCE_DIR).c_str(), Units,
                  Repeat, MinSampleSecs);
    std::string Out = Buf;
    auto SplitJson = [&](const char *Key, const Split &S) {
      std::snprintf(
          Buf, sizeof(Buf),
          "     \"%s\": {\"baseSecs\": %.7f, \"baseSecsIqr\": [%.7f, %.7f], "
          "\"nativeSecs\": %.7f, \"nativeSecsIqr\": [%.7f, %.7f], "
          "\"baseTokensPerSec\": %.0f, \"nativeTokensPerSec\": %.0f, "
          "\"speedup\": %.3f, \"speedupIqr\": [%.3f, %.3f]}",
          Key, S.BaseSecs.Median, S.BaseSecs.Q1, S.BaseSecs.Q3,
          S.NativeSecs.Median, S.NativeSecs.Q1, S.NativeSecs.Q3, S.BaseTps,
          S.NativeTps, S.Speedup.Median, S.Speedup.Q1, S.Speedup.Q3);
      Out += Buf;
    };
    for (size_t G = 0; G < Reports.size(); ++G) {
      const GrammarReport &R = Reports[G];
      std::snprintf(Buf, sizeof(Buf),
                    "    {\"name\": \"%s\", \"module\": %s, "
                    "\"nativePredictors\": %d, \"decisions\": %d, "
                    "\"tokens\": %lld,\n",
                    R.Name.c_str(), R.FromModule ? "true" : "false",
                    R.NativePredictors, R.Decisions, (long long)R.Tokens);
      Out += Buf;
      SplitJson("parse", R.Parse);
      Out += G + 1 < Reports.size() ? "},\n" : "}\n";
    }
    Out += "  ]\n}\n";
    std::ofstream F(JsonPath);
    if (!F) {
      std::fprintf(stderr, "error: cannot write %s\n", JsonPath.c_str());
      return 1;
    }
    F << Out;
    std::printf("\nwrote %s\n", JsonPath.c_str());
  }
  return 0;
}
