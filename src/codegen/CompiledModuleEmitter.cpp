#include "codegen/CompiledModuleEmitter.h"

#include "analysis/AnalyzedGrammar.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledRegistry.h"
#include "dfa/LookaheadDFA.h"
#include "lexer/Lexer.h"

#include <algorithm>
#include <cctype>
#include <map>
#include <sstream>
#include <vector>

using namespace llstar;
using namespace llstar::compiled;

namespace {

std::string sanitizeIdent(std::string_view Name) {
  std::string Out;
  for (char C : Name)
    Out += (std::isalnum(static_cast<unsigned char>(C)) || C == '_') ? C : '_';
  if (Out.empty() || std::isdigit(static_cast<unsigned char>(Out[0])))
    Out.insert(Out.begin(), 'g');
  return Out;
}

std::string hex64(uint64_t V) {
  std::ostringstream OS;
  OS << "0x" << std::hex << V << "ull";
  return OS.str();
}

/// Emits `const <Type> kName[] = { ... };` with ~16 values per line, via
/// \p Each writing one element. \p Count == 0 emits a single zero element
/// (C++ forbids empty arrays); consumers never dereference zero-count
/// pools.
template <typename EachFn>
void emitArray(std::ostream &OS, std::string_view Type, std::string_view Name,
               size_t Count, size_t PerLine, EachFn Each) {
  OS << "const " << Type << " " << Name << "[] = {\n";
  if (Count == 0) {
    OS << "    0,\n";
  } else {
    for (size_t I = 0; I < Count; ++I) {
      if (I % PerLine == 0)
        OS << "    ";
      Each(OS, I);
      OS << ",";
      OS << ((I % PerLine == PerLine - 1 || I + 1 == Count) ? "\n" : " ");
    }
  }
  OS << "};\n";
}

/// True when decision \p D qualifies for a generated switch predictor: no
/// predicate edges anywhere, so the DFA walk is deterministic and never
/// re-enters the parser.
bool isNativeEligible(const LookaheadDfa &Dfa) {
  for (size_t S = 0; S < Dfa.numStates(); ++S)
    if (!Dfa.state(int32_t(S)).PredEdges.empty())
      return false;
  return true;
}

/// Emits the switch-dispatch predictor for one decision. Mirrors
/// LLStarParser::adaptivePredict's dense walk exactly: accept states
/// return before reading lookahead; EOF self-loops are omitted statically
/// (the table walk kills them dynamically); dead states report the depth
/// reached and return -1.
void emitNativePredictor(std::ostream &OS, const LookaheadDfa &Dfa,
                         int32_t Decision) {
  // Only reachable states get labels (unreachable labels would warn).
  size_t N = Dfa.numStates();
  std::vector<bool> Reach(N, false);
  std::vector<int32_t> Work{0};
  Reach[0] = true;
  while (!Work.empty()) {
    int32_t S = Work.back();
    Work.pop_back();
    for (const DfaEdge &E : Dfa.state(S).Edges) {
      if (E.Label == TokenEof && E.Target == S)
        continue; // EOF self-loop: statically dead
      if (E.Target >= 0 && size_t(E.Target) < N && !Reach[size_t(E.Target)]) {
        Reach[size_t(E.Target)] = true;
        Work.push_back(E.Target);
      }
    }
  }

  // Only goto targets get labels (an unreferenced label would warn; the
  // start state is entered by fallthrough).
  std::vector<bool> IsTarget(N, false);
  for (size_t S = 0; S < N; ++S) {
    if (!Reach[S])
      continue;
    for (const DfaEdge &E : Dfa.state(int32_t(S)).Edges)
      if (!(E.Label == TokenEof && E.Target == int32_t(S)) && E.Target >= 0 &&
          size_t(E.Target) < N)
        IsTarget[size_t(E.Target)] = true;
  }

  OS << "int32_t Predict" << Decision
     << "(const Token *Toks, int64_t NumToks, int64_t Pos,\n"
     << "                 int64_t &DepthOut) {\n"
     << "  (void)Toks;\n  (void)NumToks;\n  (void)Pos;\n"
     << "  int64_t Depth = 0;\n"
     << "  int32_t T = 0;\n  (void)T;\n";
  for (size_t S = 0; S < N; ++S) {
    if (!Reach[S])
      continue;
    if (IsTarget[S])
      OS << "s" << S << ":\n";
    const DfaState &St = Dfa.state(int32_t(S));
    if (St.PredictedAlt > 0) {
      OS << "  DepthOut = Depth;\n  return " << St.PredictedAlt << ";\n";
      continue;
    }
    OS << "  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1]"
       << ".Type;\n"
       << "  switch (T) {\n";
    // Group case labels by target for compact switches.
    std::map<int32_t, std::vector<int32_t>> ByTarget;
    for (const DfaEdge &E : St.Edges) {
      if (E.Label == TokenEof && E.Target == int32_t(S))
        continue;
      ByTarget[E.Target].push_back(E.Label);
    }
    for (auto &[Target, Labels] : ByTarget) {
      std::sort(Labels.begin(), Labels.end());
      for (size_t I = 0; I < Labels.size(); ++I)
        OS << "  case " << Labels[I] << ":"
           << (I + 1 == Labels.size() ? "\n" : "");
      OS << "    ++Depth;\n    goto s" << Target << ";\n";
    }
    OS << "  default:\n    DepthOut = Depth;\n    return -1;\n  }\n";
  }
  OS << "}\n\n";
}

/// Emits the goto-threaded body for rule \p R over the fused tables \p V:
/// the same state walk LLStarParser::runStates performs, with every state
/// id, jump target, token label, and callee folded to a constant, and every
/// observable effect routed through the engine's generated-code interface
/// (consumeMatched, coldMismatch, predictAtState, callRule, ...) so the
/// body cannot diverge from the table walk.
void emitNativeRule(std::ostream &OS, const TablesView &V, int32_t R,
                    std::string_view RuleName,
                    const std::vector<bool> &HasNative) {
  int32_t Start = V.RuleStarts[R];
  int32_t Stop = V.RuleStops[R];

  // Reachable states of the rule submachine in BFS order. Walking the
  // fused tables means bypassed epsilon glue is never even emitted.
  std::vector<int32_t> Order;
  std::vector<bool> Seen(size_t(V.NumStates), false);
  std::vector<bool> Referenced(size_t(V.NumStates), false);
  auto Successors = [&](int32_t K, std::vector<int32_t> &Out) {
    const CState &S = V.States[size_t(K)];
    if (S.Decision >= 0) {
      for (int32_t A = 0; A < S.NumAlts; ++A)
        Out.push_back(V.AltTargets[size_t(S.FirstAltTarget) + size_t(A)]);
      return;
    }
    if (S.TransKind < 0)
      return;
    Out.push_back(S.TransKind == int32_t(AtnTransitionKind::Rule)
                      ? S.FollowState
                      : S.Target);
  };
  if (Start != Stop) {
    Order.push_back(Start);
    Seen[size_t(Start)] = true;
    std::vector<int32_t> Succ;
    for (size_t Q = 0; Q < Order.size(); ++Q) {
      Succ.clear();
      Successors(Order[Q], Succ);
      for (int32_t T : Succ) {
        Referenced[size_t(T)] = true;
        if (T != Stop && !Seen[size_t(T)]) {
          Seen[size_t(T)] = true;
          Order.push_back(T);
        }
      }
    }
  }

  auto IsLoop = [&](const CState &S) {
    return S.Kind == int32_t(AtnStateKind::StarLoopEntry) ||
           S.Kind == int32_t(AtnStateKind::PlusLoopBack);
  };
  // Rule stop: return true. Anything else: jump to its label.
  auto Jump = [&](int32_t T, const char *Indent) {
    std::ostringstream J;
    if (T == Stop)
      J << Indent << "return true;\n";
    else
      J << Indent << "goto s" << T << ";\n";
    return J.str();
  };

  OS << "bool Rule" << R << "(LLStarParser &P, NodeRef Parent) { // "
     << RuleName << "\n"
     << "  (void)P;\n  (void)Parent;\n";
  // Epsilon-loop watermarks (one per loop decision; see runStates). Locals
  // live at function scope, declared before the first label so no goto
  // crosses an initialization.
  for (int32_t K : Order)
    if (V.States[size_t(K)].Decision >= 0 && IsLoop(V.States[size_t(K)]))
      OS << "  int64_t lm" << K << " = -1;\n";

  for (int32_t K : Order) {
    const CState &S = V.States[size_t(K)];
    if (Referenced[size_t(K)])
      OS << "s" << K << ":\n";

    if (S.Decision >= 0) {
      OS << "  {\n"
         << "    if (!P.deadlineOk())\n      return false;\n"
         << "    int32_t Alt;\n";
      if (HasNative[size_t(S.Decision)]) {
        // Same-TU predictor call: inlinable, and with fastPredict() true
        // it is observably identical to the engine path on success. Dead
        // predictions re-run through the engine for reporting + recovery.
        OS << "    if (P.fastPredict()) {\n"
           << "      const std::vector<Token> &Toks = P.stream().tokens();\n"
           << "      int64_t Depth = 0;\n"
           << "      Alt = Predict" << S.Decision
           << "(Toks.data(), int64_t(Toks.size()),\n"
           << "                     P.stream().index(), Depth);\n"
           << "      if (Alt < 0)\n"
           << "        Alt = P.predictAtState(" << S.Decision << ", " << K
           << ", Parent);\n"
           << "    } else {\n"
           << "      Alt = P.predictAtState(" << S.Decision << ", " << K
           << ", Parent);\n"
           << "    }\n";
      } else {
        OS << "    Alt = P.predictAtState(" << S.Decision << ", " << K
           << ", Parent);\n";
      }
      OS << "    if (Alt < 0)\n      return false;\n";
      if (IsLoop(S)) {
        OS << "    if (Alt != " << S.NumAlts << ") {\n"
           << "      if (lm" << K << " < 0)\n"
           << "        lm" << K << " = P.stream().index();\n"
           << "      else if (lm" << K << " == P.stream().index())\n"
           << "        Alt = " << S.NumAlts << "; // no progress: exit\n"
           << "      else\n"
           << "        lm" << K << " = P.stream().index();\n"
           << "    }\n";
      }
      OS << "    switch (Alt) {\n";
      for (int32_t A = 1; A <= S.NumAlts; ++A) {
        int32_t T = V.AltTargets[size_t(S.FirstAltTarget) + size_t(A) - 1];
        OS << "    case " << A << ":\n" << Jump(T, "      ");
      }
      OS << "    }\n"
         << "    return false;\n"
         << "  }\n";
      continue;
    }

    switch (AtnTransitionKind(S.TransKind)) {
    case AtnTransitionKind::Epsilon:
    case AtnTransitionKind::SynPred:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << Jump(S.Target, "  ");
      break;
    case AtnTransitionKind::Atom:
    case AtnTransitionKind::Set: {
      bool IsAtom = S.TransKind == int32_t(AtnTransitionKind::Atom);
      OS << "  {\n"
         << "    if (!P.deadlineOk())\n      return false;\n";
      if (IsAtom) {
        OS << "    if (P.stream().LA(1) != " << S.Label << ") {\n";
      } else {
        OS << "    int32_t La = P.stream().LA(1);\n"
           << "    if (La == TokenEof || !P.tables().setContains("
           << S.SetIndex << ", La)) {\n";
      }
      OS << "      LLStarParser::ColdMatch M = P.coldMismatch(" << K
         << ", Parent);\n"
         << "      if (M == LLStarParser::ColdMatch::Unwind)\n"
         << "        return false;\n"
         << "      if (M == LLStarParser::ColdMatch::Inserted)\n"
         << Jump(S.Target, "        ") << "    }\n"
         << "    P.consumeMatched(Parent);\n"
         << Jump(S.Target, "    ") << "  }\n";
      break;
    }
    case AtnTransitionKind::Rule:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  if (!P.callRule(" << S.CalleeRule << ", " << S.Precedence
         << ", " << S.FollowState << ", Parent))\n    return false;\n"
         << Jump(S.FollowState, "  ");
      break;
    case AtnTransitionKind::SemPred:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  if (!P.checkPredicateAt(" << K << "))\n    return false;\n"
         << Jump(S.Target, "  ");
      break;
    case AtnTransitionKind::Action:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  P.runAction(" << S.ActionIndex << ");\n"
         << Jump(S.Target, "  ");
      break;
    }
  }
  if (Start == Stop)
    OS << "  return true;\n";
  OS << "}\n\n";
}

} // namespace

EmittedCompiledModule llstar::emitCompiledModule(const AnalyzedGrammar &AG) {
  EmittedCompiledModule Out;
  std::string Name = AG.grammar().Name;
  std::string Ident = sanitizeIdent(Name);
  Out.SymbolName = "kModule_" + Ident;
  Out.NumDecisions = int32_t(AG.numDecisions());

  const TablesView &V = AG.tables().view();
  uint64_t Hash = hashPayload(serializeGrammar(AG));

  // The lexer tables, compiled the same way every loader compiles them.
  DiagnosticEngine LexDiags;
  Lexer Lex(AG.grammar().lexerSpec(), LexDiags);
  const auto &LexStates = Lex.dfa().states();

  std::ostringstream OS;
  OS << "//===- " << Name
     << "_compiled.cpp - Compiled grammar module ------*- C++ -*-===//\n"
     << "//\n"
     << "// GENERATED by `llstar compile --emit-cpp` from grammar '" << Name
     << "'. DO NOT EDIT:\n"
     << "// regenerate with that command (CI diffs this file against a "
        "fresh run).\n"
     << "//\n"
     << "// payload-hash: " << hex64(Hash) << "\n"
     << "//\n"
     << "//===------------------------------------------------------------"
        "----------===//\n\n"
     << "#include \"compiled/CompiledRegistry.h\"\n"
     << "#include \"runtime/LLStarParser.h\"\n\n"
     << "namespace llstar {\n"
     << "namespace compiled {\n"
     << "namespace {\n\n";

  // --- Native predictors --------------------------------------------------
  std::vector<bool> HasNative(size_t(Out.NumDecisions), false);
  for (int32_t D = 0; D < Out.NumDecisions; ++D) {
    const LookaheadDfa &Dfa = AG.dfa(D);
    if (!isNativeEligible(Dfa))
      continue;
    HasNative[size_t(D)] = true;
    ++Out.NumNativePredictors;
    emitNativePredictor(OS, Dfa, D);
  }
  emitArray(OS, "NativePredictFn", "kNative", size_t(Out.NumDecisions), 4,
            [&](std::ostream &O, size_t I) {
              if (HasNative[I])
                O << "&Predict" << I;
              else
                O << "nullptr";
            });
  OS << "\n";

  // --- Native rule bodies -------------------------------------------------
  Out.NumRules = V.NumRules;
  std::ostringstream RuleOS;
  for (int32_t R = 0; R < V.NumRules; ++R) {
    emitNativeRule(RuleOS, V, R, AG.grammar().rule(R).Name, HasNative);
    ++Out.NumNativeRules;
  }
  OS << RuleOS.str();
  emitArray(OS, "NativeRuleFn", "kNativeRules", size_t(V.NumRules), 4,
            [&](std::ostream &O, size_t I) { O << "&Rule" << I; });
  OS << "\n";

  // --- Lexer tables -------------------------------------------------------
  emitArray(OS, "int32_t", "kLexNext", LexStates.size() * 256, 16,
            [&](std::ostream &O, size_t I) {
              O << LexStates[I / 256].Next[I % 256];
            });
  emitArray(OS, "int32_t", "kLexAccept", LexStates.size(), 16,
            [&](std::ostream &O, size_t I) {
              O << LexStates[I].AcceptTag;
            });
  emitArray(OS, "uint8_t", "kLexActions", Lex.actions().size(), 16,
            [&](std::ostream &O, size_t I) {
              O << unsigned(static_cast<uint8_t>(Lex.actions()[I]));
            });
  emitArray(OS, "int32_t", "kLexTypes", Lex.types().size(), 16,
            [&](std::ostream &O, size_t I) { O << Lex.types()[I]; });

  OS << "\n} // namespace\n\n";

  // --- The module object --------------------------------------------------
  OS << "extern const CompiledGrammarModule " << Out.SymbolName << ";\n"
     << "const CompiledGrammarModule " << Out.SymbolName << " = {\n"
     << "    /*GrammarName=*/\"" << Name << "\",\n"
     << "    /*PayloadHash=*/" << hex64(Hash) << ",\n"
     << "    /*Native=*/kNative,\n"
     << "    /*Rules=*/kNativeRules,\n"
     << "    /*LexNext=*/kLexNext,\n"
     << "    /*LexAccept=*/kLexAccept,\n"
     << "    /*NumLexStates=*/" << LexStates.size() << ",\n"
     << "    /*LexActions=*/kLexActions,\n"
     << "    /*LexTypes=*/kLexTypes,\n"
     << "    /*NumLexTags=*/" << Lex.types().size() << ",\n"
     << "};\n\n"
     << "} // namespace compiled\n"
     << "} // namespace llstar\n";

  Out.Source = OS.str();
  Out.TableBytes = LexStates.size() * 257 * 4 + Lex.types().size() * 5;
  return Out;
}
