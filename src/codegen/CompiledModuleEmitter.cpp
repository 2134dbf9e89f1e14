#include "codegen/CompiledModuleEmitter.h"

#include "analysis/AnalyzedGrammar.h"
#include "codegen/Serializer.h"
#include "compiled/CompiledRegistry.h"
#include "dfa/LookaheadDFA.h"

#include <algorithm>
#include <cassert>
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

/// Emits \p Bytes as a concatenation of string literals, one per line of
/// at most ~72 source characters, breaking after each newline. Quotes and
/// backslashes are escaped, other non-printable bytes become three-digit
/// octal escapes (which cannot swallow a following digit).
void emitStringLiteral(std::ostream &OS, std::string_view Bytes) {
  size_t Col = 0;
  OS << "\n    \"";
  for (size_t I = 0; I < Bytes.size(); ++I) {
    unsigned char C = static_cast<unsigned char>(Bytes[I]);
    if (C == '\n') {
      OS << "\\n";
    } else if (C == '"' || C == '\\') {
      OS << '\\' << char(C);
      Col += 2;
    } else if (C < 0x20 || C >= 0x7f) {
      OS << '\\' << char('0' + (C >> 6)) << char('0' + ((C >> 3) & 7))
         << char('0' + (C & 7));
      Col += 4;
    } else {
      OS << char(C);
      ++Col;
    }
    if ((C == '\n' || Col >= 72) && I + 1 < Bytes.size()) {
      OS << "\"\n    \"";
      Col = 0;
    }
  }
  OS << "\"";
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

/// Emits the goto-threaded body for rule \p R from its op stream in \p V:
/// the same walk LLStarParser::runOps performs, with every op index, jump
/// target, token label, and callee folded to a constant, and every
/// observable effect routed through the engine's generated-code interface
/// (consumeMatched, coldMismatch, predictAtState, callRule, ...) so the
/// body cannot diverge from the table walk. Cold calls name the op's ATN
/// state, as the walker's do. End sentinels only matter to speculation,
/// which always runs the op stream, so jumps pass straight through them.
void emitNativeRule(std::ostream &OS, const TablesView &V, int32_t R,
                    std::string_view RuleName,
                    const std::vector<bool> &HasNative) {
  const CRule &CR = V.Rules[R];
  auto Skip = [&](int32_t K) {
    for (int32_t Steps = 0; K != OpReturn &&
                            V.Ops[size_t(K)].code() == OpCode::End &&
                            Steps < V.NumOps;
         ++Steps)
      K = V.Ops[size_t(K)].Next;
    return K;
  };

  // Ops reachable from the entry, in stream order; only jump targets get
  // labels (an unreferenced label would warn). The entry leads, reached by
  // fallthrough unless something jumps back to it.
  int32_t Entry = Skip(CR.EntryOp);
  std::vector<bool> Live(size_t(V.NumOps), false);
  std::vector<bool> Referenced(size_t(V.NumOps), false);
  std::vector<int32_t> Work;
  auto Reach = [&](int32_t T) {
    if (T == OpReturn || Live[size_t(T)])
      return;
    Live[size_t(T)] = true;
    Work.push_back(T);
  };
  Reach(Entry);
  while (!Work.empty()) {
    const COp &O = V.Ops[size_t(Work.back())];
    Work.pop_back();
    auto Target = [&](int32_t T) {
      T = Skip(T);
      if (T != OpReturn)
        Referenced[size_t(T)] = true;
      Reach(T);
    };
    if (O.code() == OpCode::Predict) {
      for (int32_t A = 0; A < O.Next; ++A)
        Target(V.AltOps[size_t(O.B) + size_t(A)]);
    } else {
      Target(O.Next);
    }
  }
  std::vector<int32_t> Order;
  if (Entry != OpReturn) {
    assert(Entry >= CR.FirstOp && Entry < CR.EndOp &&
           "a rule's ops stay in its range");
    Order.push_back(Entry);
  }
  for (int32_t K = CR.FirstOp; K < CR.EndOp; ++K)
    if (Live[size_t(K)] && K != Entry)
      Order.push_back(K);

  // Jumps to OpReturn return true.
  auto Jump = [&](int32_t T, const char *Indent) {
    T = Skip(T);
    std::ostringstream J;
    if (T == OpReturn)
      J << Indent << "return true;\n";
    else
      J << Indent << "goto o" << T << ";\n";
    return J.str();
  };

  OS << "bool Rule" << R << "(LLStarParser &P, NodeRef Parent) { // "
     << RuleName << "\n"
     << "  (void)P;\n  (void)Parent;\n";
  // Epsilon-loop watermarks (one per loop decision; see runOps). Locals
  // live at function scope, declared before the first label so no goto
  // crosses an initialization.
  for (int32_t K : Order)
    if (V.Ops[size_t(K)].code() == OpCode::Predict && V.Ops[size_t(K)].aux())
      OS << "  int64_t lm" << K << " = -1;\n";

  for (int32_t K : Order) {
    const COp &O = V.Ops[size_t(K)];
    int32_t State = V.OpStates[size_t(K)];
    if (Referenced[size_t(K)])
      OS << "o" << K << ":\n";

    switch (O.code()) {
    case OpCode::Predict: {
      int32_t D = O.A, NumAlts = O.Next;
      OS << "  {\n"
         << "    if (!P.deadlineOk())\n      return false;\n"
         << "    int32_t Alt;\n";
      if (HasNative[size_t(D)]) {
        // Same-TU predictor call: inlinable, and with fastPredict() true
        // it is observably identical to the engine path on success. Dead
        // predictions re-run through the engine for reporting + recovery.
        OS << "    if (P.fastPredict()) {\n"
           << "      const std::vector<Token> &Toks = P.stream().tokens();\n"
           << "      int64_t Depth = 0;\n"
           << "      Alt = Predict" << D
           << "(Toks.data(), int64_t(Toks.size()),\n"
           << "                     P.stream().index(), Depth);\n"
           << "      if (Alt < 0)\n"
           << "        Alt = P.predictAtState(" << D << ", " << State
           << ", Parent);\n"
           << "    } else {\n"
           << "      Alt = P.predictAtState(" << D << ", " << State
           << ", Parent);\n"
           << "    }\n";
      } else {
        OS << "    Alt = P.predictAtState(" << D << ", " << State
           << ", Parent);\n";
      }
      OS << "    if (Alt < 0)\n      return false;\n";
      if (O.aux()) {
        OS << "    if (Alt != " << NumAlts << ") {\n"
           << "      if (lm" << K << " < 0)\n"
           << "        lm" << K << " = P.stream().index();\n"
           << "      else if (lm" << K << " == P.stream().index())\n"
           << "        Alt = " << NumAlts << "; // no progress: exit\n"
           << "      else\n"
           << "        lm" << K << " = P.stream().index();\n"
           << "    }\n";
      }
      OS << "    switch (Alt) {\n";
      for (int32_t A = 1; A <= NumAlts; ++A)
        OS << "    case " << A << ":\n"
           << Jump(V.AltOps[size_t(O.B) + size_t(A) - 1], "      ");
      OS << "    }\n"
         << "    return false;\n"
         << "  }\n";
      break;
    }
    case OpCode::Match:
    case OpCode::Set: {
      OS << "  {\n"
         << "    if (!P.deadlineOk())\n      return false;\n";
      if (O.code() == OpCode::Match) {
        OS << "    if (P.stream().LA(1) != " << O.A << ") {\n";
      } else {
        OS << "    int32_t La = P.stream().LA(1);\n"
           << "    if (La == TokenEof || !P.tables().setContains(" << O.A
           << ", La)) {\n";
      }
      OS << "      LLStarParser::ColdMatch M = P.coldMismatch(" << State
         << ", Parent);\n"
         << "      if (M == LLStarParser::ColdMatch::Unwind)\n"
         << "        return false;\n"
         << "      if (M == LLStarParser::ColdMatch::Inserted)\n"
         << Jump(O.Next, "        ") << "    }\n"
         << "    P.consumeMatched(Parent);\n"
         << Jump(O.Next, "    ") << "  }\n";
      break;
    }
    case OpCode::Call:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  if (!P.callRule(" << O.A << ", " << O.aux() << ", " << O.B
         << ", Parent))\n    return false;\n"
         << Jump(O.Next, "  ");
      break;
    case OpCode::Pred:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  if (!P.checkPredicateAt(" << State << "))\n    return false;\n"
         << Jump(O.Next, "  ");
      break;
    case OpCode::Action:
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  P.runAction(" << O.A << ");\n"
         << Jump(O.Next, "  ");
      break;
    case OpCode::End:
      // Skip() resolves every End but the one closing a glue cycle, which
      // spins as the walker does.
      OS << "  if (!P.deadlineOk())\n    return false;\n"
         << "  goto o" << K << ";\n";
      break;
    }
  }
  if (Entry == OpReturn)
    OS << "  return true;\n";
  OS << "}\n\n";
}

} // namespace

std::string llstar::emitCompiledModule(const AnalyzedGrammar &AG) {
  std::string Name = AG.grammar().Name;
  std::string Symbol = "kModule_" + sanitizeIdent(Name);
  int32_t NumDecisions = int32_t(AG.numDecisions());

  const TablesView &V = AG.tables().view();
  std::string Payload = serializeGrammar(AG);
  uint64_t Hash = hashPayload(Payload);

  std::ostringstream OS;
  OS << "//===- " << Name
     << "_compiled.cpp - Compiled grammar module ------*- C++ -*-===//\n"
     << "//\n"
     << "// GENERATED by llstar-emit from grammar '" << Name
     << "'. DO NOT EDIT:\n"
     << "// the build regenerates it from the grammar.\n"
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
  std::vector<bool> HasNative(size_t(NumDecisions), false);
  for (int32_t D = 0; D < NumDecisions; ++D) {
    const LookaheadDfa &Dfa = AG.dfa(D);
    if (!isNativeEligible(Dfa))
      continue;
    HasNative[size_t(D)] = true;
    emitNativePredictor(OS, Dfa, D);
  }
  emitArray(OS, "NativePredictFn", "kNative", size_t(NumDecisions), 4,
            [&](std::ostream &O, size_t I) {
              if (HasNative[I])
                O << "&Predict" << I;
              else
                O << "nullptr";
            });
  OS << "\n";

  // --- Native rule bodies -------------------------------------------------
  for (int32_t R = 0; R < V.NumRules; ++R)
    emitNativeRule(OS, V, R, AG.grammar().rule(R).Name, HasNative);
  emitArray(OS, "NativeRuleFn", "kNativeRules", size_t(V.NumRules), 4,
            [&](std::ostream &O, size_t I) { O << "&Rule" << I; });
  OS << "\n";

  // --- The serialized grammar ---------------------------------------------
  OS << "// serializeGrammar() output; hashes to the module's PayloadHash.\n"
     << "const char kPayload[] =";
  emitStringLiteral(OS, Payload);
  OS << ";\n\n";

  OS << "} // namespace\n\n";

  // --- The module object --------------------------------------------------
  OS << "extern const CompiledGrammarModule " << Symbol << ";\n"
     << "const CompiledGrammarModule " << Symbol << " = {\n"
     << "    /*GrammarName=*/\"" << Name << "\",\n"
     << "    /*PayloadHash=*/" << hex64(Hash) << ",\n"
     << "    /*Native=*/kNative,\n"
     << "    /*Rules=*/kNativeRules,\n"
     << "    /*Payload=*/{kPayload, sizeof(kPayload) - 1},\n"
     << "};\n\n"
     << "} // namespace compiled\n"
     << "} // namespace llstar\n";

  return OS.str();
}
