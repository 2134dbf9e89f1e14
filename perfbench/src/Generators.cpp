#include "Generators.h"

#include "BenchGrammars.h"

#include <set>

using namespace perfbench;

namespace {

const char *const Syllables[] = {"ka", "lo", "mi", "ru", "se", "ta", "vo",
                                 "ne", "pi", "xu", "da", "fe", "go", "hy",
                                 "ju", "ze", "bi", "qo", "wa", "cy"};

/// A lowercase identifier of 1-4 syllables plus an optional digit suffix,
/// never one of \p Reserved.
std::string name(Rng &R, const std::set<std::string> &Reserved = {}) {
  for (;;) {
    std::string N;
    int Parts = R.range(1, 4);
    for (int I = 0; I < Parts; ++I)
      N += Syllables[R.below(std::size(Syllables))];
    if (R.chance(30))
      N += std::to_string(R.below(100));
    if (!Reserved.count(N))
      return N;
  }
}

std::string digits(Rng &R, int Lo, int Hi) {
  std::string D(1, char('1' + R.below(9)));
  int N = R.range(Lo, Hi);
  for (int I = 1; I < N; ++I)
    D += char('0' + R.below(10));
  return D;
}

/// Printable text without quotes, backslashes or newlines.
std::string plainText(Rng &R, int Words) {
  std::string T;
  for (int I = 0; I < Words; ++I) {
    if (I)
      T += ' ';
    T += name(R);
  }
  return T;
}

void indent(std::string &Out, int Depth) { Out.append(size_t(2 * Depth), ' '); }

//===----------------------------------------------------------------------===//
// Lua
//===----------------------------------------------------------------------===//

const std::set<std::string> LuaKeywords = {
    "and",   "break", "do",     "else", "elseif", "end",   "false", "for",
    "function", "if", "in",     "local", "nil",   "not",   "or",    "repeat",
    "return", "then", "true",   "until", "while"};

std::string luaName(Rng &R) { return name(R, LuaKeywords); }

std::string luaString(Rng &R) {
  std::string S = R.chance(70) ? "\"" : "'";
  char Q = S[0];
  int Words = R.range(0, 4);
  S += plainText(R, Words);
  if (R.chance(25))
    S += R.chance(50) ? "\\n" : (Q == '"' ? "\\\"" : "\\'");
  S += Q;
  return S;
}

std::string luaNumber(Rng &R) {
  switch (R.below(5)) {
  case 0:
    return "0x" + std::string(1, "0123456789abcdef"[R.below(16)]) + "f";
  case 1:
    return digits(R, 1, 3) + "." + digits(R, 1, 2);
  case 2:
    return digits(R, 1, 2) + "e" + (R.chance(50) ? "-" : "") + digits(R, 1, 1);
  default:
    return std::to_string(R.below(1000));
  }
}

std::string luaExp(Rng &R, int Depth);

std::string luaArgs(Rng &R, int Depth) {
  if (R.chance(10))
    return luaString(R);
  std::string A = "(";
  int N = R.range(0, 3);
  for (int I = 0; I < N; ++I) {
    if (I)
      A += ", ";
    A += luaExp(R, Depth - 1);
  }
  return A + ")";
}

/// A prefix expression: a name with field, index, call and method suffixes.
std::string luaPrefix(Rng &R, int Depth, bool EndWithCall) {
  std::string P = luaName(R);
  int Suffixes = R.range(0, 2);
  bool EndsInCall = false;
  for (int I = 0; I < Suffixes; ++I) {
    EndsInCall = false;
    switch (R.below(3)) {
    case 0:
      P += "." + luaName(R);
      break;
    case 1:
      P += "[" + (Depth > 0 ? luaExp(R, Depth - 1) : luaNumber(R)) + "]";
      break;
    default:
      P += luaArgs(R, Depth);
      EndsInCall = true;
      break;
    }
  }
  if (!EndWithCall && EndsInCall)
    P += "." + luaName(R); // keep the prefix assignable
  if (EndWithCall)
    P += R.chance(30) ? ":" + luaName(R) + luaArgs(R, Depth)
                      : luaArgs(R, Depth);
  return P;
}

std::string luaTable(Rng &R, int Depth) {
  std::string T = "{";
  int N = R.range(0, 4);
  for (int I = 0; I < N; ++I) {
    if (I)
      T += R.chance(80) ? ", " : "; ";
    switch (R.below(3)) {
    case 0:
      T += luaName(R) + " = " + luaExp(R, Depth - 1);
      break;
    case 1:
      T += "[" + luaExp(R, Depth - 1) + "] = " + luaExp(R, Depth - 1);
      break;
    default:
      T += luaExp(R, Depth - 1);
      break;
    }
  }
  if (N && R.chance(20))
    T += ",";
  return T + "}";
}

std::string luaBlock(Rng &R, int Depth, int Indent, bool AllowReturn);

std::string luaFuncBody(Rng &R, int Depth, int Indent) {
  std::string B = "(";
  int N = R.range(0, 3);
  for (int I = 0; I < N; ++I) {
    if (I)
      B += ", ";
    B += luaName(R);
  }
  if (R.chance(10))
    B += N ? ", ..." : "...";
  B += ")\n";
  B += luaBlock(R, Depth - 1, Indent + 1, /*AllowReturn=*/true);
  indent(B, Indent);
  return B + "end";
}

std::string luaExp(Rng &R, int Depth) {
  static const char *const BinOps[] = {"+",  "-",  "*",   "/",  "%",
                                       "^",  "..", "<",   ">",  "<=",
                                       ">=", "~=", "==", "and", "or"};
  if (Depth <= 0 || R.chance(45)) {
    switch (R.below(7)) {
    case 0:
      return luaNumber(R);
    case 1:
      return luaString(R);
    case 2:
      return R.pick(std::vector<std::string>{"nil", "true", "false"});
    case 3:
      return luaPrefix(R, Depth, /*EndWithCall=*/R.chance(40));
    default:
      return luaName(R);
    }
  }
  switch (R.below(10)) {
  case 0:
    return R.pick(std::vector<std::string>{"not ", "# ", "- "}) +
           luaExp(R, Depth - 1);
  case 1:
    return "(" + luaExp(R, Depth - 1) + ")";
  case 2:
    return luaTable(R, Depth);
  case 3:
    if (Depth >= 2)
      return "function " + luaFuncBody(R, Depth - 1, 1);
    return luaName(R);
  default:
    return luaExp(R, Depth - 1) + " " + BinOps[R.below(std::size(BinOps))] +
           " " + luaExp(R, Depth - 1);
  }
}

std::string luaExpList(Rng &R, int Depth, int Max) {
  std::string L;
  int N = R.range(1, Max);
  for (int I = 0; I < N; ++I) {
    if (I)
      L += ", ";
    L += luaExp(R, Depth);
  }
  return L;
}

/// One statement (no trailing newline). Statements never start with '(',
/// which would make the previous call statement ambiguous.
std::string luaStat(Rng &R, int Depth, int Indent) {
  int Kind = int(R.below(Depth > 0 ? 12 : 4));
  switch (Kind) {
  case 0: {
    std::string S = "local " + luaName(R);
    if (R.chance(30))
      S += ", " + luaName(R);
    return S + " = " + luaExpList(R, 2, 2);
  }
  case 1: {
    std::string S = luaPrefix(R, 1, false);
    if (R.chance(20))
      S += ", " + luaName(R);
    return S + " = " + luaExpList(R, 2, 2);
  }
  case 2:
  case 3:
    return luaPrefix(R, 2, /*EndWithCall=*/true);
  case 4: {
    std::string S = "if " + luaExp(R, 2) + " then\n" +
                    luaBlock(R, Depth - 1, Indent + 1, false);
    if (R.chance(30)) {
      indent(S, Indent);
      S += "elseif " + luaExp(R, 2) + " then\n" +
           luaBlock(R, Depth - 1, Indent + 1, false);
    }
    if (R.chance(50)) {
      indent(S, Indent);
      S += "else\n" + luaBlock(R, Depth - 1, Indent + 1, false);
    }
    indent(S, Indent);
    return S + "end";
  }
  case 5: {
    std::string S = "while " + luaExp(R, 2) + " do\n" +
                    luaBlock(R, Depth - 1, Indent + 1, false);
    indent(S, Indent);
    return S + "end";
  }
  case 6: {
    std::string S = "for " + luaName(R) + " = " + luaExp(R, 1) + ", " +
                    luaExp(R, 1);
    if (R.chance(30))
      S += ", " + luaNumber(R);
    S += " do\n" + luaBlock(R, Depth - 1, Indent + 1, false);
    indent(S, Indent);
    return S + "end";
  }
  case 7: {
    std::string S = "for " + luaName(R) + ", " + luaName(R) + " in " +
                    luaPrefix(R, 1, true) + " do\n" +
                    luaBlock(R, Depth - 1, Indent + 1, false);
    indent(S, Indent);
    return S + "end";
  }
  case 8: {
    std::string S = "function " + luaName(R);
    if (R.chance(40))
      S += "." + luaName(R);
    if (R.chance(30))
      S += ":" + luaName(R);
    return S + luaFuncBody(R, Depth, Indent);
  }
  case 9:
    return "local function " + luaName(R) + luaFuncBody(R, Depth, Indent);
  case 10: {
    std::string S = "repeat\n" + luaBlock(R, Depth - 1, Indent + 1, false);
    indent(S, Indent);
    return S + "until " + luaExp(R, 2);
  }
  default: {
    std::string S = "do\n" + luaBlock(R, Depth - 1, Indent + 1, false);
    indent(S, Indent);
    return S + "end";
  }
  }
}

std::string luaBlock(Rng &R, int Depth, int Indent, bool AllowReturn) {
  std::string B;
  int N = R.range(1, 3);
  for (int I = 0; I < N; ++I) {
    indent(B, Indent);
    B += luaStat(R, Depth, Indent) + "\n";
  }
  if (AllowReturn && R.chance(60)) {
    indent(B, Indent);
    B += "return " + luaExpList(R, 2, 2) + "\n";
  }
  return B;
}

//===----------------------------------------------------------------------===//
// JSON
//===----------------------------------------------------------------------===//

std::string jsonString(Rng &R) {
  std::string S = "\"" + plainText(R, R.range(0, 3));
  if (R.chance(20)) {
    static const char *const Escapes[] = {"\\\"", "\\\\", "\\/", "\\n",
                                          "\\t",  "\\u00e9"};
    S += Escapes[R.below(std::size(Escapes))];
  }
  return S + "\"";
}

std::string jsonNumber(Rng &R) {
  std::string N = R.chance(20) ? "-" : "";
  N += R.chance(10) ? "0" : digits(R, 1, 5);
  if (R.chance(30))
    N += "." + digits(R, 1, 3);
  if (R.chance(10))
    N += std::string(R.chance(50) ? "e" : "E") + (R.chance(50) ? "-" : "+") +
         digits(R, 1, 2);
  return N;
}

void jsonValue(Rng &R, int Depth, int Indent, std::string &Out) {
  int Kind = int(R.below(Depth > 0 ? 9 : 6));
  switch (Kind) {
  case 0:
  case 1:
    Out += jsonString(R);
    return;
  case 2:
  case 3:
    Out += jsonNumber(R);
    return;
  case 4:
    Out += R.pick(std::vector<std::string>{"true", "false", "null"});
    return;
  case 5:
    Out += "[]";
    return;
  case 6:
  case 7: {
    Out += "{\n";
    int N = R.range(1, 5);
    for (int I = 0; I < N; ++I) {
      indent(Out, Indent + 1);
      Out += "\"" + name(R) + "\": ";
      jsonValue(R, Depth - 1, Indent + 1, Out);
      Out += I + 1 < N ? ",\n" : "\n";
    }
    indent(Out, Indent);
    Out += "}";
    return;
  }
  default: {
    Out += "[";
    int N = R.range(1, 6);
    for (int I = 0; I < N; ++I) {
      if (I)
        Out += ", ";
      jsonValue(R, Depth - 1, Indent + 1, Out);
    }
    Out += "]";
    return;
  }
  }
}

std::string jsonRecord(Rng &R, int Indent) {
  std::string Out = "{\"id\": " + std::to_string(R.below(100000)) +
                    ", \"name\": " + jsonString(R);
  int N = R.range(1, 4);
  for (int I = 0; I < N; ++I) {
    Out += ", \"" + name(R) + "\": ";
    jsonValue(R, 3, Indent, Out);
  }
  return Out + "}";
}

//===----------------------------------------------------------------------===//
// DOT
//===----------------------------------------------------------------------===//

const std::set<std::string> DotKeywords = {"strict", "graph",    "digraph",
                                           "subgraph", "node",   "edge"};

std::string dotId(Rng &R) { return name(R, DotKeywords); }

std::string dotValue(Rng &R) {
  switch (R.below(3)) {
  case 0:
    return dotId(R);
  case 1:
    return (R.chance(15) ? "-" : "") + digits(R, 1, 3) +
           (R.chance(40) ? "." + digits(R, 1, 2) : "");
  default: {
    std::string S = "\"" + plainText(R, R.range(0, 3));
    if (R.chance(20))
      S += R.chance(50) ? "\\\"" : "\\n";
    return S + "\"";
  }
  }
}

std::string dotAttrList(Rng &R) {
  std::string A = "[";
  int N = R.range(0, 3);
  for (int I = 0; I < N; ++I) {
    if (I)
      A += ", ";
    A += dotId(R) + "=" + dotValue(R);
  }
  return A + "]";
}

std::string dotNodeId(Rng &R) {
  std::string N = dotId(R);
  if (R.chance(10))
    N += ":" + dotId(R);
  return N;
}

void dotStmts(Rng &R, int Depth, int Indent, size_t Bytes, std::string &Out,
              const char *EdgeOp) {
  size_t Start = Out.size();
  int Count = 0;
  while (Out.size() - Start < Bytes || Count == 0) {
    ++Count;
    indent(Out, Indent);
    int Kind = int(R.below(Depth > 0 ? 10 : 9));
    std::string Semi = R.chance(50) ? ";" : "";
    switch (Kind) {
    case 0:
    case 1:
    case 2:
    case 3: {
      Out += dotNodeId(R);
      int Hops = R.range(1, 3);
      for (int I = 0; I < Hops; ++I)
        Out += std::string(" ") + EdgeOp + " " + dotNodeId(R);
      if (R.chance(50))
        Out += " " + dotAttrList(R);
      Out += Semi;
      break;
    }
    case 4:
    case 5:
      Out += dotNodeId(R);
      if (R.chance(70))
        Out += " " + dotAttrList(R);
      Out += Semi;
      break;
    case 6:
      Out += R.pick(std::vector<std::string>{"graph", "node", "edge"}) + " " +
             dotAttrList(R) + Semi;
      break;
    case 7:
      Out += dotId(R) + " = " + dotValue(R) + Semi;
      break;
    case 8:
      Out += "// " + plainText(R, R.range(1, 5));
      break;
    default:
      Out += "subgraph " + (R.chance(70) ? dotId(R) + " " : "") + "{\n";
      dotStmts(R, Depth - 1, Indent + 1, size_t(R.range(40, 400)), Out,
               EdgeOp);
      indent(Out, Indent);
      Out += "}";
      break;
    }
    Out += "\n";
  }
}

//===----------------------------------------------------------------------===//
// S-expressions and lambda terms
//===----------------------------------------------------------------------===//

std::string sexprAtom(Rng &R) {
  switch (R.below(6)) {
  case 0:
    return std::to_string(R.below(10000));
  case 1:
    return digits(R, 1, 3) + "." + digits(R, 1, 2);
  case 2: {
    std::string S = "\"" + plainText(R, R.range(0, 3));
    if (R.chance(20))
      S += "\\\"";
    return S + "\"";
  }
  case 3:
    return R.pick(std::vector<std::string>{"+", "-", "*", "/", "<=", "eq?",
                                           "set!", "list->vector"});
  default:
    return name(R);
  }
}

void sexprValue(Rng &R, int Depth, std::string &Out) {
  if (Depth <= 0 || R.chance(40)) {
    if (R.chance(8))
      Out += "'";
    Out += sexprAtom(R);
    return;
  }
  if (R.chance(8))
    Out += "'";
  Out += "(";
  int N = R.range(0, 5);
  for (int I = 0; I < N; ++I) {
    if (I)
      Out += " ";
    sexprValue(R, Depth - 1, Out);
  }
  Out += ")";
}

const std::set<std::string> LambdaKeywords = {"lambda", "let", "in"};

std::string lambdaTerm(Rng &R, int Depth);

std::string lambdaAtom(Rng &R, int Depth) {
  if (Depth <= 0 || R.chance(60))
    return R.chance(25) ? std::to_string(R.below(1000))
                        : name(R, LambdaKeywords);
  return "(" + lambdaTerm(R, Depth - 1) + ")";
}

std::string lambdaTerm(Rng &R, int Depth) {
  switch (Depth > 0 ? R.below(4) : 3) {
  case 0:
    return "lambda " + name(R, LambdaKeywords) + ". " +
           lambdaTerm(R, Depth - 1);
  case 1:
    return "let " + name(R, LambdaKeywords) + " = " +
           lambdaTerm(R, Depth - 1) + " in " + lambdaTerm(R, Depth - 1);
  default: {
    std::string T = lambdaAtom(R, Depth);
    int N = R.range(0, 3);
    for (int I = 0; I < N; ++I)
      T += " " + lambdaAtom(R, Depth);
    return T;
  }
  }
}

/// Calls a bench/common generator with the unit count whose output size is
/// closest to \p Bytes (units vary in size, so search for it).
std::string sizedByUnits(std::string (*Generate)(int, unsigned), Rng &R,
                         size_t Bytes) {
  unsigned Seed = unsigned(R.next());
  int Hi = 1;
  while (Generate(Hi, Seed).size() < Bytes)
    Hi *= 2;
  int Lo = Hi / 2; // Generate(Lo) is short of Bytes, or Lo == 0
  while (Hi - Lo > 1) {
    int Mid = (Lo + Hi) / 2;
    (Generate(Mid, Seed).size() < Bytes ? Lo : Hi) = Mid;
  }
  std::string Over = Generate(Hi, Seed);
  if (Lo == 0)
    return Over;
  std::string Under = Generate(Lo, Seed);
  return Bytes - Under.size() < Over.size() - Bytes ? Under : Over;
}

} // namespace

namespace perfbench {
namespace gen {

std::string csv(Rng &R, size_t Bytes) {
  int Columns = R.range(3, 8);
  std::string Out;
  for (int C = 0; C < Columns; ++C) {
    if (C)
      Out += ",";
    Out += name(R);
  }
  const char *Eol = R.chance(20) ? "\r\n" : "\n";
  while (Out.size() < Bytes) {
    Out += Eol;
    for (int C = 0; C < Columns; ++C) {
      if (C)
        Out += ",";
      switch (R.below(6)) {
      case 0:
        break; // empty field
      case 1:
        Out += "\"" + plainText(R, R.range(1, 3)) + ", \"\"" + name(R) +
               "\"\"\"";
        break;
      case 2:
      case 3:
        Out += std::to_string(R.below(100000));
        break;
      default:
        Out += plainText(R, R.range(1, 2));
        break;
      }
    }
  }
  return Out + Eol;
}

std::string ini(Rng &R, size_t Bytes) {
  std::string Out;
  while (Out.size() < Bytes) {
    if (R.chance(20))
      Out += "# " + plainText(R, R.range(1, 6)) + "\n";
    Out += "[" + name(R) + (R.chance(30) ? "." + name(R) : "") + "]\n";
    int Entries = R.range(1, 8);
    for (int I = 0; I < Entries; ++I) {
      Out += name(R) + " = ";
      switch (R.below(3)) {
      case 0:
        Out += (R.chance(20) ? "-" : "") + std::to_string(R.below(100000));
        break;
      case 1:
        Out += "\"" + plainText(R, R.range(0, 4)) + "\"";
        break;
      default: {
        int N = R.range(1, 4);
        for (int J = 0; J < N; ++J)
          Out += (J ? ", " : "") + name(R) + (R.chance(20) ? "." + name(R) : "");
        break;
      }
      }
      Out += "\n";
    }
    Out += "\n";
  }
  return Out;
}

std::string json(Rng &R, size_t Bytes) {
  bool AsObject = R.chance(50);
  std::string Out = AsObject ? "{\"records\": [\n" : "[\n";
  bool First = true;
  while (Out.size() < Bytes || First) {
    if (!First)
      Out += ",\n";
    First = false;
    indent(Out, 1);
    Out += jsonRecord(R, 1);
  }
  Out += "\n]";
  if (AsObject)
    Out += ", \"count\": " + std::to_string(R.below(100000)) + "}";
  return Out + "\n";
}

std::string dot(Rng &R, size_t Bytes) {
  bool Directed = R.chance(60);
  std::string Out = R.chance(20) ? "strict " : "";
  Out += Directed ? "digraph " : "graph ";
  if (R.chance(80))
    Out += dotId(R) + " ";
  Out += "{\n";
  dotStmts(R, 2, 1, Bytes, Out, Directed ? "->" : "--");
  return Out + "}\n";
}

std::string lua(Rng &R, size_t Bytes) {
  std::string Out;
  while (Out.size() < Bytes) {
    if (R.chance(10))
      Out += "-- " + plainText(R, R.range(1, 6)) + "\n";
    Out += luaStat(R, 3, 0) + "\n";
  }
  return Out + "return " + luaName(R) + "\n";
}

std::string sexpr(Rng &R, size_t Bytes) {
  std::string Out;
  while (Out.size() < Bytes) {
    if (R.chance(10))
      Out += "; " + plainText(R, R.range(1, 6)) + "\n";
    Out += "(define (" + name(R) + " " + name(R) + ") ";
    sexprValue(R, 5, Out);
    Out += ")\n";
  }
  return Out;
}

std::string lambda(Rng &R, size_t Bytes) {
  // Application is a left-recursive loop, so a long program stays shallow.
  std::string Out = name(R, LambdaKeywords);
  while (Out.size() < Bytes)
    Out += "\n  (" + lambdaTerm(R, 4) + ")";
  return Out + "\n";
}

std::string java(Rng &R, size_t Bytes) {
  return sizedByUnits(llstar::bench::generateJava, R, Bytes);
}

std::string sql(Rng &R, size_t Bytes) {
  return sizedByUnits(llstar::bench::generateSql, R, Bytes);
}

std::string luaStatementLine(Rng &R) { return luaStat(R, 0, 0) + "\n"; }

std::string jsonElementItem(Rng &R) { return jsonRecord(R, 1) + ",\n  "; }

std::string typedLine(Rng &R, bool Lua, int Form) {
  if (!Lua) {
    switch (Form % 3) {
    case 0:
      return jsonNumber(R) + ", ";
    case 1:
      return jsonString(R) + ", ";
    default:
      return R.pick(std::vector<std::string>{"true", "false", "null"}) + ", ";
    }
  }
  switch (Form % 3) {
  case 0:
    return "local " + luaName(R) + " = " + luaNumber(R) + "\n";
  case 1:
    return luaName(R) + " = " + luaName(R) + "\n";
  default:
    return luaName(R) + "(" + luaName(R) + ")\n";
  }
}

EditableDoc luaDocument(Rng &R, size_t Bytes) {
  EditableDoc D;
  while (D.Text.size() < Bytes) {
    D.Boundaries.push_back(D.Text.size());
    if (R.chance(10))
      D.Text += "-- " + plainText(R, R.range(1, 6)) + "\n";
    D.Text += luaStat(R, 3, 0) + "\n";
  }
  D.Boundaries.push_back(D.Text.size());
  D.Text += "return " + luaName(R) + "\n";
  return D;
}

EditableDoc jsonDocument(Rng &R, size_t Bytes) {
  EditableDoc D;
  D.Text = "{\"items\": [\n  ";
  bool First = true;
  while (D.Text.size() < Bytes || First) {
    if (!First)
      D.Text += ",\n  ";
    First = false;
    D.Boundaries.push_back(D.Text.size());
    D.Text += jsonRecord(R, 1);
  }
  D.Text += "\n], \"total\": " + std::to_string(D.Boundaries.size()) + "}\n";
  return D;
}

std::string jsonSnippet(Rng &R, int Tokens) {
  // {"k": v, ...}: 2 tokens of braces plus 4 per scalar member.
  std::string Out = "{";
  int Used = 2;
  bool First = true;
  while (Used + 4 <= Tokens || First) {
    if (!First)
      Out += ", ";
    First = false;
    Out += "\"" + name(R) + "\": ";
    Used += 4;
    if (Used + 4 <= Tokens && R.chance(25)) {
      Out += "[" + jsonNumber(R) + ", " + jsonString(R) + "]";
      Used += 4;
    } else {
      Out += R.chance(50) ? jsonNumber(R) : jsonString(R);
    }
  }
  return Out + "}";
}

std::string dotSnippet(Rng &R, int Tokens) {
  // digraph name { ... }: 4 tokens, then statements of 3-6 tokens.
  std::string Out = "digraph " + dotId(R) + " { ";
  int Used = 4;
  do {
    if (R.chance(60)) {
      Out += dotId(R) + " -> " + dotId(R) + "; ";
      Used += 4;
    } else {
      Out += dotId(R) + " [" + dotId(R) + "=" + dotValue(R) + "]; ";
      Used += 7;
    }
  } while (Used + 4 <= Tokens);
  return Out + "}";
}

} // namespace gen
} // namespace perfbench
