#include "grammar/GrammarParser.h"

#include "grammar/GrammarLexer.h"
#include "regex/RegexParser.h"
#include "support/StringUtils.h"

#include <cassert>
#include <cctype>
#include <charconv>
#include <map>
#include <set>

using namespace llstar;

namespace {

bool isLexerRuleName(const std::string &Name) {
  return !Name.empty() && std::isupper(static_cast<unsigned char>(Name[0]));
}

/// Lexer-rule bodies parse into this intermediate tree so that fragment
/// references can be resolved after the whole file has been read.
struct LexNode {
  using Ptr = std::shared_ptr<LexNode>;
  enum Kind { Leaf, Ref, Concat, Alt, Star, Plus, Opt } K = Leaf;
  regex::RegexNode::Ptr Re; // Leaf
  std::string RefName;      // Ref
  SourceLocation RefLoc;    // Ref
  std::vector<Ptr> Children;

  static Ptr leaf(regex::RegexNode::Ptr Re) {
    auto N = std::make_shared<LexNode>();
    N->K = Leaf;
    N->Re = std::move(Re);
    return N;
  }
  static Ptr ref(std::string Name, SourceLocation Loc) {
    auto N = std::make_shared<LexNode>();
    N->K = Ref;
    N->RefName = std::move(Name);
    N->RefLoc = Loc;
    return N;
  }
  static Ptr nary(Kind K, std::vector<Ptr> Children) {
    auto N = std::make_shared<LexNode>();
    N->K = K;
    N->Children = std::move(Children);
    return N;
  }
};

/// One lexer rule as read from the file.
struct LexRuleDef {
  std::string Name;
  SourceLocation Loc;
  bool IsFragment = false;
  LexNode::Ptr Body;
  LexerAction Action = LexerAction::Emit;
  int32_t Order = 0; // definition order among lexer rules
};

class Parser {
public:
  Parser(std::string_view Text, DiagnosticEngine &Diags) : Diags(Diags) {
    Tokens = lexGrammarText(Text, Diags);
  }

  std::unique_ptr<Grammar> run(bool Validate) {
    G = std::make_unique<Grammar>();
    preRegisterRules();
    parseHeader();
    while (!at(MetaKind::Eof)) {
      if (!parseRuleDef()) {
        // Error recovery: skip to the next ';' and continue.
        while (!at(MetaKind::Eof) && !at(MetaKind::Semi))
          take();
        if (at(MetaKind::Semi))
          take();
      }
    }
    finishLexerRules();
    if (Diags.hasErrors())
      return nullptr;
    if (Validate) {
      G->validate(Diags);
      if (Diags.hasErrors())
        return nullptr;
    }
    return std::move(G);
  }

private:
  //===--------------------------------------------------------------------===//
  // Token helpers
  //===--------------------------------------------------------------------===//

  const MetaToken &cur() const { return Tokens[Pos]; }
  const MetaToken &peek(size_t Ahead = 1) const {
    size_t I = Pos + Ahead;
    return I < Tokens.size() ? Tokens[I] : Tokens.back();
  }
  bool at(MetaKind Kind) const { return cur().Kind == Kind; }
  bool atIdent(const char *Text) const {
    return at(MetaKind::Ident) && cur().Text == Text;
  }
  MetaToken take() {
    MetaToken T = cur();
    if (Pos + 1 < Tokens.size())
      ++Pos;
    return T;
  }
  bool expect(MetaKind Kind, const char *Context) {
    if (at(Kind))
      return true;
    Diags.error(cur().Loc, std::string("expected ") + metaKindName(Kind) +
                               " " + Context + ", found " +
                               metaKindName(cur().Kind));
    return false;
  }
  MetaToken expectTake(MetaKind Kind, const char *Context) {
    if (!expect(Kind, Context))
      return cur();
    return take();
  }

  //===--------------------------------------------------------------------===//
  // Pre-registration: any Ident immediately followed by ':' defines a rule.
  //===--------------------------------------------------------------------===//

  void preRegisterRules() {
    for (size_t I = 0; I + 1 < Tokens.size(); ++I) {
      if (Tokens[I].Kind != MetaKind::Ident ||
          Tokens[I + 1].Kind != MetaKind::Colon)
        continue;
      const std::string &Name = Tokens[I].Text;
      if (isLexerRuleName(Name))
        continue; // lexer rules live outside the Grammar rule table
      if (G->findRule(Name) >= 0) {
        Diags.error(Tokens[I].Loc, "rule '" + Name + "' redefined");
        continue;
      }
      G->addRule(Name, Tokens[I].Loc);
    }
  }

  //===--------------------------------------------------------------------===//
  // Header: grammar name, options, tokens
  //===--------------------------------------------------------------------===//

  void parseHeader() {
    if (atIdent("grammar")) {
      take();
      if (expect(MetaKind::Ident, "after 'grammar'"))
        G->Name = take().Text;
      expectTake(MetaKind::Semi, "after grammar name");
    } else {
      Diags.error(cur().Loc, "grammar file must start with 'grammar <name>;'");
    }
    while (true) {
      if (atIdent("options") && peek().Kind == MetaKind::Action) {
        take();
        parseOptions(take());
      } else if (atIdent("tokens") && peek().Kind == MetaKind::Action) {
        take();
        parseTokensBlock(take());
      } else {
        break;
      }
    }
  }

  void parseOptions(const MetaToken &Block) {
    // The action token captured "key=value; key=value;" verbatim.
    size_t I = 0;
    const std::string &S = Block.Text;
    auto SkipWs = [&] {
      while (I < S.size() && std::isspace(static_cast<unsigned char>(S[I])))
        ++I;
    };
    while (true) {
      SkipWs();
      if (I >= S.size())
        break;
      size_t KeyStart = I;
      while (I < S.size() && (std::isalnum(static_cast<unsigned char>(S[I])) ||
                              S[I] == '_'))
        ++I;
      std::string Key = S.substr(KeyStart, I - KeyStart);
      SkipWs();
      if (I >= S.size() || S[I] != '=') {
        Diags.error(Block.Loc, "malformed option near '" + Key + "'");
        return;
      }
      ++I;
      SkipWs();
      size_t ValStart = I;
      while (I < S.size() && S[I] != ';')
        ++I;
      std::string Val = S.substr(ValStart, I - ValStart);
      while (!Val.empty() &&
             std::isspace(static_cast<unsigned char>(Val.back())))
        Val.pop_back();
      if (I < S.size())
        ++I; // skip ';'
      applyOption(Block.Loc, Key, Val);
    }
  }

  void applyOption(SourceLocation Loc, const std::string &Key,
                   const std::string &Val) {
    auto AsBool = [&](bool &Out) {
      if (Val == "true")
        Out = true;
      else if (Val == "false")
        Out = false;
      else
        Diags.error(Loc, "option '" + Key + "' expects true/false, got '" +
                             Val + "'");
    };
    auto AsInt = [&](int32_t &Out) {
      // from_chars never throws: anything but a whole in-range decimal
      // (optionally signed '+') is rejected with a diagnostic.
      int32_t Parsed = 0;
      const char *Begin = Val.data(), *End = Val.data() + Val.size();
      if (Begin != End && *Begin == '+')
        ++Begin;
      auto [Ptr, Ec] = std::from_chars(Begin, End, Parsed);
      if (Ec == std::errc() && Ptr == End && Parsed > 0)
        Out = Parsed;
      else
        Diags.error(Loc, "option '" + Key + "' expects a positive integer");
    };
    if (Key == "backtrack")
      AsBool(G->Options.Backtrack);
    else if (Key == "memoize")
      AsBool(G->Options.Memoize);
    else if (Key == "m")
      AsInt(G->Options.MaxRecursionDepth);
    else if (Key == "maxDfaStates")
      AsInt(G->Options.MaxDfaStates);
    else
      Diags.warning(Loc, "unknown option '" + Key + "' ignored");
  }

  void parseTokensBlock(const MetaToken &Block) {
    // Names separated by ';' or ','.
    std::string Name;
    auto Flush = [&] {
      if (Name.empty())
        return;
      if (!isLexerRuleName(Name))
        Diags.error(Block.Loc,
                    "token name '" + Name + "' must start uppercase");
      else
        G->vocabulary().getOrDefine(Name);
      Name.clear();
    };
    for (char C : Block.Text) {
      if (std::isalnum(static_cast<unsigned char>(C)) || C == '_')
        Name += C;
      else
        Flush();
    }
    Flush();
  }

  //===--------------------------------------------------------------------===//
  // Rules
  //===--------------------------------------------------------------------===//

  bool parseRuleDef() {
    bool Fragment = false;
    if (atIdent("fragment") && peek().Kind == MetaKind::Ident) {
      take();
      Fragment = true;
    }
    if (!expect(MetaKind::Ident, "to start a rule"))
      return false;
    MetaToken NameTok = take();
    if (!expect(MetaKind::Colon, "after rule name"))
      return false;
    take();

    if (isLexerRuleName(NameTok.Text))
      return parseLexerRule(NameTok, Fragment);
    if (Fragment) {
      Diags.error(NameTok.Loc, "'fragment' applies only to lexer rules");
      return false;
    }
    return parseParserRule(NameTok);
  }

  bool parseParserRule(const MetaToken &NameTok) {
    int32_t Index = G->findRule(NameTok.Text);
    assert(Index >= 0 && "rule was pre-registered");
    CurrentRuleName = NameTok.Text;
    std::vector<Alternative> Alts;
    if (!parseAltList(Alts, /*InBlock=*/false))
      return false;
    if (!expect(MetaKind::Semi, "to end the rule"))
      return false;
    take();
    G->rule(Index).Alts = std::move(Alts);
    return true;
  }

  /// Parses alternatives up to ';' (top level) or ')' (block).
  bool parseAltList(std::vector<Alternative> &Alts, bool InBlock) {
    while (true) {
      Alternative A;
      A.Loc = cur().Loc;
      if (!parseAltElements(A))
        return false;
      Alts.push_back(std::move(A));
      if (at(MetaKind::Pipe)) {
        take();
        continue;
      }
      break;
    }
    (void)InBlock;
    return true;
  }

  bool parseAltElements(Alternative &A) {
    while (true) {
      switch (cur().Kind) {
      case MetaKind::Semi:
      case MetaKind::RParen:
      case MetaKind::Pipe:
      case MetaKind::Eof:
        return true;
      default:
        break;
      }
      Element E;
      if (!parseElement(E))
        return false;
      A.Elements.push_back(std::move(E));
    }
  }

  bool parseElement(Element &Out) {
    SourceLocation Loc = cur().Loc;
    switch (cur().Kind) {
    case MetaKind::Action: {
      MetaToken T = take();
      if (at(MetaKind::Question)) {
        take();
        if (T.DoubleBrace) {
          Diags.error(Loc, "'{{...}}' cannot be a predicate");
          return false;
        }
        Out = Element::semPred(T.Text, Loc);
        return true;
      }
      Out = Element::action(T.Text, T.DoubleBrace, Loc);
      return true;
    }
    case MetaKind::Ident: {
      MetaToken T = take();
      if (T.Text == "EOF") {
        Out = Element::tokenRef(TokenEof, Loc);
      } else if (isLexerRuleName(T.Text)) {
        Out = Element::tokenRef(G->vocabulary().getOrDefine(T.Text), Loc);
      } else {
        int32_t Index = G->findRule(T.Text);
        if (Index < 0) {
          Diags.error(Loc, "reference to undefined rule '" + T.Text + "'");
          return false;
        }
        Out = Element::ruleRef(Index, Loc);
      }
      return applyPostfix(Out, Loc);
    }
    case MetaKind::StrLit: {
      MetaToken T = take();
      Out = Element::tokenRef(G->defineLiteral(T.Text, T.Loc), Loc);
      return applyPostfix(Out, Loc);
    }
    case MetaKind::LParen: {
      take();
      std::vector<Alternative> Alts;
      if (!parseAltList(Alts, /*InBlock=*/true))
        return false;
      if (!expect(MetaKind::RParen, "to close the subrule"))
        return false;
      take();
      if (at(MetaKind::DArrow)) {
        take();
        // Syntactic predicate: hoist the fragment into a hidden rule.
        std::string FragName = "__synpred" + std::to_string(++SynPredCount) +
                               "_" + CurrentRuleName;
        int32_t FragIndex = G->addRule(FragName, Loc);
        G->rule(FragIndex).Alts = std::move(Alts);
        G->rule(FragIndex).IsSynPredFragment = true;
        Out = Element::synPred(FragIndex, Loc);
        return true;
      }
      BlockRepeat Repeat = takeRepeatSuffix();
      Out = Element::block(std::move(Alts), Repeat, Loc);
      return true;
    }
    case MetaKind::Dot:
      take();
      Out = Element::wildcard(Loc);
      return applyPostfix(Out, Loc);
    case MetaKind::Tilde: {
      take();
      IntervalSet Set;
      if (!parseTokenSetOperand(Set))
        return false;
      Out = Element::tokenSet(std::move(Set), /*Negated=*/true, Loc);
      return applyPostfix(Out, Loc);
    }
    default:
      Diags.error(Loc, std::string("unexpected ") + metaKindName(cur().Kind) +
                           " in rule body");
      return false;
    }
  }

  /// Parses the operand of a parser-rule '~': one token reference or a
  /// parenthesized alternation of token references. Fills \p Set with the
  /// referenced token types.
  bool parseTokenSetOperand(IntervalSet &Set) {
    auto TakeOne = [&]() -> bool {
      SourceLocation Loc = cur().Loc;
      if (at(MetaKind::Ident)) {
        MetaToken T = take();
        if (!isLexerRuleName(T.Text)) {
          Diags.error(Loc, "'~' requires token references, not rule '" +
                               T.Text + "'");
          return false;
        }
        Set.add(G->vocabulary().getOrDefine(T.Text));
        return true;
      }
      if (at(MetaKind::StrLit)) {
        {
        MetaToken LitTok = take();
        Set.add(G->defineLiteral(LitTok.Text, LitTok.Loc));
      }
        return true;
      }
      Diags.error(Loc, "expected a token reference after '~'");
      return false;
    };

    if (at(MetaKind::LParen)) {
      take();
      while (true) {
        if (!TakeOne())
          return false;
        if (at(MetaKind::Pipe)) {
          take();
          continue;
        }
        break;
      }
      if (!expect(MetaKind::RParen, "to close the token set"))
        return false;
      take();
      return true;
    }
    return TakeOne();
  }

  /// Wraps a plain atom in a block if followed by ?, *, or +.
  bool applyPostfix(Element &E, SourceLocation Loc) {
    BlockRepeat Repeat = takeRepeatSuffix();
    if (Repeat == BlockRepeat::None)
      return true;
    Alternative A;
    A.Loc = Loc;
    A.Elements.push_back(std::move(E));
    E = Element::block({std::move(A)}, Repeat, Loc);
    return true;
  }

  BlockRepeat takeRepeatSuffix() {
    if (at(MetaKind::Question)) {
      take();
      return BlockRepeat::Optional;
    }
    if (at(MetaKind::Star)) {
      take();
      return BlockRepeat::Star;
    }
    if (at(MetaKind::Plus)) {
      take();
      return BlockRepeat::Plus;
    }
    return BlockRepeat::None;
  }

  //===--------------------------------------------------------------------===//
  // Lexer rules
  //===--------------------------------------------------------------------===//

  bool parseLexerRule(const MetaToken &NameTok, bool Fragment) {
    LexRuleDef Def;
    Def.Name = NameTok.Text;
    Def.Loc = NameTok.Loc;
    Def.IsFragment = Fragment;
    Def.Order = int32_t(LexRules.size());
    if (!parseLexAlt(Def.Body))
      return false;
    if (at(MetaKind::Arrow)) {
      take();
      if (!expect(MetaKind::Ident, "after '->'"))
        return false;
      MetaToken Cmd = take();
      if (Cmd.Text == "skip")
        Def.Action = LexerAction::Skip;
      else if (Cmd.Text == "hidden")
        Def.Action = LexerAction::Hidden;
      else
        Diags.error(Cmd.Loc, "unknown lexer command '" + Cmd.Text +
                                 "' (expected skip or hidden)");
    }
    if (!expect(MetaKind::Semi, "to end the lexer rule"))
      return false;
    take();
    if (LexRuleByName.count(Def.Name)) {
      Diags.error(NameTok.Loc, "lexer rule '" + Def.Name + "' redefined");
      return false;
    }
    LexRuleByName[Def.Name] = LexRules.size();
    LexRules.push_back(std::move(Def));
    return true;
  }

  bool parseLexAlt(LexNode::Ptr &Out) {
    std::vector<LexNode::Ptr> Alts;
    while (true) {
      LexNode::Ptr Seq;
      if (!parseLexSeq(Seq))
        return false;
      Alts.push_back(std::move(Seq));
      if (at(MetaKind::Pipe)) {
        take();
        continue;
      }
      break;
    }
    Out = Alts.size() == 1 ? Alts[0] : LexNode::nary(LexNode::Alt, Alts);
    return true;
  }

  bool parseLexSeq(LexNode::Ptr &Out) {
    std::vector<LexNode::Ptr> Parts;
    while (true) {
      switch (cur().Kind) {
      case MetaKind::Semi:
      case MetaKind::RParen:
      case MetaKind::Pipe:
      case MetaKind::Arrow:
      case MetaKind::Eof:
        goto done;
      default:
        break;
      }
      {
        LexNode::Ptr Part;
        if (!parseLexPostfix(Part))
          return false;
        Parts.push_back(std::move(Part));
      }
    }
  done:
    if (Parts.empty()) {
      Diags.error(cur().Loc, "empty alternative in lexer rule");
      return false;
    }
    Out = Parts.size() == 1 ? Parts[0] : LexNode::nary(LexNode::Concat, Parts);
    return true;
  }

  bool parseLexPostfix(LexNode::Ptr &Out) {
    if (!parseLexAtom(Out))
      return false;
    while (true) {
      if (at(MetaKind::Star))
        Out = LexNode::nary(LexNode::Star, {Out});
      else if (at(MetaKind::Plus))
        Out = LexNode::nary(LexNode::Plus, {Out});
      else if (at(MetaKind::Question))
        Out = LexNode::nary(LexNode::Opt, {Out});
      else
        break;
      take();
    }
    return true;
  }

  bool parseLexAtom(LexNode::Ptr &Out) {
    SourceLocation Loc = cur().Loc;
    switch (cur().Kind) {
    case MetaKind::StrLit: {
      MetaToken T = take();
      // 'a'..'z' range?
      if (at(MetaKind::Range)) {
        take();
        if (!expect(MetaKind::StrLit, "after '..'"))
          return false;
        MetaToken Hi = take();
        if (T.Text.size() != 1 || Hi.Text.size() != 1) {
          Diags.error(Loc, "range endpoints must be single characters");
          return false;
        }
        Out = LexNode::leaf(regex::RegexNode::charSet(IntervalSet::range(
            static_cast<unsigned char>(T.Text[0]),
            static_cast<unsigned char>(Hi.Text[0]))));
        return true;
      }
      Out = LexNode::leaf(regex::RegexNode::string(T.Text));
      return true;
    }
    case MetaKind::CharSet: {
      MetaToken T = take();
      DiagnosticEngine SetDiags;
      regex::RegexNode::Ptr Re =
          regex::parseRegex("[" + T.Text + "]", SetDiags);
      if (!Re) {
        Diags.error(Loc, "malformed character set [" + T.Text + "]");
        return false;
      }
      Out = LexNode::leaf(std::move(Re));
      return true;
    }
    case MetaKind::Dot:
      take();
      Out = LexNode::leaf(regex::RegexNode::charSet(IntervalSet::range(0, 255)));
      return true;
    case MetaKind::Tilde: {
      take();
      LexNode::Ptr Inner;
      if (!parseLexAtom(Inner))
        return false;
      if (Inner->K != LexNode::Leaf ||
          Inner->Re->kind() != regex::RegexKind::CharSet) {
        // A single-char string literal lowers to a CharSet already via
        // RegexNode::string -> literal; longer strings cannot be negated.
        Diags.error(Loc, "'~' requires a single character or character set");
        return false;
      }
      Out = LexNode::leaf(
          regex::RegexNode::charSet(Inner->Re->set().complement(0, 255)));
      return true;
    }
    case MetaKind::Ident: {
      MetaToken T = take();
      if (!isLexerRuleName(T.Text)) {
        Diags.error(Loc, "lexer rules cannot reference parser rule '" +
                             T.Text + "'");
        return false;
      }
      Out = LexNode::ref(T.Text, Loc);
      return true;
    }
    case MetaKind::LParen: {
      take();
      if (!parseLexAlt(Out))
        return false;
      if (!expect(MetaKind::RParen, "to close the group"))
        return false;
      take();
      return true;
    }
    default:
      Diags.error(Loc, std::string("unexpected ") + metaKindName(cur().Kind) +
                           " in lexer rule");
      return false;
    }
  }

  //===--------------------------------------------------------------------===//
  // Lexer rule resolution (fragment inlining)
  //===--------------------------------------------------------------------===//

  regex::RegexNode::Ptr lowerLexNode(const LexNode &N,
                                     std::set<std::string> &InProgress) {
    switch (N.K) {
    case LexNode::Leaf:
      return N.Re;
    case LexNode::Ref: {
      auto It = LexRuleByName.find(N.RefName);
      if (It == LexRuleByName.end()) {
        Diags.error(N.RefLoc,
                    "reference to undefined lexer rule '" + N.RefName + "'");
        return nullptr;
      }
      if (InProgress.count(N.RefName)) {
        Diags.error(N.RefLoc, "lexer rule '" + N.RefName +
                                  "' is recursive; lexer rules must describe "
                                  "regular languages");
        return nullptr;
      }
      InProgress.insert(N.RefName);
      regex::RegexNode::Ptr Result =
          lowerLexNode(*LexRules[It->second].Body, InProgress);
      InProgress.erase(N.RefName);
      return Result;
    }
    case LexNode::Concat:
    case LexNode::Alt: {
      std::vector<regex::RegexNode::Ptr> Children;
      for (const LexNode::Ptr &C : N.Children) {
        regex::RegexNode::Ptr L = lowerLexNode(*C, InProgress);
        if (!L)
          return nullptr;
        Children.push_back(std::move(L));
      }
      return N.K == LexNode::Concat
                 ? regex::RegexNode::concat(std::move(Children))
                 : regex::RegexNode::alt(std::move(Children));
    }
    case LexNode::Star:
    case LexNode::Plus:
    case LexNode::Opt: {
      regex::RegexNode::Ptr C = lowerLexNode(*N.Children[0], InProgress);
      if (!C)
        return nullptr;
      if (N.K == LexNode::Star)
        return regex::RegexNode::star(std::move(C));
      if (N.K == LexNode::Plus)
        return regex::RegexNode::plus(std::move(C));
      return regex::RegexNode::optional(std::move(C));
    }
    }
    return nullptr;
  }

  void finishLexerRules() {
    for (const LexRuleDef &Def : LexRules) {
      if (Def.IsFragment)
        continue;
      std::set<std::string> InProgress{Def.Name};
      regex::RegexNode::Ptr Re = lowerLexNode(*Def.Body, InProgress);
      if (!Re)
        continue;
      TokenType Type = G->vocabulary().getOrDefine(Def.Name);
      // Named rules rank after literals (priority 0) so keywords win ties.
      G->lexerSpec().addRule(Type, std::move(Re), Def.Action,
                             /*Priority=*/100 + Def.Order, Def.Loc);
    }
  }

  DiagnosticEngine &Diags;
  std::vector<MetaToken> Tokens;
  size_t Pos = 0;
  std::unique_ptr<Grammar> G;
  std::string CurrentRuleName;
  int SynPredCount = 0;
  std::vector<LexRuleDef> LexRules;
  std::map<std::string, size_t> LexRuleByName;
};

} // namespace

std::unique_ptr<Grammar> llstar::parseGrammarText(std::string_view Text,
                                                  DiagnosticEngine &Diags,
                                                  bool Validate) {
  return Parser(Text, Diags).run(Validate);
}
