#include "incremental/IncrementalLexer.h"

#include "support/StringUtils.h"

#include <algorithm>
#include <cassert>

using namespace llstar;
using namespace llstar::incremental;

Lexeme IncrementalLexer::scanOne(std::string_view Text, int64_t Pos,
                                 uint32_t &Line, uint32_t &Col) const {
  const Lexer::Munch M = Lex.munch(Text, size_t(Pos));
  Lexeme L;
  L.Off = Pos;
  L.Len = M.Len;
  L.LookEnd = M.LookEnd;
  L.Tag = M.Tag;
  L.Line = Line;
  L.Col = Col;
  Lexer::advance(Text.substr(size_t(Pos), size_t(M.Len)), Line, Col);
  return L;
}

bool IncrementalLexer::emits(const Lexeme &L) const {
  return L.Tag >= 0 && Lex.actions()[size_t(L.Tag)] == LexerAction::Emit;
}

Token IncrementalLexer::tokenOf(std::string_view Text, const Lexeme &L) const {
  Token T(Lex.types()[size_t(L.Tag)],
          Text.substr(size_t(L.Off), size_t(L.Len)),
          SourceLocation(L.Line, L.Col));
  T.Offset = L.Off;
  return T;
}

void IncrementalLexer::rebase(std::string_view Text) {
  for (Token &T : Toks)
    if (!T.isEof())
      T.Text = Text.substr(size_t(T.Offset), T.Text.size());
}

size_t IncrementalLexer::firstDamaged(int64_t Offset) const {
  // MaxLook is non-decreasing, so the damaged region is a suffix.
  auto It = std::lower_bound(
      Lexemes.begin(), Lexemes.end(), Offset,
      [](const Lexeme &L, int64_t Off) { return L.MaxLook <= Off; });
  return size_t(It - Lexemes.begin());
}

size_t IncrementalLexer::lexemeAt(int64_t Off) const {
  auto It = std::lower_bound(
      Lexemes.begin(), Lexemes.end(), Off,
      [](const Lexeme &L, int64_t O) { return L.Off < O; });
  if (It == Lexemes.end() || It->Off != Off)
    return SIZE_MAX;
  return size_t(It - Lexemes.begin());
}

/// Replaces V[Lo, Hi) with \p New, moving the elements after Hi at most
/// once.
template <typename T>
static void spliceRange(std::vector<T> &V, size_t Lo, size_t Hi,
                        const std::vector<T> &New) {
  const size_t Common = std::min(Hi - Lo, New.size());
  std::copy(New.begin(), New.begin() + int64_t(Common),
            V.begin() + int64_t(Lo));
  if (Common < Hi - Lo)
    V.erase(V.begin() + int64_t(Lo + Common), V.begin() + int64_t(Hi));
  else
    V.insert(V.begin() + int64_t(Hi), New.begin() + int64_t(Common),
             New.end());
}

/// Unrecognized-byte lexemes in [B, E).
static int64_t countErrorLexemes(std::vector<Lexeme>::const_iterator B,
                                 std::vector<Lexeme>::const_iterator E) {
  return std::count_if(B, E, [](const Lexeme &L) { return L.Tag < 0; });
}

void IncrementalLexer::lexAll(std::string_view Text) {
  Lexemes.clear();
  Toks.clear();
  ErrorLexemes = 0;
  uint32_t Line = 1, Col = 0;
  int64_t Pos = 0, Cum = 0;
  while (Pos < int64_t(Text.size())) {
    Lexeme L = scanOne(Text, Pos, Line, Col);
    Pos += L.Len;
    Cum = std::max(Cum, L.LookEnd);
    L.MaxLook = Cum;
    ErrorLexemes += L.Tag < 0;
    Lexemes.push_back(L);
  }
  EndLine = Line;
  EndCol = Col;

  for (const Lexeme &L : Lexemes)
    if (emits(L))
      Toks.push_back(tokenOf(Text, L));
  Token Eof(TokenEof, EofText, SourceLocation(EndLine, EndCol));
  Eof.Offset = int64_t(Text.size());
  Toks.push_back(Eof);
  for (size_t I = 0; I < Toks.size(); ++I)
    Toks[I].Index = int64_t(I);
}

IncrementalLexer::Damage IncrementalLexer::relex(std::string_view NewText,
                                                 int64_t Offset, int64_t OldLen,
                                                 int64_t NewLen) {
  const int64_t Delta = NewLen - OldLen;
  const int64_t OldSize = int64_t(NewText.size()) - Delta;
  assert(Offset >= 0 && OldLen >= 0 && Offset + OldLen <= OldSize &&
         "edit must have been validated against the old text");

  // Retained prefix: the longest prefix of lexemes in which no DFA walk
  // examined a byte at or past the edit.
  const size_t First = firstDamaged(Offset);

  int64_t P;
  uint32_t Line, Col;
  if (First < Lexemes.size()) {
    P = Lexemes[First].Off;
    Line = Lexemes[First].Line;
    Col = Lexemes[First].Col;
  } else {
    // Pure append past everything any walk examined.
    P = OldSize;
    Line = EndLine;
    Col = EndCol;
  }

  // Walk the damaged window, probing each fresh boundary past the
  // inserted text for an old lexeme start to resynchronize on.
  const int64_t ResyncMin = Offset + NewLen;
  std::vector<Lexeme> Fresh;
  size_t OldSuffix = Lexemes.size();
  bool Resynced = false;
  while (P < int64_t(NewText.size())) {
    if (P >= ResyncMin) {
      size_t R = lexemeAt(P - Delta);
      if (R != SIZE_MAX && R >= First) {
        OldSuffix = R;
        Resynced = true;
        break;
      }
    }
    Lexeme L = scanOne(NewText, P, Line, Col);
    P += L.Len;
    Fresh.push_back(L);
  }

  // Position shift for the retained suffix: lines move by the line delta
  // at the resync point; columns move only on the resync lexeme's old
  // line (later lines start fresh at column 0 either way).
  int64_t LineDelta = 0, ColDelta = 0;
  uint32_t OldResyncLine = 0;
  if (Resynced) {
    const Lexeme &R = Lexemes[OldSuffix];
    OldResyncLine = R.Line;
    LineDelta = int64_t(Line) - int64_t(R.Line);
    ColDelta = int64_t(Col) - int64_t(R.Col);
  }

  // Token-space damage bounds, computed against the old vectors before
  // any splicing. Tokens are sorted by offset (EOF last, at text size).
  const int64_t OldTokCount = int64_t(Toks.size());
  auto tokLowerBound = [&](int64_t Off) {
    auto It = std::lower_bound(
        Toks.begin(), Toks.end(), Off,
        [](const Token &T, int64_t O) { return T.Offset < O; });
    return int64_t(It - Toks.begin());
  };
  const int64_t FirstOff = First < Lexemes.size() ? Lexemes[First].Off : OldSize;
  Damage D;
  D.InvalidLo = tokLowerBound(FirstOff);
  D.OldInvalidHi =
      Resynced ? tokLowerBound(Lexemes[OldSuffix].Off) : OldTokCount;
  D.Relexed = int64_t(Fresh.size());

  ErrorLexemes += countErrorLexemes(Fresh.begin(), Fresh.end()) -
                  countErrorLexemes(Lexemes.begin() + int64_t(First),
                                    Lexemes.begin() + int64_t(OldSuffix));

  // In-place fast path: an edit that kept every downstream byte, line,
  // column, lexeme, and token where it was (the overwhelmingly common
  // overtype) only needs the damaged window overwritten — no suffix
  // rewrite, and downstream consumers learn via SuffixIdentical that
  // reused suffix subtrees need no token fix-up.
  if (Resynced && Delta == 0 && LineDelta == 0 && ColDelta == 0 &&
      Fresh.size() == OldSuffix - First) {
    int64_t FreshEmitted = 0;
    for (const Lexeme &L : Fresh)
      if (emits(L))
        ++FreshEmitted;
    if (FreshEmitted == D.OldInvalidHi - D.InvalidLo) {
      std::copy(Fresh.begin(), Fresh.end(), Lexemes.begin() + int64_t(First));
      // The suffix's LookEnds did not move, so its running maxima are
      // unchanged from the first one that comes out the same.
      int64_t Cum = First > 0 ? Lexemes[First - 1].MaxLook : 0;
      for (size_t I = First; I < Lexemes.size(); ++I) {
        Cum = std::max(Cum, Lexemes[I].LookEnd);
        if (I >= OldSuffix && Lexemes[I].MaxLook == Cum)
          break;
        Lexemes[I].MaxLook = Cum;
      }
      int64_t TI = D.InvalidLo;
      for (const Lexeme &L : Fresh) {
        if (!emits(L))
          continue;
        Token &T = Toks[size_t(TI)];
        T = tokenOf(NewText, L);
        T.Index = TI++;
      }
      D.NewInvalidHi = D.OldInvalidHi;
      D.TokenDelta = 0;
      D.SuffixIdentical = true;
      return D;
    }
  }

  if (Resynced) {
    if (EndLine == OldResyncLine)
      EndCol = uint32_t(int64_t(EndCol) + ColDelta);
    EndLine = uint32_t(int64_t(EndLine) + LineDelta);
  } else {
    EndLine = Line;
    EndCol = Col;
  }

  // Splice both vectors in place: the fresh window replaces the damaged
  // one, then one pass over each retained suffix shifts it.
  auto ShiftPos = [&](uint32_t &SLine, uint32_t &SCol) {
    if (SLine == OldResyncLine)
      SCol = uint32_t(int64_t(SCol) + ColDelta);
    SLine = uint32_t(int64_t(SLine) + LineDelta);
  };
  spliceRange(Lexemes, First, OldSuffix, Fresh);
  int64_t Cum = First > 0 ? Lexemes[First - 1].MaxLook : 0;
  const size_t LexSuffix = First + Fresh.size();
  for (size_t I = First; I < LexSuffix; ++I) {
    Cum = std::max(Cum, Lexemes[I].LookEnd);
    Lexemes[I].MaxLook = Cum;
  }
  for (size_t I = LexSuffix; I < Lexemes.size(); ++I) {
    Lexeme &L = Lexemes[I];
    L.Off += Delta;
    L.LookEnd += Delta; // the end-of-input sentinel shifts with the size
    ShiftPos(L.Line, L.Col);
    Cum = std::max(Cum, L.LookEnd);
    L.MaxLook = Cum;
  }

  // The token vector: freshly lexed middle, then the shifted suffix
  // (which includes EOF when we resynchronized; otherwise no old token
  // survived the damage, and the fresh EOF belongs to the window).
  std::vector<Token> FreshToks;
  for (const Lexeme &L : Fresh)
    if (emits(L))
      FreshToks.push_back(tokenOf(NewText, L));
  if (!Resynced) {
    Token Eof(TokenEof, EofText, SourceLocation(EndLine, EndCol));
    Eof.Offset = int64_t(NewText.size());
    FreshToks.push_back(Eof);
  }
  spliceRange(Toks, size_t(D.InvalidLo), size_t(D.OldInvalidHi), FreshToks);
  D.NewInvalidHi = D.InvalidLo + int64_t(FreshToks.size());
  for (int64_t I = D.InvalidLo; I < D.NewInvalidHi; ++I)
    Toks[size_t(I)].Index = I;
  for (int64_t I = D.NewInvalidHi; I < int64_t(Toks.size()); ++I) {
    Token &T = Toks[size_t(I)];
    T.Offset += Delta;
    // The bytes are the same, but the buffer and their offset moved.
    if (!T.isEof())
      T.Text = NewText.substr(size_t(T.Offset), T.Text.size());
    ShiftPos(T.Loc.Line, T.Loc.Column);
    T.Index = I;
  }

  D.TokenDelta = int64_t(Toks.size()) - OldTokCount;
  D.SuffixIdentical = Resynced && Delta == 0 && LineDelta == 0 &&
                      ColDelta == 0 && D.TokenDelta == 0;
  return D;
}

void IncrementalLexer::emitLexDiagnostics(std::string_view Text,
                                          DiagnosticEngine &Diags) const {
  if (ErrorLexemes == 0)
    return;
  for (const Lexeme &L : Lexemes)
    if (L.Tag < 0)
      Diags.error(SourceLocation(L.Line, L.Col),
                  "unrecognized character '" +
                      escapeChar(Text[size_t(L.Off)]) + "'");
}
