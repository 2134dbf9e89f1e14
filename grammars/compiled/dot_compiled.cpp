//===- Dot_compiled.cpp - Compiled grammar module ------*- C++ -*-===//
//
// GENERATED by `llstar compile --emit-cpp` from grammar 'Dot'. DO NOT EDIT:
// regenerate with that command (CI diffs this file against a fresh run).
//
// payload-hash: 0x333df31cbab24637ull
//
//===----------------------------------------------------------------------===//

#include "compiled/CompiledRegistry.h"
#include "runtime/LLStarParser.h"

namespace llstar {
namespace compiled {
namespace {

int32_t Predict0(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 1:
    ++Depth;
    goto s1;
  case 2:  case 3:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict1(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 2:
    ++Depth;
    goto s1;
  case 3:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict2(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 4:
    ++Depth;
    goto s1;
  case 5:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict3(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 2:  case 4:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 6:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict4(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 2:  case 8:  case 9:
    ++Depth;
    goto s1;
  case 4:
    ++Depth;
    goto s2;
  case 10:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:  case 15:
    ++Depth;
    goto s4;
  case 11:
    ++Depth;
    goto s5;
  case 12:  case 13:
    ++Depth;
    goto s6;
  case 14:
    ++Depth;
    goto s7;
  default:
    DepthOut = Depth;
    return -1;
  }
s3:
  DepthOut = Depth;
  return 3;
s4:
  DepthOut = Depth;
  return 5;
s5:
  DepthOut = Depth;
  return 4;
s6:
  DepthOut = Depth;
  return 1;
s7:
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 4:
    ++Depth;
    goto s8;
  default:
    DepthOut = Depth;
    return -1;
  }
s8:
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:  case 15:
    ++Depth;
    goto s4;
  case 12:  case 13:
    ++Depth;
    goto s6;
  default:
    DepthOut = Depth;
    return -1;
  }
}

int32_t Predict5(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 7:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict6(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 2:
    ++Depth;
    goto s1;
  case 8:
    ++Depth;
    goto s2;
  case 9:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
s3:
  DepthOut = Depth;
  return 3;
}

int32_t Predict7(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 7:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict8(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 4:
    ++Depth;
    goto s1;
  case 5:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict9(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 2:  case 4:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 6:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict10(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 7:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict11(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 7:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict12(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 15:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict13(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:  case 15:
    ++Depth;
    goto s1;
  case 12:  case 13:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict14(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 15:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict15(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 12:
    ++Depth;
    goto s1;
  case 13:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict16(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:  case 12:  case 13:  case 15:
    ++Depth;
    goto s1;
  case 14:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict17(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 4:
    ++Depth;
    goto s1;
  case 17:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict18(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 16:
    ++Depth;
    goto s1;
  case 17:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
}

int32_t Predict19(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 4:  case 6:  case 7:  case 8:  case 9:  case 10:
    ++Depth;
    goto s1;
  case 15:
    ++Depth;
    goto s2;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 2;
s2:
  DepthOut = Depth;
  return 1;
}

int32_t Predict20(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 4:
    ++Depth;
    goto s1;
  case 18:
    ++Depth;
    goto s2;
  case 19:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 2;
s3:
  DepthOut = Depth;
  return 3;
}

const NativePredictFn kNative[] = {
    &Predict0, &Predict1, &Predict2, &Predict3,
    &Predict4, &Predict5, &Predict6, &Predict7,
    &Predict8, &Predict9, &Predict10, &Predict11,
    &Predict12, &Predict13, &Predict14, &Predict15,
    &Predict16, &Predict17, &Predict18, &Predict19,
    &Predict20,
};

bool Rule0(LLStarParser &P, NodeRef Parent) { // graph
  (void)P;
  (void)Parent;
  int64_t lm36 = -1;
  if (!P.deadlineOk())
    return false;
  goto s21;
s21:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict0(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(0, 21, Parent);
    } else {
      Alt = P.predictAtState(0, 21, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s23;
    case 2:
      goto s22;
    }
    return false;
  }
s23:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 1) {
      LLStarParser::ColdMatch M = P.coldMismatch(23, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s22;
    }
    P.consumeMatched(Parent);
    goto s22;
  }
s22:
  if (!P.deadlineOk())
    return false;
  goto s25;
s25:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict1(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(1, 25, Parent);
    } else {
      Alt = P.predictAtState(1, 25, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s27;
    case 2:
      goto s29;
    }
    return false;
  }
s27:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(27, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s26;
    }
    P.consumeMatched(Parent);
    goto s26;
  }
s29:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(29, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s26;
    }
    P.consumeMatched(Parent);
    goto s26;
  }
s26:
  if (!P.deadlineOk())
    return false;
  goto s31;
s31:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict2(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(2, 31, Parent);
    } else {
      Alt = P.predictAtState(2, 31, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s33;
    case 2:
      goto s32;
    }
    return false;
  }
s33:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(33, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s32;
    }
    P.consumeMatched(Parent);
    goto s32;
  }
s32:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(32, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s36;
    }
    P.consumeMatched(Parent);
    goto s36;
  }
s36:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict3(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(3, 36, Parent);
    } else {
      Alt = P.predictAtState(3, 36, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm36 < 0)
        lm36 = P.stream().index();
      else if (lm36 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm36 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s38;
    case 2:
      goto s37;
    }
    return false;
  }
s38:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 39, Parent))
    return false;
  goto s39;
s37:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 6) {
      LLStarParser::ColdMatch M = P.coldMismatch(37, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s40;
    }
    P.consumeMatched(Parent);
    goto s40;
  }
s39:
  if (!P.deadlineOk())
    return false;
  goto s36;
s40:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != -1) {
      LLStarParser::ColdMatch M = P.coldMismatch(40, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule1(LLStarParser &P, NodeRef Parent) { // stmt
  (void)P;
  (void)Parent;
  int64_t lm70 = -1;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict4(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(4, 2, Parent);
    } else {
      Alt = P.predictAtState(4, 2, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s42;
    case 2:
      goto s50;
    case 3:
      goto s63;
    case 4:
      goto s75;
    case 5:
      goto s83;
    }
    return false;
  }
s42:
  if (!P.deadlineOk())
    return false;
  goto s43;
s50:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict6(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(6, 50, Parent);
    } else {
      Alt = P.predictAtState(6, 50, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s52;
    case 2:
      goto s54;
    case 3:
      goto s56;
    }
    return false;
  }
s63:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 10) {
      LLStarParser::ColdMatch M = P.coldMismatch(63, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s65;
    }
    P.consumeMatched(Parent);
    goto s65;
  }
s75:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(75, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s76;
    }
    P.consumeMatched(Parent);
    goto s76;
  }
s83:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(2, 0, 84, Parent))
    return false;
  goto s84;
s43:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(3, 0, 44, Parent))
    return false;
  goto s44;
s52:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(52, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s51;
    }
    P.consumeMatched(Parent);
    goto s51;
  }
s54:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 8) {
      LLStarParser::ColdMatch M = P.coldMismatch(54, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s51;
    }
    P.consumeMatched(Parent);
    goto s51;
  }
s56:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 9) {
      LLStarParser::ColdMatch M = P.coldMismatch(56, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s51;
    }
    P.consumeMatched(Parent);
    goto s51;
  }
s65:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict8(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(8, 65, Parent);
    } else {
      Alt = P.predictAtState(8, 65, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s67;
    case 2:
      goto s66;
    }
    return false;
  }
s76:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 11) {
      LLStarParser::ColdMatch M = P.coldMismatch(76, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s77;
    }
    P.consumeMatched(Parent);
    goto s77;
  }
s84:
  if (!P.deadlineOk())
    return false;
  goto s85;
s44:
  if (!P.deadlineOk())
    return false;
  goto s45;
s51:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(6, 0, 58, Parent))
    return false;
  goto s58;
s67:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(67, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s66;
    }
    P.consumeMatched(Parent);
    goto s66;
  }
s66:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(66, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s70;
    }
    P.consumeMatched(Parent);
    goto s70;
  }
s77:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 78, Parent))
    return false;
  goto s78;
s85:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict11(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(11, 85, Parent);
    } else {
      Alt = P.predictAtState(11, 85, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s87;
    case 2:
      goto s86;
    }
    return false;
  }
s45:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict5(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(5, 45, Parent);
    } else {
      Alt = P.predictAtState(5, 45, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s47;
    case 2:
      goto s46;
    }
    return false;
  }
s58:
  if (!P.deadlineOk())
    return false;
  goto s59;
s70:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict9(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(9, 70, Parent);
    } else {
      Alt = P.predictAtState(9, 70, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm70 < 0)
        lm70 = P.stream().index();
      else if (lm70 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm70 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s72;
    case 2:
      goto s71;
    }
    return false;
  }
s78:
  if (!P.deadlineOk())
    return false;
  goto s79;
s87:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 7) {
      LLStarParser::ColdMatch M = P.coldMismatch(87, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s86;
    }
    P.consumeMatched(Parent);
    goto s86;
  }
s86:
  if (!P.deadlineOk())
    return false;
  return true;
s47:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 7) {
      LLStarParser::ColdMatch M = P.coldMismatch(47, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s46;
    }
    P.consumeMatched(Parent);
    goto s46;
  }
s46:
  if (!P.deadlineOk())
    return false;
  return true;
s59:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict7(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(7, 59, Parent);
    } else {
      Alt = P.predictAtState(7, 59, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s61;
    case 2:
      goto s60;
    }
    return false;
  }
s72:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 73, Parent))
    return false;
  goto s73;
s71:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 6) {
      LLStarParser::ColdMatch M = P.coldMismatch(71, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s79:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict10(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(10, 79, Parent);
    } else {
      Alt = P.predictAtState(10, 79, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s81;
    case 2:
      goto s80;
    }
    return false;
  }
s61:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 7) {
      LLStarParser::ColdMatch M = P.coldMismatch(61, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s60;
    }
    P.consumeMatched(Parent);
    goto s60;
  }
s60:
  if (!P.deadlineOk())
    return false;
  return true;
s73:
  if (!P.deadlineOk())
    return false;
  goto s70;
s81:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 7) {
      LLStarParser::ColdMatch M = P.coldMismatch(81, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s80;
    }
    P.consumeMatched(Parent);
    goto s80;
  }
s80:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule2(LLStarParser &P, NodeRef Parent) { // nodeStmt
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s89;
s89:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(5, 0, 90, Parent))
    return false;
  goto s90;
s90:
  if (!P.deadlineOk())
    return false;
  goto s91;
s91:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict12(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(12, 91, Parent);
    } else {
      Alt = P.predictAtState(12, 91, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s93;
    case 2:
      goto s92;
    }
    return false;
  }
s93:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(6, 0, 94, Parent))
    return false;
  goto s94;
s92:
  if (!P.deadlineOk())
    return false;
  return true;
s94:
  if (!P.deadlineOk())
    return false;
  goto s92;
}

bool Rule3(LLStarParser &P, NodeRef Parent) { // edgeStmt
  (void)P;
  (void)Parent;
  int64_t lm98 = -1;
  if (!P.deadlineOk())
    return false;
  goto s95;
s95:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(5, 0, 96, Parent))
    return false;
  goto s96;
s96:
  if (!P.deadlineOk())
    return false;
  goto s100;
s100:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(4, 0, 101, Parent))
    return false;
  goto s101;
s101:
  if (!P.deadlineOk())
    return false;
  goto s98;
s98:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict13(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(13, 98, Parent);
    } else {
      Alt = P.predictAtState(13, 98, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm98 < 0)
        lm98 = P.stream().index();
      else if (lm98 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm98 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s100;
    case 2:
      goto s102;
    }
    return false;
  }
s102:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict14(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(14, 102, Parent);
    } else {
      Alt = P.predictAtState(14, 102, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s104;
    case 2:
      goto s103;
    }
    return false;
  }
s104:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(6, 0, 105, Parent))
    return false;
  goto s105;
s103:
  if (!P.deadlineOk())
    return false;
  return true;
s105:
  if (!P.deadlineOk())
    return false;
  goto s103;
}

bool Rule4(LLStarParser &P, NodeRef Parent) { // edgeRhs
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s107;
s107:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict15(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(15, 107, Parent);
    } else {
      Alt = P.predictAtState(15, 107, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s109;
    case 2:
      goto s111;
    }
    return false;
  }
s109:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 12) {
      LLStarParser::ColdMatch M = P.coldMismatch(109, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s108;
    }
    P.consumeMatched(Parent);
    goto s108;
  }
s111:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 13) {
      LLStarParser::ColdMatch M = P.coldMismatch(111, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s108;
    }
    P.consumeMatched(Parent);
    goto s108;
  }
s108:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(5, 0, 113, Parent))
    return false;
  goto s113;
s113:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule5(LLStarParser &P, NodeRef Parent) { // nodeId
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s114;
s114:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(114, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s116;
    }
    P.consumeMatched(Parent);
    goto s116;
  }
s116:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict16(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(16, 116, Parent);
    } else {
      Alt = P.predictAtState(16, 116, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s118;
    case 2:
      goto s117;
    }
    return false;
  }
s118:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(118, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s119;
    }
    P.consumeMatched(Parent);
    goto s119;
  }
s117:
  if (!P.deadlineOk())
    return false;
  return true;
s119:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(119, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s117;
    }
    P.consumeMatched(Parent);
    goto s117;
  }
}

bool Rule6(LLStarParser &P, NodeRef Parent) { // attrList
  (void)P;
  (void)Parent;
  int64_t lm123 = -1;
  int64_t lm131 = -1;
  if (!P.deadlineOk())
    return false;
  goto s125;
s125:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(125, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s127;
    }
    P.consumeMatched(Parent);
    goto s127;
  }
s127:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict17(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(17, 127, Parent);
    } else {
      Alt = P.predictAtState(17, 127, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s129;
    case 2:
      goto s128;
    }
    return false;
  }
s129:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(7, 0, 130, Parent))
    return false;
  goto s130;
s128:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 17) {
      LLStarParser::ColdMatch M = P.coldMismatch(128, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s123;
    }
    P.consumeMatched(Parent);
    goto s123;
  }
s130:
  if (!P.deadlineOk())
    return false;
  goto s131;
s123:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict19(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(19, 123, Parent);
    } else {
      Alt = P.predictAtState(19, 123, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm123 < 0)
        lm123 = P.stream().index();
      else if (lm123 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm123 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s125;
    case 2:
      return true;
    }
    return false;
  }
s131:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict18(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(18, 131, Parent);
    } else {
      Alt = P.predictAtState(18, 131, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm131 < 0)
        lm131 = P.stream().index();
      else if (lm131 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm131 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s133;
    case 2:
      goto s128;
    }
    return false;
  }
s133:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 16) {
      LLStarParser::ColdMatch M = P.coldMismatch(133, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s134;
    }
    P.consumeMatched(Parent);
    goto s134;
  }
s134:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(7, 0, 135, Parent))
    return false;
  goto s135;
s135:
  if (!P.deadlineOk())
    return false;
  goto s131;
}

bool Rule7(LLStarParser &P, NodeRef Parent) { // attr
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s137;
s137:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(137, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s138;
    }
    P.consumeMatched(Parent);
    goto s138;
  }
s138:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 11) {
      LLStarParser::ColdMatch M = P.coldMismatch(138, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s139;
    }
    P.consumeMatched(Parent);
    goto s139;
  }
s139:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 140, Parent))
    return false;
  goto s140;
s140:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule8(LLStarParser &P, NodeRef Parent) { // idOrValue
  (void)P;
  (void)Parent;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict20(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(20, 16, Parent);
    } else {
      Alt = P.predictAtState(20, 16, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s141;
    case 2:
      goto s143;
    case 3:
      goto s145;
    }
    return false;
  }
s141:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(141, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s143:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 18) {
      LLStarParser::ColdMatch M = P.coldMismatch(143, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s145:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 19) {
      LLStarParser::ColdMatch M = P.coldMismatch(145, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule9(LLStarParser &P, NodeRef Parent) { // __synpred1_stmt
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s147;
s147:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(5, 0, 148, Parent))
    return false;
  goto s148;
s148:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(4, 0, 149, Parent))
    return false;
  goto s149;
s149:
  if (!P.deadlineOk())
    return false;
  return true;
}

const NativeRuleFn kNativeRules[] = {
    &Rule0, &Rule1, &Rule2, &Rule3,
    &Rule4, &Rule5, &Rule6, &Rule7,
    &Rule8, &Rule9,
};

const int32_t kLexNext[] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    1, -1, 2, -1, -1, -1, -1, -1, -1, -1, -1, -1, 3, 4, -1, 5,
    6, 6, 6, 6, 6, 6, 6, 6, 6, 6, 7, 8, -1, 9, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 11, -1, 12, -1, 10,
    -1, 10, 10, 10, 13, 14, 10, 15, 10, 10, 10, 10, 10, 10, 16, 10,
    10, 10, 10, 17, 10, 10, 10, 10, 10, 10, 10, 18, -1, 19, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 53, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 54, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 51, -1, -1,
    6, 6, 6, 6, 6, 6, 6, 6, 6, 6, -1, -1, -1, -1, 52, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 50,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 48, -1,
    6, 6, 6, 6, 6, 6, 6, 6, 6, 6, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 42, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 39, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 35, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 32,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 20, 21, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 28, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 22, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 23, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 24, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 25, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    26, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 27, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 29, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 30, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 31, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 33, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 34, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 36, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    37, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 38, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 40, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 41, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 43, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 44, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 45, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    46, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 47, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1, -1,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, 10,
    -1, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10,
    10, 10, 10, 10, 10, 10, 10, 10, 10, 10, 10, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    49, 49, 49, 49, 49, 49, 49, 49, 49, 49, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    49, 49, 49, 49, 49, 49, 49, 49, 49, 49, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, -1, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50, 50,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
};
const int32_t kLexAccept[] = {
    -1, 19, -1, 14, -1, -1, 17, 12, 5, 9, 16, 13, 15, 16, 16, 16,
    16, 16, 3, 4, 16, 16, 16, 16, 16, 16, 16, 8, 16, 16, 16, 0,
    16, 16, 6, 16, 16, 16, 1, 16, 16, 7, 16, 16, 16, 16, 16, 2,
    -1, 17, 20, 11, 10, 18, -1,
};
const uint8_t kLexActions[] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 2, 2,
};
const int32_t kLexTypes[] = {
    1, 2, 3, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17,
    4, 18, 19, 20, 21,
};

} // namespace

extern const CompiledGrammarModule kModule_Dot;
const CompiledGrammarModule kModule_Dot = {
    /*GrammarName=*/"Dot",
    /*PayloadHash=*/0x333df31cbab24637ull,
    /*Native=*/kNative,
    /*Rules=*/kNativeRules,
    /*LexNext=*/kLexNext,
    /*LexAccept=*/kLexAccept,
    /*NumLexStates=*/55,
    /*LexActions=*/kLexActions,
    /*LexTypes=*/kLexTypes,
    /*NumLexTags=*/21,
};

} // namespace compiled
} // namespace llstar
