//===- Ini_compiled.cpp - Compiled grammar module ------*- C++ -*-===//
//
// GENERATED by `llstar compile --emit-cpp` from grammar 'Ini'. DO NOT EDIT:
// regenerate with that command (CI diffs this file against a fresh run).
//
// payload-hash: 0xb3a6d1502f100821ull
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
  case -1:
    ++Depth;
    goto s1;
  case 1:
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
  case -1:  case 1:
    ++Depth;
    goto s1;
  case 2:
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
  case 2:
    ++Depth;
    goto s1;
  case 5:
    ++Depth;
    goto s2;
  case 6:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 3;
s2:
  DepthOut = Depth;
  return 1;
s3:
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
  case -1:  case 1:  case 2:
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

const NativePredictFn kNative[] = {
    &Predict0, &Predict1, &Predict2, &Predict3,
};

bool Rule0(LLStarParser &P, NodeRef Parent) { // file
  (void)P;
  (void)Parent;
  int64_t lm9 = -1;
  if (!P.deadlineOk())
    return false;
  goto s9;
s9:
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
        Alt = P.predictAtState(0, 9, Parent);
    } else {
      Alt = P.predictAtState(0, 9, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm9 < 0)
        lm9 = P.stream().index();
      else if (lm9 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm9 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s11;
    case 2:
      goto s10;
    }
    return false;
  }
s11:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 12, Parent))
    return false;
  goto s12;
s10:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != -1) {
      LLStarParser::ColdMatch M = P.coldMismatch(10, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s12:
  if (!P.deadlineOk())
    return false;
  goto s9;
}

bool Rule1(LLStarParser &P, NodeRef Parent) { // section
  (void)P;
  (void)Parent;
  int64_t lm18 = -1;
  if (!P.deadlineOk())
    return false;
  goto s14;
s14:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 1) {
      LLStarParser::ColdMatch M = P.coldMismatch(14, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s15;
    }
    P.consumeMatched(Parent);
    goto s15;
  }
s15:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(15, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s16;
    }
    P.consumeMatched(Parent);
    goto s16;
  }
s16:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(16, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s18;
    }
    P.consumeMatched(Parent);
    goto s18;
  }
s18:
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
        Alt = P.predictAtState(1, 18, Parent);
    } else {
      Alt = P.predictAtState(1, 18, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm18 < 0)
        lm18 = P.stream().index();
      else if (lm18 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm18 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s20;
    case 2:
      return true;
    }
    return false;
  }
s20:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(2, 0, 21, Parent))
    return false;
  goto s21;
s21:
  if (!P.deadlineOk())
    return false;
  goto s18;
}

bool Rule2(LLStarParser &P, NodeRef Parent) { // entry
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s22;
s22:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(22, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s23;
    }
    P.consumeMatched(Parent);
    goto s23;
  }
s23:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(23, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s24;
    }
    P.consumeMatched(Parent);
    goto s24;
  }
s24:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(3, 0, 25, Parent))
    return false;
  goto s25;
s25:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule3(LLStarParser &P, NodeRef Parent) { // value
  (void)P;
  (void)Parent;
  int64_t lm32 = -1;
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
        Alt = P.predictAtState(2, 6, Parent);
    } else {
      Alt = P.predictAtState(2, 6, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s26;
    case 2:
      goto s28;
    case 3:
      goto s30;
    }
    return false;
  }
s26:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(26, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s28:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 6) {
      LLStarParser::ColdMatch M = P.coldMismatch(28, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s30:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(30, Parent);
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
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict3(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(3, 32, Parent);
    } else {
      Alt = P.predictAtState(3, 32, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm32 < 0)
        lm32 = P.stream().index();
      else if (lm32 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm32 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s34;
    case 2:
      return true;
    }
    return false;
  }
s34:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 7) {
      LLStarParser::ColdMatch M = P.coldMismatch(34, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s35;
    }
    P.consumeMatched(Parent);
    goto s35;
  }
s35:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(35, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s32;
    }
    P.consumeMatched(Parent);
    goto s32;
  }
}

const NativeRuleFn kNativeRules[] = {
    &Rule0, &Rule1, &Rule2, &Rule3,
};

const int32_t kLexNext[] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    1, -1, 2, 3, -1, -1, -1, -1, -1, -1, -1, -1, 4, 5, -1, -1,
    6, 6, 6, 6, 6, 6, 6, 6, 6, 6, -1, -1, -1, 7, -1, -1,
    -1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 9, -1, 10, -1, 8,
    -1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, -1, -1, -1, -1, -1,
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
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, -1, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 11, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
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
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, -1, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
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
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 8, -1,
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, -1, -1, -1, -1, -1, -1,
    -1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, -1, -1, -1, -1, 8,
    -1, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8,
    8, 8, 8, 8, 8, 8, 8, 8, 8, 8, 8, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
};
const int32_t kLexAccept[] = {
    -1, 7, -1, 8, 3, -1, 5, 2, 4, 0, 1, 6,
};
const uint8_t kLexActions[] = {
    0, 0, 0, 0, 0, 0, 0, 2, 2,
};
const int32_t kLexTypes[] = {
    1, 3, 4, 7, 2, 5, 6, 8, 9,
};

} // namespace

extern const CompiledGrammarModule kModule_Ini;
const CompiledGrammarModule kModule_Ini = {
    /*GrammarName=*/"Ini",
    /*PayloadHash=*/0xb3a6d1502f100821ull,
    /*Native=*/kNative,
    /*Rules=*/kNativeRules,
    /*LexNext=*/kLexNext,
    /*LexAccept=*/kLexAccept,
    /*NumLexStates=*/12,
    /*LexActions=*/kLexActions,
    /*LexTypes=*/kLexTypes,
    /*NumLexTags=*/9,
};

} // namespace compiled
} // namespace llstar
