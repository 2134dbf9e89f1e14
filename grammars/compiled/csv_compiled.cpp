//===- Csv_compiled.cpp - Compiled grammar module ------*- C++ -*-===//
//
// GENERATED by `llstar compile --emit-cpp` from grammar 'Csv'. DO NOT EDIT:
// regenerate with that command (CI diffs this file against a fresh run).
//
// payload-hash: 0x5128288a20a93faaull
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
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 1:  case 2:  case 3:  case 4:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s3:
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
  case 3:
    ++Depth;
    goto s2;
  case 4:
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

const NativePredictFn kNative[] = {
    &Predict0, &Predict1, &Predict2, &Predict3,
};

bool Rule0(LLStarParser &P, NodeRef Parent) { // file
  (void)P;
  (void)Parent;
  int64_t lm10 = -1;
  if (!P.deadlineOk())
    return false;
  goto s8;
s8:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 9, Parent))
    return false;
  goto s9;
s9:
  if (!P.deadlineOk())
    return false;
  goto s10;
s10:
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
        Alt = P.predictAtState(0, 10, Parent);
    } else {
      Alt = P.predictAtState(0, 10, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm10 < 0)
        lm10 = P.stream().index();
      else if (lm10 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm10 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s12;
    case 2:
      goto s15;
    }
    return false;
  }
s12:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 1) {
      LLStarParser::ColdMatch M = P.coldMismatch(12, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s13;
    }
    P.consumeMatched(Parent);
    goto s13;
  }
s15:
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
        Alt = P.predictAtState(1, 15, Parent);
    } else {
      Alt = P.predictAtState(1, 15, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s17;
    case 2:
      goto s16;
    }
    return false;
  }
s13:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(2, 0, 14, Parent))
    return false;
  goto s14;
s17:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 1) {
      LLStarParser::ColdMatch M = P.coldMismatch(17, Parent);
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
    if (P.stream().LA(1) != -1) {
      LLStarParser::ColdMatch M = P.coldMismatch(16, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s14:
  if (!P.deadlineOk())
    return false;
  goto s10;
}

bool Rule1(LLStarParser &P, NodeRef Parent) { // header
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s20;
s20:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(2, 0, 21, Parent))
    return false;
  goto s21;
s21:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule2(LLStarParser &P, NodeRef Parent) { // record
  (void)P;
  (void)Parent;
  int64_t lm24 = -1;
  if (!P.deadlineOk())
    return false;
  goto s22;
s22:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(3, 0, 23, Parent))
    return false;
  goto s23;
s23:
  if (!P.deadlineOk())
    return false;
  goto s24;
s24:
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
        Alt = P.predictAtState(2, 24, Parent);
    } else {
      Alt = P.predictAtState(2, 24, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm24 < 0)
        lm24 = P.stream().index();
      else if (lm24 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm24 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s26;
    case 2:
      return true;
    }
    return false;
  }
s26:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(26, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s27;
    }
    P.consumeMatched(Parent);
    goto s27;
  }
s27:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(3, 0, 28, Parent))
    return false;
  goto s28;
s28:
  if (!P.deadlineOk())
    return false;
  goto s24;
}

bool Rule3(LLStarParser &P, NodeRef Parent) { // field
  (void)P;
  (void)Parent;
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
        Alt = P.predictAtState(3, 6, Parent);
    } else {
      Alt = P.predictAtState(3, 6, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s29;
    case 2:
      goto s31;
    case 3:
      return true;
    }
    return false;
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
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s31:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(31, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

const NativeRuleFn kNativeRules[] = {
    &Rule0, &Rule1, &Rule2, &Rule3,
};

const int32_t kLexNext[] = {
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2, 1, 1, 3, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    4, 1, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 6, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, -1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, -1, 1, 1, 1, 1, 1, 1, 1, 1, 1, -1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 2, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, 4, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    4, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 7, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, 5, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
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
    -1, 2, 3, -1, 4, -1, 0, 1,
};
const uint8_t kLexActions[] = {
    0, 0, 0, 0, 2,
};
const int32_t kLexTypes[] = {
    2, 3, 4, 1, 5,
};

} // namespace

extern const CompiledGrammarModule kModule_Csv;
const CompiledGrammarModule kModule_Csv = {
    /*GrammarName=*/"Csv",
    /*PayloadHash=*/0x5128288a20a93faaull,
    /*Native=*/kNative,
    /*Rules=*/kNativeRules,
    /*LexNext=*/kLexNext,
    /*LexAccept=*/kLexAccept,
    /*NumLexStates=*/8,
    /*LexActions=*/kLexActions,
    /*LexTypes=*/kLexTypes,
    /*NumLexTags=*/5,
};

} // namespace compiled
} // namespace llstar
