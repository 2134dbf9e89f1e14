//===- Lua_compiled.cpp - Compiled grammar module ------*- C++ -*-===//
//
// GENERATED by `llstar compile --emit-cpp` from grammar 'Lua'. DO NOT EDIT:
// regenerate with that command (CI diffs this file against a fresh run).
//
// payload-hash: 0x2d4fad278ca90789ull
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
  case -1:  case 1:  case 5:  case 8:  case 11:  case 12:
    ++Depth;
    goto s1;
  case 2:  case 4:  case 6:  case 7:  case 9:  case 13:  case 14:  case 17:  case 18:  case 19:  case 45:
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
  case -1:  case 5:  case 8:  case 11:  case 12:
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
  case -1:  case 2:  case 5:  case 8:  case 11:  case 12:
    ++Depth;
    goto s1;
  case 14:  case 17:  case 23:  case 24:  case 25:  case 39:  case 40:  case 41:  case 42:  case 43:  case 44:  case 45:  case 49:
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
  case -1:  case 5:  case 8:  case 11:  case 12:
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
  case 5:  case 12:
    ++Depth;
    goto s1;
  case 11:
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
  case 5:
    ++Depth;
    goto s1;
  case 12:
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
  case 4:
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
  case 14:
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
  return 2;
s2:
  DepthOut = Depth;
  return 1;
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
  case -1:  case 1:  case 2:  case 4:  case 5:  case 6:  case 7:  case 8:  case 9:  case 11:  case 12:  case 13:  case 14:  case 17:  case 18:  case 19:  case 45:
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
  return 2;
s2:
  DepthOut = Depth;
  return 1;
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
  case -1:  case 21:  case 45:
    ++Depth;
    goto s1;
  case 20:
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
  case -1:  case 45:
    ++Depth;
    goto s1;
  case 21:
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
  case -1:  case 3:
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
  case -1:  case 1:  case 2:  case 3:  case 4:  case 5:  case 6:  case 7:  case 8:  case 9:  case 11:  case 12:  case 13:  case 14:  case 16:  case 17:  case 18:  case 19:  case 45:  case 46:
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
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 44:
    ++Depth;
    goto s1;
  case 14:
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
  case -1:  case 1:  case 2:  case 4:  case 5:  case 6:  case 7:  case 8:  case 9:  case 11:  case 12:  case 13:  case 14:  case 17:  case 18:  case 19:  case 45:  case 46:
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
  case 14:  case 45:
    ++Depth;
    goto s1;
  case 17:
    ++Depth;
    goto s2;
  case 23:  case 24:  case 25:
    ++Depth;
    goto s3;
  case 39:
    ++Depth;
    goto s4;
  case 40:
    ++Depth;
    goto s5;
  case 41:
    ++Depth;
    goto s6;
  case 42:
    ++Depth;
    goto s7;
  case 43:
    ++Depth;
    goto s8;
  case 44:
    ++Depth;
    goto s9;
  case 49:
    ++Depth;
    goto s10;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 9;
s2:
  DepthOut = Depth;
  return 8;
s3:
  DepthOut = Depth;
  return 1;
s4:
  DepthOut = Depth;
  return 2;
s5:
  DepthOut = Depth;
  return 3;
s6:
  DepthOut = Depth;
  return 4;
s7:
  DepthOut = Depth;
  return 5;
s8:
  DepthOut = Depth;
  return 6;
s9:
  DepthOut = Depth;
  return 7;
s10:
  DepthOut = Depth;
  return 10;
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
  case 23:
    ++Depth;
    goto s1;
  case 24:
    ++Depth;
    goto s2;
  case 25:
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
  case 26:
    ++Depth;
    goto s1;
  case 27:
    ++Depth;
    goto s2;
  case 28:
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
  case 25:
    ++Depth;
    goto s1;
  case 29:
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
  case 31:
    ++Depth;
    goto s1;
  case 32:
    ++Depth;
    goto s2;
  case 33:
    ++Depth;
    goto s3;
  case 34:
    ++Depth;
    goto s4;
  case 35:
    ++Depth;
    goto s5;
  case 36:
    ++Depth;
    goto s6;
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
s4:
  DepthOut = Depth;
  return 4;
s5:
  DepthOut = Depth;
  return 5;
s6:
  DepthOut = Depth;
  return 6;
}

int32_t Predict22(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 14:
    ++Depth;
    goto s1;
  case 45:
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

int32_t Predict23(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 20:
    ++Depth;
    goto s1;
  case 21:
    ++Depth;
    goto s2;
  case 43:  case 45:  case 49:
    ++Depth;
    goto s3;
  case 47:
    ++Depth;
    goto s4;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  DepthOut = Depth;
  return 1;
s2:
  DepthOut = Depth;
  return 3;
s3:
  DepthOut = Depth;
  return 4;
s4:
  DepthOut = Depth;
  return 2;
}

int32_t Predict24(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 43:
    ++Depth;
    goto s1;
  case 45:
    ++Depth;
    goto s2;
  case 49:
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
  DepthOut = Depth;
  return 1;
s3:
  DepthOut = Depth;
  return 3;
}

int32_t Predict25(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 14:  case 17:  case 23:  case 24:  case 25:  case 39:  case 40:  case 41:  case 42:  case 43:  case 44:  case 45:  case 49:
    ++Depth;
    goto s1;
  case 46:
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

int32_t Predict26(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 14:  case 44:
    ++Depth;
    goto s1;
  case 46:
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

int32_t Predict27(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 14:
    ++Depth;
    goto s1;
  case 44:
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

int32_t Predict28(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 46:
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

int32_t Predict29(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 14:  case 17:  case 23:  case 24:  case 25:  case 39:  case 40:  case 41:  case 42:  case 43:  case 44:  case 45:  case 47:  case 49:
    ++Depth;
    goto s1;
  case 50:
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

int32_t Predict30(const Token *Toks, int64_t NumToks, int64_t Pos,
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
  case 15:
    ++Depth;
    goto s2;
  case 50:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 50:
    ++Depth;
    goto s3;
  case 14:  case 17:  case 23:  case 24:  case 25:  case 39:  case 40:  case 41:  case 42:  case 43:  case 44:  case 45:  case 47:  case 49:
    ++Depth;
    goto s4;
  default:
    DepthOut = Depth;
    return -1;
  }
s2:
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 50:
    ++Depth;
    goto s3;
  case 14:  case 17:  case 23:  case 24:  case 25:  case 39:  case 40:  case 41:  case 42:  case 43:  case 44:  case 45:  case 47:  case 49:
    ++Depth;
    goto s4;
  default:
    DepthOut = Depth;
    return -1;
  }
s3:
  DepthOut = Depth;
  return 2;
s4:
  DepthOut = Depth;
  return 1;
}

int32_t Predict31(const Token *Toks, int64_t NumToks, int64_t Pos,
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

int32_t Predict32(const Token *Toks, int64_t NumToks, int64_t Pos,
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
  case 15:
    ++Depth;
    goto s2;
  case 50:
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
  DepthOut = Depth;
  return 1;
s3:
  DepthOut = Depth;
  return 3;
}

int32_t Predict33(const Token *Toks, int64_t NumToks, int64_t Pos,
                 int64_t &DepthOut) {
  (void)Toks;
  (void)NumToks;
  (void)Pos;
  int64_t Depth = 0;
  int32_t T = 0;
  (void)T;
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case 14:
    ++Depth;
    goto s1;
  case 17:  case 23:  case 24:  case 25:  case 39:  case 40:  case 41:  case 42:  case 43:  case 44:  case 45:  case 49:
    ++Depth;
    goto s2;
  case 47:
    ++Depth;
    goto s3;
  default:
    DepthOut = Depth;
    return -1;
  }
s1:
  T = Toks[Pos + Depth < NumToks ? Pos + Depth : NumToks - 1].Type;
  switch (T) {
  case -1:  case 2:  case 15:  case 20:  case 21:  case 22:  case 25:  case 26:  case 27:  case 28:  case 29:  case 30:  case 31:  case 32:  case 33:  case 34:  case 35:  case 36:  case 37:  case 38:  case 43:  case 45:  case 47:  case 49:  case 50:
    ++Depth;
    goto s2;
  case 3:
    ++Depth;
    goto s4;
  default:
    DepthOut = Depth;
    return -1;
  }
s2:
  DepthOut = Depth;
  return 3;
s3:
  DepthOut = Depth;
  return 1;
s4:
  DepthOut = Depth;
  return 2;
}

const NativePredictFn kNative[] = {
    &Predict0, &Predict1, &Predict2, &Predict3,
    nullptr, &Predict5, &Predict6, &Predict7,
    &Predict8, &Predict9, &Predict10, &Predict11,
    &Predict12, &Predict13, &Predict14, &Predict15,
    &Predict16, nullptr, &Predict18, &Predict19,
    &Predict20, nullptr, &Predict22, &Predict23,
    &Predict24, &Predict25, &Predict26, &Predict27,
    &Predict28, &Predict29, &Predict30, &Predict31,
    &Predict32, &Predict33,
};

bool Rule0(LLStarParser &P, NodeRef Parent) { // chunk
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s42;
s42:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 43, Parent))
    return false;
  goto s43;
s43:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != -1) {
      LLStarParser::ColdMatch M = P.coldMismatch(43, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule1(LLStarParser &P, NodeRef Parent) { // block
  (void)P;
  (void)Parent;
  int64_t lm46 = -1;
  if (!P.deadlineOk())
    return false;
  goto s46;
s46:
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
        Alt = P.predictAtState(0, 46, Parent);
    } else {
      Alt = P.predictAtState(0, 46, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm46 < 0)
        lm46 = P.stream().index();
      else if (lm46 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm46 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s48;
    case 2:
      goto s50;
    }
    return false;
  }
s48:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(3, 0, 49, Parent))
    return false;
  goto s49;
s50:
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
        Alt = P.predictAtState(1, 50, Parent);
    } else {
      Alt = P.predictAtState(1, 50, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s52;
    case 2:
      goto s51;
    }
    return false;
  }
s49:
  if (!P.deadlineOk())
    return false;
  goto s46;
s52:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(2, 0, 53, Parent))
    return false;
  goto s53;
s51:
  if (!P.deadlineOk())
    return false;
  return true;
s53:
  if (!P.deadlineOk())
    return false;
  goto s51;
}

bool Rule2(LLStarParser &P, NodeRef Parent) { // retstat
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s54;
s54:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 1) {
      LLStarParser::ColdMatch M = P.coldMismatch(54, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s56;
    }
    P.consumeMatched(Parent);
    goto s56;
  }
s56:
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
        Alt = P.predictAtState(2, 56, Parent);
    } else {
      Alt = P.predictAtState(2, 56, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s58;
    case 2:
      goto s57;
    }
    return false;
  }
s58:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 59, Parent))
    return false;
  goto s59;
s57:
  if (!P.deadlineOk())
    return false;
  goto s60;
s59:
  if (!P.deadlineOk())
    return false;
  goto s57;
s60:
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
        Alt = P.predictAtState(3, 60, Parent);
    } else {
      Alt = P.predictAtState(3, 60, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s62;
    case 2:
      goto s61;
    }
    return false;
  }
s62:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(62, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s61;
    }
    P.consumeMatched(Parent);
    goto s61;
  }
s61:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule3(LLStarParser &P, NodeRef Parent) { // stat
  (void)P;
  (void)Parent;
  int64_t lm93 = -1;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    Alt = P.predictAtState(4, 6, Parent);
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s64;
    case 2:
      goto s66;
    case 3:
      goto s71;
    case 4:
      goto s73;
    case 5:
      goto s77;
    case 6:
      goto s83;
    case 7:
      goto s88;
    case 8:
      goto s106;
    case 9:
      goto s122;
    case 10:
      goto s130;
    case 11:
      goto s134;
    case 12:
      goto s149;
    }
    return false;
  }
s64:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(64, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s66:
  if (!P.deadlineOk())
    return false;
  goto s67;
s71:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(10, 0, 72, Parent))
    return false;
  goto s72;
s73:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(73, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s74;
    }
    P.consumeMatched(Parent);
    goto s74;
  }
s77:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 6) {
      LLStarParser::ColdMatch M = P.coldMismatch(77, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s78;
    }
    P.consumeMatched(Parent);
    goto s78;
  }
s83:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 7) {
      LLStarParser::ColdMatch M = P.coldMismatch(83, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s84;
    }
    P.consumeMatched(Parent);
    goto s84;
  }
s88:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 9) {
      LLStarParser::ColdMatch M = P.coldMismatch(88, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s89;
    }
    P.consumeMatched(Parent);
    goto s89;
  }
s106:
  if (!P.deadlineOk())
    return false;
  goto s107;
s122:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 13) {
      LLStarParser::ColdMatch M = P.coldMismatch(122, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s123;
    }
    P.consumeMatched(Parent);
    goto s123;
  }
s130:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 17) {
      LLStarParser::ColdMatch M = P.coldMismatch(130, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s131;
    }
    P.consumeMatched(Parent);
    goto s131;
  }
s134:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 18) {
      LLStarParser::ColdMatch M = P.coldMismatch(134, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s136;
    }
    P.consumeMatched(Parent);
    goto s136;
  }
s149:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 19) {
      LLStarParser::ColdMatch M = P.coldMismatch(149, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s67:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(5, 0, 68, Parent))
    return false;
  goto s68;
s72:
  if (!P.deadlineOk())
    return false;
  return true;
s74:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 75, Parent))
    return false;
  goto s75;
s78:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 79, Parent))
    return false;
  goto s79;
s84:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 85, Parent))
    return false;
  goto s85;
s89:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 90, Parent))
    return false;
  goto s90;
s107:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 13) {
      LLStarParser::ColdMatch M = P.coldMismatch(107, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s108;
    }
    P.consumeMatched(Parent);
    goto s108;
  }
s123:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(7, 0, 124, Parent))
    return false;
  goto s124;
s131:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(4, 0, 132, Parent))
    return false;
  goto s132;
s136:
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
        Alt = P.predictAtState(8, 136, Parent);
    } else {
      Alt = P.predictAtState(8, 136, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s138;
    case 2:
      goto s142;
    }
    return false;
  }
s68:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(68, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s69;
    }
    P.consumeMatched(Parent);
    goto s69;
  }
s75:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(75, Parent);
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
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(79, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s80;
    }
    P.consumeMatched(Parent);
    goto s80;
  }
s85:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 8) {
      LLStarParser::ColdMatch M = P.coldMismatch(85, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s86;
    }
    P.consumeMatched(Parent);
    goto s86;
  }
s90:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 10) {
      LLStarParser::ColdMatch M = P.coldMismatch(90, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s91;
    }
    P.consumeMatched(Parent);
    goto s91;
  }
s108:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(108, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s109;
    }
    P.consumeMatched(Parent);
    goto s109;
  }
s124:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 16) {
      LLStarParser::ColdMatch M = P.coldMismatch(124, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s125;
    }
    P.consumeMatched(Parent);
    goto s125;
  }
s132:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(14, 0, 133, Parent))
    return false;
  goto s133;
s138:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 17) {
      LLStarParser::ColdMatch M = P.coldMismatch(138, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s139;
    }
    P.consumeMatched(Parent);
    goto s139;
  }
s142:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(7, 0, 143, Parent))
    return false;
  goto s143;
s69:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 70, Parent))
    return false;
  goto s70;
s80:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 81, Parent))
    return false;
  goto s81;
s86:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 87, Parent))
    return false;
  goto s87;
s91:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 92, Parent))
    return false;
  goto s92;
s109:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(109, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s110;
    }
    P.consumeMatched(Parent);
    goto s110;
  }
s125:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 126, Parent))
    return false;
  goto s126;
s133:
  if (!P.deadlineOk())
    return false;
  return true;
s139:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(139, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s140;
    }
    P.consumeMatched(Parent);
    goto s140;
  }
s143:
  if (!P.deadlineOk())
    return false;
  goto s144;
s70:
  if (!P.deadlineOk())
    return false;
  return true;
s81:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(81, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s87:
  if (!P.deadlineOk())
    return false;
  return true;
s92:
  if (!P.deadlineOk())
    return false;
  goto s93;
s110:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 111, Parent))
    return false;
  goto s111;
s126:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(126, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s127;
    }
    P.consumeMatched(Parent);
    goto s127;
  }
s140:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(14, 0, 141, Parent))
    return false;
  goto s141;
s144:
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
        Alt = P.predictAtState(9, 144, Parent);
    } else {
      Alt = P.predictAtState(9, 144, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s146;
    case 2:
      goto s145;
    }
    return false;
  }
s93:
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
        Alt = P.predictAtState(5, 93, Parent);
    } else {
      Alt = P.predictAtState(5, 93, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm93 < 0)
        lm93 = P.stream().index();
      else if (lm93 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm93 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s95;
    case 2:
      goto s100;
    }
    return false;
  }
s111:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(111, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s112;
    }
    P.consumeMatched(Parent);
    goto s112;
  }
s127:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 128, Parent))
    return false;
  goto s128;
s141:
  if (!P.deadlineOk())
    return false;
  goto s137;
s146:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(146, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s147;
    }
    P.consumeMatched(Parent);
    goto s147;
  }
s145:
  if (!P.deadlineOk())
    return false;
  goto s137;
s95:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 11) {
      LLStarParser::ColdMatch M = P.coldMismatch(95, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s96;
    }
    P.consumeMatched(Parent);
    goto s96;
  }
s100:
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
        Alt = P.predictAtState(6, 100, Parent);
    } else {
      Alt = P.predictAtState(6, 100, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s102;
    case 2:
      goto s101;
    }
    return false;
  }
s112:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 113, Parent))
    return false;
  goto s113;
s128:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(128, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s137:
  if (!P.deadlineOk())
    return false;
  return true;
s147:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 148, Parent))
    return false;
  goto s148;
s96:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 97, Parent))
    return false;
  goto s97;
s102:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 12) {
      LLStarParser::ColdMatch M = P.coldMismatch(102, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s103;
    }
    P.consumeMatched(Parent);
    goto s103;
  }
s101:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(101, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s113:
  if (!P.deadlineOk())
    return false;
  goto s114;
s148:
  if (!P.deadlineOk())
    return false;
  goto s145;
s97:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 10) {
      LLStarParser::ColdMatch M = P.coldMismatch(97, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s98;
    }
    P.consumeMatched(Parent);
    goto s98;
  }
s103:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 104, Parent))
    return false;
  goto s104;
s114:
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
        Alt = P.predictAtState(7, 114, Parent);
    } else {
      Alt = P.predictAtState(7, 114, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s116;
    case 2:
      goto s115;
    }
    return false;
  }
s98:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 99, Parent))
    return false;
  goto s99;
s104:
  if (!P.deadlineOk())
    return false;
  goto s101;
s116:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(116, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s117;
    }
    P.consumeMatched(Parent);
    goto s117;
  }
s115:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 4) {
      LLStarParser::ColdMatch M = P.coldMismatch(115, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s119;
    }
    P.consumeMatched(Parent);
    goto s119;
  }
s99:
  if (!P.deadlineOk())
    return false;
  goto s93;
s117:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 118, Parent))
    return false;
  goto s118;
s119:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 120, Parent))
    return false;
  goto s120;
s118:
  if (!P.deadlineOk())
    return false;
  goto s115;
s120:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(120, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule4(LLStarParser &P, NodeRef Parent) { // funcname
  (void)P;
  (void)Parent;
  int64_t lm153 = -1;
  if (!P.deadlineOk())
    return false;
  goto s151;
s151:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(151, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s153;
    }
    P.consumeMatched(Parent);
    goto s153;
  }
s153:
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
        Alt = P.predictAtState(10, 153, Parent);
    } else {
      Alt = P.predictAtState(10, 153, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm153 < 0)
        lm153 = P.stream().index();
      else if (lm153 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm153 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s155;
    case 2:
      goto s158;
    }
    return false;
  }
s155:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 20) {
      LLStarParser::ColdMatch M = P.coldMismatch(155, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s156;
    }
    P.consumeMatched(Parent);
    goto s156;
  }
s158:
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
        Alt = P.predictAtState(11, 158, Parent);
    } else {
      Alt = P.predictAtState(11, 158, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s160;
    case 2:
      goto s159;
    }
    return false;
  }
s156:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(156, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s153;
    }
    P.consumeMatched(Parent);
    goto s153;
  }
s160:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 21) {
      LLStarParser::ColdMatch M = P.coldMismatch(160, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s161;
    }
    P.consumeMatched(Parent);
    goto s161;
  }
s159:
  if (!P.deadlineOk())
    return false;
  return true;
s161:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(161, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s159;
    }
    P.consumeMatched(Parent);
    goto s159;
  }
}

bool Rule5(LLStarParser &P, NodeRef Parent) { // varlist
  (void)P;
  (void)Parent;
  int64_t lm165 = -1;
  if (!P.deadlineOk())
    return false;
  goto s163;
s163:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(6, 0, 164, Parent))
    return false;
  goto s164;
s164:
  if (!P.deadlineOk())
    return false;
  goto s165;
s165:
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
        Alt = P.predictAtState(12, 165, Parent);
    } else {
      Alt = P.predictAtState(12, 165, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm165 < 0)
        lm165 = P.stream().index();
      else if (lm165 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm165 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s167;
    case 2:
      return true;
    }
    return false;
  }
s167:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(167, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s168;
    }
    P.consumeMatched(Parent);
    goto s168;
  }
s168:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(6, 0, 169, Parent))
    return false;
  goto s169;
s169:
  if (!P.deadlineOk())
    return false;
  goto s165;
}

bool Rule6(LLStarParser &P, NodeRef Parent) { // var
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s170;
s170:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(10, 0, 171, Parent))
    return false;
  goto s171;
s171:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule7(LLStarParser &P, NodeRef Parent) { // namelist
  (void)P;
  (void)Parent;
  int64_t lm174 = -1;
  if (!P.deadlineOk())
    return false;
  goto s172;
s172:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(172, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s174;
    }
    P.consumeMatched(Parent);
    goto s174;
  }
s174:
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
        Alt = P.predictAtState(13, 174, Parent);
    } else {
      Alt = P.predictAtState(13, 174, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm174 < 0)
        lm174 = P.stream().index();
      else if (lm174 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm174 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s176;
    case 2:
      return true;
    }
    return false;
  }
s176:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(176, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s177;
    }
    P.consumeMatched(Parent);
    goto s177;
  }
s177:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(177, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s174;
    }
    P.consumeMatched(Parent);
    goto s174;
  }
}

bool Rule8(LLStarParser &P, NodeRef Parent) { // explist
  (void)P;
  (void)Parent;
  int64_t lm181 = -1;
  if (!P.deadlineOk())
    return false;
  goto s179;
s179:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 180, Parent))
    return false;
  goto s180;
s180:
  if (!P.deadlineOk())
    return false;
  goto s181;
s181:
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
        Alt = P.predictAtState(14, 181, Parent);
    } else {
      Alt = P.predictAtState(14, 181, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm181 < 0)
        lm181 = P.stream().index();
      else if (lm181 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm181 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s183;
    case 2:
      return true;
    }
    return false;
  }
s183:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(183, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s184;
    }
    P.consumeMatched(Parent);
    goto s184;
  }
s184:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 185, Parent))
    return false;
  goto s185;
s185:
  if (!P.deadlineOk())
    return false;
  goto s181;
}

bool Rule9(LLStarParser &P, NodeRef Parent) { // exp
  (void)P;
  (void)Parent;
  int64_t lm218 = -1;
  if (!P.deadlineOk())
    return false;
  goto s187;
s187:
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
        Alt = P.predictAtState(15, 187, Parent);
    } else {
      Alt = P.predictAtState(15, 187, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s190;
    case 2:
      goto s199;
    case 3:
      goto s201;
    case 4:
      goto s203;
    case 5:
      goto s205;
    case 6:
      goto s207;
    case 7:
      goto s209;
    case 8:
      goto s211;
    case 9:
      goto s214;
    case 10:
      goto s216;
    }
    return false;
  }
s190:
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
        Alt = P.predictAtState(16, 190, Parent);
    } else {
      Alt = P.predictAtState(16, 190, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s192;
    case 2:
      goto s194;
    case 3:
      goto s196;
    }
    return false;
  }
s199:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 39) {
      LLStarParser::ColdMatch M = P.coldMismatch(199, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s188;
    }
    P.consumeMatched(Parent);
    goto s188;
  }
s201:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 40) {
      LLStarParser::ColdMatch M = P.coldMismatch(201, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s188;
    }
    P.consumeMatched(Parent);
    goto s188;
  }
s203:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 41) {
      LLStarParser::ColdMatch M = P.coldMismatch(203, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s188;
    }
    P.consumeMatched(Parent);
    goto s188;
  }
s205:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 42) {
      LLStarParser::ColdMatch M = P.coldMismatch(205, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s188;
    }
    P.consumeMatched(Parent);
    goto s188;
  }
s207:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 43) {
      LLStarParser::ColdMatch M = P.coldMismatch(207, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s188;
    }
    P.consumeMatched(Parent);
    goto s188;
  }
s209:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 44) {
      LLStarParser::ColdMatch M = P.coldMismatch(209, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s188;
    }
    P.consumeMatched(Parent);
    goto s188;
  }
s211:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 17) {
      LLStarParser::ColdMatch M = P.coldMismatch(211, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s212;
    }
    P.consumeMatched(Parent);
    goto s212;
  }
s214:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(10, 0, 215, Parent))
    return false;
  goto s215;
s216:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(16, 0, 217, Parent))
    return false;
  goto s217;
s192:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 23) {
      LLStarParser::ColdMatch M = P.coldMismatch(192, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s191;
    }
    P.consumeMatched(Parent);
    goto s191;
  }
s194:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 24) {
      LLStarParser::ColdMatch M = P.coldMismatch(194, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s191;
    }
    P.consumeMatched(Parent);
    goto s191;
  }
s196:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 25) {
      LLStarParser::ColdMatch M = P.coldMismatch(196, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s191;
    }
    P.consumeMatched(Parent);
    goto s191;
  }
s188:
  if (!P.deadlineOk())
    return false;
  goto s218;
s212:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(14, 0, 213, Parent))
    return false;
  goto s213;
s215:
  if (!P.deadlineOk())
    return false;
  goto s188;
s217:
  if (!P.deadlineOk())
    return false;
  goto s188;
s191:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 16, 198, Parent))
    return false;
  goto s198;
s218:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    Alt = P.predictAtState(17, 218, Parent);
    if (Alt < 0)
      return false;
    if (Alt != 8) {
      if (lm218 < 0)
        lm218 = P.stream().index();
      else if (lm218 == P.stream().index())
        Alt = 8; // no progress: exit
      else
        lm218 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s220;
    case 2:
      goto s224;
    case 3:
      goto s235;
    case 4:
      goto s244;
    case 5:
      goto s248;
    case 6:
      goto s265;
    case 7:
      goto s269;
    case 8:
      return true;
    }
    return false;
  }
s213:
  if (!P.deadlineOk())
    return false;
  goto s188;
s198:
  if (!P.deadlineOk())
    return false;
  goto s188;
s220:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(220))
    return false;
  goto s221;
s224:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(224))
    return false;
  goto s226;
s235:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(235))
    return false;
  goto s237;
s244:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(244))
    return false;
  goto s245;
s248:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(248))
    return false;
  goto s250;
s265:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(265))
    return false;
  goto s266;
s269:
  if (!P.deadlineOk())
    return false;
  if (!P.checkPredicateAt(269))
    return false;
  goto s270;
s221:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 22) {
      LLStarParser::ColdMatch M = P.coldMismatch(221, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s222;
    }
    P.consumeMatched(Parent);
    goto s222;
  }
s226:
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
        Alt = P.predictAtState(18, 226, Parent);
    } else {
      Alt = P.predictAtState(18, 226, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s228;
    case 2:
      goto s230;
    case 3:
      goto s232;
    }
    return false;
  }
s237:
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
        Alt = P.predictAtState(19, 237, Parent);
    } else {
      Alt = P.predictAtState(19, 237, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s239;
    case 2:
      goto s241;
    }
    return false;
  }
s245:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 30) {
      LLStarParser::ColdMatch M = P.coldMismatch(245, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s246;
    }
    P.consumeMatched(Parent);
    goto s246;
  }
s250:
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
        Alt = P.predictAtState(20, 250, Parent);
    } else {
      Alt = P.predictAtState(20, 250, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s252;
    case 2:
      goto s254;
    case 3:
      goto s256;
    case 4:
      goto s258;
    case 5:
      goto s260;
    case 6:
      goto s262;
    }
    return false;
  }
s266:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 37) {
      LLStarParser::ColdMatch M = P.coldMismatch(266, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s267;
    }
    P.consumeMatched(Parent);
    goto s267;
  }
s270:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 38) {
      LLStarParser::ColdMatch M = P.coldMismatch(270, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s271;
    }
    P.consumeMatched(Parent);
    goto s271;
  }
s222:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 16, 223, Parent))
    return false;
  goto s223;
s228:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 26) {
      LLStarParser::ColdMatch M = P.coldMismatch(228, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s227;
    }
    P.consumeMatched(Parent);
    goto s227;
  }
s230:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 27) {
      LLStarParser::ColdMatch M = P.coldMismatch(230, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s227;
    }
    P.consumeMatched(Parent);
    goto s227;
  }
s232:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 28) {
      LLStarParser::ColdMatch M = P.coldMismatch(232, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s227;
    }
    P.consumeMatched(Parent);
    goto s227;
  }
s239:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 29) {
      LLStarParser::ColdMatch M = P.coldMismatch(239, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s238;
    }
    P.consumeMatched(Parent);
    goto s238;
  }
s241:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 25) {
      LLStarParser::ColdMatch M = P.coldMismatch(241, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s238;
    }
    P.consumeMatched(Parent);
    goto s238;
  }
s246:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 12, 247, Parent))
    return false;
  goto s247;
s252:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 31) {
      LLStarParser::ColdMatch M = P.coldMismatch(252, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s251;
    }
    P.consumeMatched(Parent);
    goto s251;
  }
s254:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 32) {
      LLStarParser::ColdMatch M = P.coldMismatch(254, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s251;
    }
    P.consumeMatched(Parent);
    goto s251;
  }
s256:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 33) {
      LLStarParser::ColdMatch M = P.coldMismatch(256, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s251;
    }
    P.consumeMatched(Parent);
    goto s251;
  }
s258:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 34) {
      LLStarParser::ColdMatch M = P.coldMismatch(258, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s251;
    }
    P.consumeMatched(Parent);
    goto s251;
  }
s260:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 35) {
      LLStarParser::ColdMatch M = P.coldMismatch(260, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s251;
    }
    P.consumeMatched(Parent);
    goto s251;
  }
s262:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 36) {
      LLStarParser::ColdMatch M = P.coldMismatch(262, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s251;
    }
    P.consumeMatched(Parent);
    goto s251;
  }
s267:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 11, 268, Parent))
    return false;
  goto s268;
s271:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 10, 272, Parent))
    return false;
  goto s272;
s223:
  if (!P.deadlineOk())
    return false;
  goto s218;
s227:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 15, 234, Parent))
    return false;
  goto s234;
s238:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 14, 243, Parent))
    return false;
  goto s243;
s247:
  if (!P.deadlineOk())
    return false;
  goto s218;
s251:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 12, 264, Parent))
    return false;
  goto s264;
s268:
  if (!P.deadlineOk())
    return false;
  goto s218;
s272:
  if (!P.deadlineOk())
    return false;
  goto s218;
s234:
  if (!P.deadlineOk())
    return false;
  goto s218;
s243:
  if (!P.deadlineOk())
    return false;
  goto s218;
s264:
  if (!P.deadlineOk())
    return false;
  goto s218;
}

bool Rule10(LLStarParser &P, NodeRef Parent) { // prefixexp
  (void)P;
  (void)Parent;
  int64_t lm275 = -1;
  if (!P.deadlineOk())
    return false;
  goto s273;
s273:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(11, 0, 274, Parent))
    return false;
  goto s274;
s274:
  if (!P.deadlineOk())
    return false;
  goto s275;
s275:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    Alt = P.predictAtState(21, 275, Parent);
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm275 < 0)
        lm275 = P.stream().index();
      else if (lm275 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm275 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s277;
    case 2:
      return true;
    }
    return false;
  }
s277:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(12, 0, 278, Parent))
    return false;
  goto s278;
s278:
  if (!P.deadlineOk())
    return false;
  goto s275;
}

bool Rule11(LLStarParser &P, NodeRef Parent) { // primaryexp
  (void)P;
  (void)Parent;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict22(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(22, 22, Parent);
    } else {
      Alt = P.predictAtState(22, 22, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s279;
    case 2:
      goto s281;
    }
    return false;
  }
s279:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(279, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s281:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 45) {
      LLStarParser::ColdMatch M = P.coldMismatch(281, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s282;
    }
    P.consumeMatched(Parent);
    goto s282;
  }
s282:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 283, Parent))
    return false;
  goto s283;
s283:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 46) {
      LLStarParser::ColdMatch M = P.coldMismatch(283, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule12(LLStarParser &P, NodeRef Parent) { // suffix
  (void)P;
  (void)Parent;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict23(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(23, 24, Parent);
    } else {
      Alt = P.predictAtState(23, 24, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s285;
    case 2:
      goto s288;
    case 3:
      goto s292;
    case 4:
      goto s296;
    }
    return false;
  }
s285:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 20) {
      LLStarParser::ColdMatch M = P.coldMismatch(285, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s286;
    }
    P.consumeMatched(Parent);
    goto s286;
  }
s288:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 47) {
      LLStarParser::ColdMatch M = P.coldMismatch(288, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s289;
    }
    P.consumeMatched(Parent);
    goto s289;
  }
s292:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 21) {
      LLStarParser::ColdMatch M = P.coldMismatch(292, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s293;
    }
    P.consumeMatched(Parent);
    goto s293;
  }
s296:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(13, 0, 297, Parent))
    return false;
  goto s297;
s286:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(286, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s289:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 290, Parent))
    return false;
  goto s290;
s293:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(293, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s294;
    }
    P.consumeMatched(Parent);
    goto s294;
  }
s297:
  if (!P.deadlineOk())
    return false;
  return true;
s290:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 48) {
      LLStarParser::ColdMatch M = P.coldMismatch(290, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s294:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(13, 0, 295, Parent))
    return false;
  goto s295;
s295:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule13(LLStarParser &P, NodeRef Parent) { // args
  (void)P;
  (void)Parent;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict24(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(24, 26, Parent);
    } else {
      Alt = P.predictAtState(24, 26, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s298;
    case 2:
      goto s305;
    case 3:
      goto s307;
    }
    return false;
  }
s298:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 45) {
      LLStarParser::ColdMatch M = P.coldMismatch(298, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s300;
    }
    P.consumeMatched(Parent);
    goto s300;
  }
s305:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 43) {
      LLStarParser::ColdMatch M = P.coldMismatch(305, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s307:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(16, 0, 308, Parent))
    return false;
  goto s308;
s300:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict25(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(25, 300, Parent);
    } else {
      Alt = P.predictAtState(25, 300, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s302;
    case 2:
      goto s301;
    }
    return false;
  }
s308:
  if (!P.deadlineOk())
    return false;
  return true;
s302:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(8, 0, 303, Parent))
    return false;
  goto s303;
s301:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 46) {
      LLStarParser::ColdMatch M = P.coldMismatch(301, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s303:
  if (!P.deadlineOk())
    return false;
  goto s301;
}

bool Rule14(LLStarParser &P, NodeRef Parent) { // funcbody
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s309;
s309:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 45) {
      LLStarParser::ColdMatch M = P.coldMismatch(309, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s311;
    }
    P.consumeMatched(Parent);
    goto s311;
  }
s311:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict26(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(26, 311, Parent);
    } else {
      Alt = P.predictAtState(26, 311, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s313;
    case 2:
      goto s312;
    }
    return false;
  }
s313:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(15, 0, 314, Parent))
    return false;
  goto s314;
s312:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 46) {
      LLStarParser::ColdMatch M = P.coldMismatch(312, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s315;
    }
    P.consumeMatched(Parent);
    goto s315;
  }
s314:
  if (!P.deadlineOk())
    return false;
  goto s312;
s315:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(1, 0, 316, Parent))
    return false;
  goto s316;
s316:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 5) {
      LLStarParser::ColdMatch M = P.coldMismatch(316, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule15(LLStarParser &P, NodeRef Parent) { // parlist
  (void)P;
  (void)Parent;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict27(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(27, 30, Parent);
    } else {
      Alt = P.predictAtState(27, 30, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s318;
    case 2:
      goto s325;
    }
    return false;
  }
s318:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(7, 0, 319, Parent))
    return false;
  goto s319;
s325:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 44) {
      LLStarParser::ColdMatch M = P.coldMismatch(325, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s319:
  if (!P.deadlineOk())
    return false;
  goto s320;
s320:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict28(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(28, 320, Parent);
    } else {
      Alt = P.predictAtState(28, 320, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s322;
    case 2:
      goto s321;
    }
    return false;
  }
s322:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(322, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s323;
    }
    P.consumeMatched(Parent);
    goto s323;
  }
s321:
  if (!P.deadlineOk())
    return false;
  return true;
s323:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 44) {
      LLStarParser::ColdMatch M = P.coldMismatch(323, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s321;
    }
    P.consumeMatched(Parent);
    goto s321;
  }
}

bool Rule16(LLStarParser &P, NodeRef Parent) { // tableconstructor
  (void)P;
  (void)Parent;
  int64_t lm333 = -1;
  if (!P.deadlineOk())
    return false;
  goto s327;
s327:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 49) {
      LLStarParser::ColdMatch M = P.coldMismatch(327, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s329;
    }
    P.consumeMatched(Parent);
    goto s329;
  }
s329:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict29(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(29, 329, Parent);
    } else {
      Alt = P.predictAtState(29, 329, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s331;
    case 2:
      goto s330;
    }
    return false;
  }
s331:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(17, 0, 332, Parent))
    return false;
  goto s332;
s330:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 50) {
      LLStarParser::ColdMatch M = P.coldMismatch(330, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
s332:
  if (!P.deadlineOk())
    return false;
  goto s333;
s333:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict30(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(30, 333, Parent);
    } else {
      Alt = P.predictAtState(30, 333, Parent);
    }
    if (Alt < 0)
      return false;
    if (Alt != 2) {
      if (lm333 < 0)
        lm333 = P.stream().index();
      else if (lm333 == P.stream().index())
        Alt = 2; // no progress: exit
      else
        lm333 = P.stream().index();
    }
    switch (Alt) {
    case 1:
      goto s336;
    case 2:
      goto s343;
    }
    return false;
  }
s336:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict31(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(31, 336, Parent);
    } else {
      Alt = P.predictAtState(31, 336, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s338;
    case 2:
      goto s340;
    }
    return false;
  }
s343:
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict32(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(32, 343, Parent);
    } else {
      Alt = P.predictAtState(32, 343, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s345;
    case 2:
      goto s347;
    case 3:
      goto s344;
    }
    return false;
  }
s338:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(338, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s337;
    }
    P.consumeMatched(Parent);
    goto s337;
  }
s340:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(340, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s337;
    }
    P.consumeMatched(Parent);
    goto s337;
  }
s345:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 15) {
      LLStarParser::ColdMatch M = P.coldMismatch(345, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s344;
    }
    P.consumeMatched(Parent);
    goto s344;
  }
s347:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 2) {
      LLStarParser::ColdMatch M = P.coldMismatch(347, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s344;
    }
    P.consumeMatched(Parent);
    goto s344;
  }
s344:
  if (!P.deadlineOk())
    return false;
  goto s330;
s337:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(17, 0, 342, Parent))
    return false;
  goto s342;
s342:
  if (!P.deadlineOk())
    return false;
  goto s333;
}

bool Rule17(LLStarParser &P, NodeRef Parent) { // field
  (void)P;
  (void)Parent;
  {
    if (!P.deadlineOk())
      return false;
    int32_t Alt;
    if (P.fastPredict()) {
      const std::vector<Token> &Toks = P.stream().tokens();
      int64_t Depth = 0;
      Alt = Predict33(Toks.data(), int64_t(Toks.size()),
                     P.stream().index(), Depth);
      if (Alt < 0)
        Alt = P.predictAtState(33, 34, Parent);
    } else {
      Alt = P.predictAtState(33, 34, Parent);
    }
    if (Alt < 0)
      return false;
    switch (Alt) {
    case 1:
      goto s350;
    case 2:
      goto s356;
    case 3:
      goto s361;
    }
    return false;
  }
s350:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 47) {
      LLStarParser::ColdMatch M = P.coldMismatch(350, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s351;
    }
    P.consumeMatched(Parent);
    goto s351;
  }
s356:
  if (!P.deadlineOk())
    return false;
  goto s357;
s361:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 362, Parent))
    return false;
  goto s362;
s351:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 352, Parent))
    return false;
  goto s352;
s357:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(357, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s358;
    }
    P.consumeMatched(Parent);
    goto s358;
  }
s362:
  if (!P.deadlineOk())
    return false;
  return true;
s352:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 48) {
      LLStarParser::ColdMatch M = P.coldMismatch(352, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s353;
    }
    P.consumeMatched(Parent);
    goto s353;
  }
s358:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(358, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s359;
    }
    P.consumeMatched(Parent);
    goto s359;
  }
s353:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(353, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s354;
    }
    P.consumeMatched(Parent);
    goto s354;
  }
s359:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 360, Parent))
    return false;
  goto s360;
s354:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(9, 0, 355, Parent))
    return false;
  goto s355;
s360:
  if (!P.deadlineOk())
    return false;
  return true;
s355:
  if (!P.deadlineOk())
    return false;
  return true;
}

bool Rule18(LLStarParser &P, NodeRef Parent) { // __synpred1_stat
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s363;
s363:
  if (!P.deadlineOk())
    return false;
  if (!P.callRule(5, 0, 364, Parent))
    return false;
  goto s364;
s364:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(364, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule19(LLStarParser &P, NodeRef Parent) { // __synpred2_stat
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s366;
s366:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 13) {
      LLStarParser::ColdMatch M = P.coldMismatch(366, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s367;
    }
    P.consumeMatched(Parent);
    goto s367;
  }
s367:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(367, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s368;
    }
    P.consumeMatched(Parent);
    goto s368;
  }
s368:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(368, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        return true;
    }
    P.consumeMatched(Parent);
    return true;
  }
}

bool Rule20(LLStarParser &P, NodeRef Parent) { // __synpred3_field
  (void)P;
  (void)Parent;
  if (!P.deadlineOk())
    return false;
  goto s370;
s370:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 14) {
      LLStarParser::ColdMatch M = P.coldMismatch(370, Parent);
      if (M == LLStarParser::ColdMatch::Unwind)
        return false;
      if (M == LLStarParser::ColdMatch::Inserted)
        goto s371;
    }
    P.consumeMatched(Parent);
    goto s371;
  }
s371:
  {
    if (!P.deadlineOk())
      return false;
    if (P.stream().LA(1) != 3) {
      LLStarParser::ColdMatch M = P.coldMismatch(371, Parent);
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
    &Rule4, &Rule5, &Rule6, &Rule7,
    &Rule8, &Rule9, &Rule10, &Rule11,
    &Rule12, &Rule13, &Rule14, &Rule15,
    &Rule16, &Rule17, &Rule18, &Rule19,
    &Rule20,
};

const int32_t kLexNext[] = {
    -1, -1, -1, -1, -1, -1, -1, -1, -1, 1, 1, -1, -1, 1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    1, -1, 2, 3, -1, 4, -1, 5, 6, 7, 8, 9, 10, 11, 12, 13,
    14, 15, 15, 15, 15, 15, 15, 15, 15, 15, 16, 17, 18, 19, 20, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 22, -1, 23, 24, 21,
    -1, 25, 26, 21, 27, 28, 29, 21, 21, 30, 21, 21, 31, 21, 32, 33,
    21, 21, 34, 21, 35, 36, 21, 37, 21, 21, 21, 38, -1, 39, 40, -1,
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
    2, 2, 116, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2,
    2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2, 118, 2, 2, 2,
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
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, -1, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 116, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 117, 5, 5, 5,
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
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 115, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 113, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 106, -1,
    15, 15, 15, 15, 15, 15, 15, 15, 15, 15, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, 107, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, 111, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, 107, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, 111, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 106, -1,
    15, 15, 15, 15, 15, 15, 15, 15, 15, 15, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, 107, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, 107, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 105, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 104, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 103, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 101, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 97, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 96,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 89, 21, 90, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 76, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 77,
    21, 21, 21, 21, 21, 78, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 74, 21, 21, 21, 21, 21, 21, 21, 75, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 70,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 66, 21, 21, 21, 21, 21, 67,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 65, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 56, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 50, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 51, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 46, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 42, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 41, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 43, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 44, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 45, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 47, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 48, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 49, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 54, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 52, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 53, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 55, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    57, 21, 21, 21, 58, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 62, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 59, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 60, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 61, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 63, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 64, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 69, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 68, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 71, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 72, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 73, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 86, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 85, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 79, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 80, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 81, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 82, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 83,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 84, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 87, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 88, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 92, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 91, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 93, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 94, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 95, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 98, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 99, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 100, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 102, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1, -1,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, 21,
    -1, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21,
    21, 21, 21, 21, 21, 21, 21, 21, 21, 21, 21, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    110, 110, 110, 110, 110, 110, 110, 110, 110, 110, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 108, -1, 108, -1, -1,
    109, 109, 109, 109, 109, 109, 109, 109, 109, 109, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    109, 109, 109, 109, 109, 109, 109, 109, 109, 109, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    109, 109, 109, 109, 109, 109, 109, 109, 109, 109, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    110, 110, 110, 110, 110, 110, 110, 110, 110, 110, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, 107, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, 107, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    112, 112, 112, 112, 112, 112, 112, 112, 112, 112, -1, -1, -1, -1, -1, -1,
    -1, 112, 112, 112, 112, 112, 112, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, 112, 112, 112, 112, 112, 112, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    112, 112, 112, 112, 112, 112, 112, 112, 112, 112, -1, -1, -1, -1, -1, -1,
    -1, 112, 112, 112, 112, 112, 112, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, 112, 112, 112, 112, 112, 112, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, 114, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, -1, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115, 115,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
    -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1, -1,
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
    5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5,
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
    -1, 50, -1, 22, 26, -1, 41, 42, 24, 27, 13, 23, 18, 25, 48, 48,
    19, 1, 29, 2, 30, 47, 43, 44, 20, 47, 47, 47, 47, 47, 47, 47,
    47, 47, 47, 47, 47, 47, 45, 46, -1, 33, 47, 47, 47, 5, 47, 47,
    47, 7, 47, 47, 47, 38, 47, 9, 47, 47, 47, 47, 47, 0, 47, 47,
    6, 36, 47, 47, 21, 37, 47, 47, 47, 16, 8, 14, 47, 47, 47, 47,
    47, 47, 47, 47, 15, 12, 47, 47, 39, 47, 47, 4, 47, 11, 47, 10,
    3, 47, 47, 47, 17, 47, 35, 32, 34, 31, -1, -1, -1, 48, 48, -1,
    48, 28, 40, 51, 49, -1, -1,
};
const uint8_t kLexActions[] = {
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0,
    0, 0, 2, 2,
};
const int32_t kLexTypes[] = {
    1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 17,
    18, 19, 20, 21, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33,
    34, 35, 36, 37, 38, 39, 40, 41, 44, 45, 46, 47, 48, 49, 50, 14,
    42, 43, 51, 52,
};

} // namespace

extern const CompiledGrammarModule kModule_Lua;
const CompiledGrammarModule kModule_Lua = {
    /*GrammarName=*/"Lua",
    /*PayloadHash=*/0x2d4fad278ca90789ull,
    /*Native=*/kNative,
    /*Rules=*/kNativeRules,
    /*LexNext=*/kLexNext,
    /*LexAccept=*/kLexAccept,
    /*NumLexStates=*/119,
    /*LexActions=*/kLexActions,
    /*LexTypes=*/kLexTypes,
    /*NumLexTags=*/52,
};

} // namespace compiled
} // namespace llstar
