//===- perfbench/src/main.cpp - The parse-path benchmark ------------------===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
//
// Runs one workload and prints the figures as the last line of stdout:
//
//   perfbench --workload validate-data|parse-code|edit-typing|rpc-small
//             --seed N --seconds S --trace 0|1 [--root DIR] [--out DIR]
//             [--git-rev REV] [--source-digest HEX]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics and writes its spans to
// --out. See README.md for what each workload and metric means.
//
//===----------------------------------------------------------------------===//

#include "Harness.h"

#include "CompiledManifest.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sched.h>
#include <thread>
#include <vector>

using namespace perfbench;

std::string perfbench::machineJson(const Options &O) {
  char Buf[512];
  std::snprintf(Buf, sizeof(Buf),
                "{\"cores\":%u,\"compiler\":\"%s\",\"build_type\":\"%s\","
                "\"cpus_used\":\"%s\",\"git_rev\":\"%s\","
                "\"source_digest\":\"%s\"}",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, O.Cpus.c_str(), O.GitRev.c_str(),
                O.SourceDigest.c_str());
  return Buf;
}

namespace {

const char *const Workloads[] = {"validate-data", "parse-code", "edit-typing",
                                 "rpc-small"};

/// Confines the process to the last of the CPUs it may use; returns that
/// CPU, for the machine block ("all" if the kernel refuses).
std::string pinToOneCpu() {
  cpu_set_t Allowed;
  CPU_ZERO(&Allowed);
  if (sched_getaffinity(0, sizeof(Allowed), &Allowed) != 0)
    return "all";
  for (int C = CPU_SETSIZE - 1; C >= 0; --C) {
    if (!CPU_ISSET(C, &Allowed))
      continue;
    cpu_set_t Use;
    CPU_ZERO(&Use);
    CPU_SET(C, &Use);
    return sched_setaffinity(0, sizeof(Use), &Use) == 0 ? std::to_string(C)
                                                          : "all";
  }
  return "all";
}

RunResult runWorkload(Options &O) {
  // The single-threaded edit loop and the handoff-bound rpc loop run on one
  // CPU, so their figures do not depend on how the host schedules wakeups
  // across its virtual CPUs; the service workloads use every CPU.
  if (O.Workload == "edit-typing" || O.Workload == "rpc-small")
    O.Cpus = pinToOneCpu();
  Tracer T(O.Trace);
  RunResult R;
  if (O.Workload == "validate-data" || O.Workload == "parse-code")
    R = runServiceWorkload(O, T);
  else if (O.Workload == "edit-typing")
    R = runEditTyping(O, T);
  else
    R = runRpcSmall(O, T);
  for (const std::string &P : R.Problems)
    std::fprintf(stderr, "perfbench: %s: CHECK FAILED: %s\n",
                 O.Workload.c_str(), P.c_str());
  return R;
}

/// One result line: correct, attempted, failed and every metric.
void printResult(const RunResult &R) {
  std::string Metrics;
  for (const Metric &M : R.Metrics) {
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf), "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  Metrics.empty() ? "" : ",", M.Name.c_str(), M.Value,
                  M.Unit.c_str());
    Metrics += Buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,"
              "\"metrics\":{%s}}\n",
              R.correct() ? "true" : "false", (long long)R.Attempted,
              (long long)R.Failed, Metrics.c_str());
}

[[noreturn]] void usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "validate-data|parse-code|edit-typing|rpc-small --seed N "
               "--seconds S --trace 0|1 [--root DIR] [--out DIR] "
               "[--git-rev REV] [--source-digest HEX]\n",
               Why);
  std::exit(2);
}

Options parseArgs(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    if (A == "--workload")
      O.Workload = V;
    else if (A == "--seed")
      O.Seed = std::strtoull(V.c_str(), nullptr, 10);
    else if (A == "--seconds")
      O.Seconds = std::atof(V.c_str());
    else if (A == "--trace")
      O.Trace = V == "1";
    else if (A == "--root")
      O.Root = V;
    else if (A == "--out")
      O.OutDir = V;
    else if (A == "--git-rev")
      O.GitRev = V;
    else if (A == "--source-digest")
      O.SourceDigest = V;
    else
      usage(("unknown option " + A).c_str());
  }
  if (O.Seconds <= 0)
    usage("--seconds must be positive");
  return O;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O = parseArgs(Argc, Argv);
  if (std::find_if(std::begin(Workloads), std::end(Workloads),
                   [&](const char *W) { return O.Workload == W; }) ==
      std::end(Workloads))
    usage(("unknown workload '" + O.Workload + "'").c_str());
  llstar::compiled::registerShippedGrammars();

  RunResult R = runWorkload(O);
  std::printf("{\"machine\":%s}\n", machineJson(O).c_str());
  printResult(R);
  std::fflush(stdout);
  return R.correct() ? 0 : 1;
}
