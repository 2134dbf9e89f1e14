//===- tools/llstard.cpp - Networked parse daemon -------------------------===//
//
// The `llstard` daemon: the ParseService behind a TCP socket speaking the
// record-marked binary protocol of net/WireFormat.h.
//
//   llstard [grammar.g|bundle.llb ...] [options]
//
// Grammars named on the command line are preloaded into the bundle cache
// (the last one becomes the default for requests with bundle hash 0);
// clients can load more over the wire with the LoadBundle opcode. SIGTERM
// and SIGINT trigger a graceful drain: in-flight requests finish and
// their replies flush before the listener goes down.
//
//===----------------------------------------------------------------------===//

#include "CompiledManifest.h"
#include "net/Daemon.h"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <sys/select.h>
#include <unistd.h>
#include <vector>

using namespace llstar;
using namespace llstar::net;

namespace {

int usage() {
  std::fprintf(
      stderr,
      "usage: llstard [grammar.g|bundle.llb ...] [options]\n"
      "  --bind ADDR       address to bind (default 127.0.0.1)\n"
      "  --port N          TCP port (default 0 = ephemeral)\n"
      "  --port-file F     write the bound port to F (for port 0)\n"
      "  --threads N       parse worker threads (default: hardware)\n"
      "  --queue N         service queue capacity (default 1024)\n"
      "  --deadline-ms D   default per-request parse deadline\n"
      "  --max-tokens N    reject inputs longer than N tokens\n"
      "  --max-inflight N  per-connection pipeline cap (default 256)\n"
      "  --once-drained    exit once a client sends the Drain opcode\n");
  return 2;
}

bool readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  std::ostringstream Buffer;
  Buffer << In.rdbuf();
  Out = Buffer.str();
  return true;
}

// Signal handlers may only do async-signal-safe work: write a byte to a
// self-pipe and let main() do the actual drain.
int SignalPipe[2] = {-1, -1};

void onSignal(int) {
  char Byte = 1;
  ssize_t Ignored = ::write(SignalPipe[1], &Byte, 1);
  (void)Ignored;
}

} // namespace

int main(int Argc, char **Argv) {
  std::vector<std::string> Args(Argv + 1, Argv + Argc);

  DaemonConfig Config;
  std::vector<std::string> GrammarPaths;
  std::string PortFile;
  bool OnceDrained = false;

  for (size_t I = 0; I < Args.size(); ++I) {
    const std::string &A = Args[I];
    auto Value = [&](int64_t &Out) {
      if (I + 1 >= Args.size())
        return false;
      Out = std::atoll(Args[++I].c_str());
      return true;
    };
    int64_t V;
    if (A == "--bind" && I + 1 < Args.size())
      Config.BindAddress = Args[++I];
    else if (A == "--port" && Value(V))
      Config.Port = uint16_t(V);
    else if (A == "--port-file" && I + 1 < Args.size())
      PortFile = Args[++I];
    else if (A == "--threads" && Value(V))
      Config.Service.Threads = int(V);
    else if (A == "--queue" && Value(V))
      Config.Service.QueueCapacity = size_t(std::max<int64_t>(V, 1));
    else if (A == "--deadline-ms" && Value(V))
      Config.Service.DefaultDeadline = std::chrono::milliseconds(V);
    else if (A == "--max-tokens" && Value(V))
      Config.Service.MaxTokens = V;
    else if (A == "--max-inflight" && Value(V))
      Config.MaxInFlightPerConn = size_t(std::max<int64_t>(V, 1));
    else if (A == "--once-drained")
      OnceDrained = true;
    else if (!A.empty() && A[0] == '-')
      return usage();
    else
      GrammarPaths.push_back(A);
  }

  // Requests run a shipped grammar's native module when its payload hash
  // matches.
  Config.Service.UseCompiled = true;
  compiled::registerShippedGrammars();

  Daemon Server(Config);

  for (const std::string &Path : GrammarPaths) {
    std::string Bytes;
    if (!readFile(Path, Bytes)) {
      std::fprintf(stderr, "error: cannot read %s\n", Path.c_str());
      return 1;
    }
    DiagnosticEngine Diags;
    auto Bundle = Server.loadBundleBytes(Bytes, Diags);
    if (!Bundle) {
      std::fprintf(stderr, "error: failed to load %s\n%s", Path.c_str(),
                   Diags.str().c_str());
      return 1;
    }
    std::fprintf(stderr, "llstard: loaded %s (hash %llu) from %s\n",
                 Bundle->name().c_str(),
                 (unsigned long long)Bundle->contentHash(), Path.c_str());
  }

  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "llstard: listening on %s:%u (%d worker threads)\n",
               Config.BindAddress.c_str(), unsigned(Server.port()),
               Server.service().threads());

  if (!PortFile.empty()) {
    std::ofstream Out(PortFile);
    if (!Out) {
      std::fprintf(stderr, "error: cannot write %s\n", PortFile.c_str());
      return 1;
    }
    Out << Server.port() << "\n";
  }

  if (::pipe(SignalPipe) != 0) {
    std::fprintf(stderr, "error: pipe failed\n");
    return 1;
  }
  struct sigaction Sa {};
  Sa.sa_handler = onSignal;
  sigemptyset(&Sa.sa_mask);
  sigaction(SIGTERM, &Sa, nullptr);
  sigaction(SIGINT, &Sa, nullptr);

  // Block until a signal arrives (or, with --once-drained, a client asks
  // for the drain — poll the flag so CI scripts can shut the daemon down
  // over the wire without process signalling).
  if (OnceDrained) {
    timeval Tv;
    while (!Server.draining()) {
      fd_set Fds;
      FD_ZERO(&Fds);
      FD_SET(SignalPipe[0], &Fds);
      Tv.tv_sec = 0;
      Tv.tv_usec = 50 * 1000;
      int N = ::select(SignalPipe[0] + 1, &Fds, nullptr, nullptr, &Tv);
      if (N > 0)
        break;
    }
  } else {
    char Byte;
    ssize_t Ignored = ::read(SignalPipe[0], &Byte, 1);
    (void)Ignored;
  }

  std::fprintf(stderr, "llstard: draining...\n");
  Server.drain();
  Server.stop();
  std::fprintf(stderr, "llstard: stopped\n");
  return 0;
}
