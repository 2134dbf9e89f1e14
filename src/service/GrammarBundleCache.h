//===- service/GrammarBundleCache.h - Shared grammar bundles ----*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The grammar side of the batch parsing service. LL(*) analysis output is
/// immutable once constructed — exactly the artifact to build (or load)
/// once and share across every concurrent parse. A \ref GrammarBundle
/// packages an analyzed grammar with its compiled lexer behind `const`
/// accessors; a \ref GrammarBundleCache hands out shared ownership of
/// bundles keyed by the content hash of their bytes, so N requests against
/// the same grammar pay for one analysis (or one bundle load), not N.
///
/// Sources of bundles:
///   - grammar source text (analyzed on first use), and
///   - serialized bundle bytes in the versioned `llstarbundle` container
///     (see codegen/Serializer.h), verified and rejected cleanly when
///     truncated, bit-flipped, or of an unsupported version.
///
/// Thread-safety: all cache methods may be called concurrently. Bundles
/// are immutable after construction; AnalyzedGrammar::analyze/fromParts
/// freeze the grammar's lazy caches, so concurrent const use from worker
/// threads is data-race-free.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_SERVICE_GRAMMARBUNDLECACHE_H
#define LLSTAR_SERVICE_GRAMMARBUNDLECACHE_H

#include "analysis/AnalyzedGrammar.h"
#include "compiled/CompiledRegistry.h"
#include "lexer/Lexer.h"
#include "support/Diagnostics.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace llstar {

/// An immutable, shareable grammar package: analysis tables plus a
/// compiled tokenizer. Construct through GrammarBundleCache (or
/// \ref makeGrammarBundle for uncached one-offs).
class GrammarBundle {
public:
  const AnalyzedGrammar &analyzed() const { return *AG; }
  const Grammar &grammar() const { return AG->grammar(); }

  /// Tokenizes \p Input with the bundle's compiled lexer. Safe to call
  /// from many threads at once.
  std::vector<Token> tokenize(std::string_view Input,
                              DiagnosticEngine &Diags) const {
    return Lex->tokenize(Input, Diags);
  }

  /// The bundle's compiled lexer. Incremental sessions re-lex damaged
  /// windows with the same DFA tables full tokenization uses, so spliced
  /// token streams are indistinguishable from \ref tokenize output.
  const Lexer &lexer() const { return *Lex; }

  /// Content hash of the bytes this bundle was built from (the cache key).
  uint64_t contentHash() const { return Hash; }
  const std::string &name() const { return AG->grammar().Name; }

  /// The registered native module for this grammar when its payload hash
  /// matches (resolved on first request; the grammar's own tables and no
  /// generated code otherwise). Thread-safe; every later call returns the
  /// same resolution.
  const compiled::CompiledResolution &compiledTables() const;

private:
  friend class GrammarBundleCache;
  friend std::shared_ptr<const GrammarBundle>
  makeGrammarBundle(std::string_view, DiagnosticEngine &);

  GrammarBundle() = default;

  std::unique_ptr<AnalyzedGrammar> AG;
  std::unique_ptr<Lexer> Lex;
  uint64_t Hash = 0;
  mutable std::once_flag CompiledOnce;
  mutable compiled::CompiledResolution Compiled;
};

/// Builds a bundle from grammar source text or `llstarbundle` bytes
/// (sniffed), bypassing any cache. Returns null with diagnostics on error.
std::shared_ptr<const GrammarBundle>
makeGrammarBundle(std::string_view Bytes, DiagnosticEngine &Diags);

/// A thread-safe cache of grammar bundles keyed by content hash.
class GrammarBundleCache {
public:
  struct CacheStats {
    int64_t Hits = 0;
    int64_t Misses = 0;
    int64_t LoadFailures = 0;
    size_t Entries = 0;
  };

  /// Returns the bundle for \p Bytes — grammar source text or serialized
  /// `llstarbundle` bytes, distinguished by the container magic. Loads and
  /// caches on first sight of the content; later identical content is a
  /// hash lookup. Returns null (with diagnostics in \p Diags) when the
  /// bytes don't load; failures are not cached.
  std::shared_ptr<const GrammarBundle> get(std::string_view Bytes,
                                           DiagnosticEngine &Diags);

  /// Convenience: reads \p Path and calls \ref get.
  std::shared_ptr<const GrammarBundle> getFile(const std::string &Path,
                                               DiagnosticEngine &Diags);

  CacheStats stats() const;
  void clear();

private:
  mutable std::mutex Mu;
  std::unordered_map<uint64_t, std::shared_ptr<const GrammarBundle>> Map;
  CacheStats Stats;
};

} // namespace llstar

#endif // LLSTAR_SERVICE_GRAMMARBUNDLECACHE_H
