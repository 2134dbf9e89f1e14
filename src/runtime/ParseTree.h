//===- runtime/ParseTree.h - Concrete parse trees ---------------*- C++ -*-===//
//
// Part of the llstar project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete syntax trees built by the LL(*) and packrat parsers during
/// non-speculative parsing. Nodes are either rule applications or token
/// leaves. A leaf holds a copy of its token, whose text still views the
/// lexer's input (lexer/Token.h): a tree must not outlive that input.
///
//===----------------------------------------------------------------------===//

#ifndef LLSTAR_RUNTIME_PARSETREE_H
#define LLSTAR_RUNTIME_PARSETREE_H

#include "grammar/Grammar.h"
#include "lexer/Token.h"

#include <cassert>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace llstar {

/// How an error leaf came to be. Error leaves are emitted by the
/// error-recovering runtime (src/recover) and render as `(error ...)`;
/// ParseTree and ArenaParseTree produce byte-identical renderings.
enum class ErrorNodeKind : uint8_t {
  None,    ///< not an error node
  Skipped, ///< a real input token deleted or panic-skipped during recovery
  Missing, ///< a conjured token (single-token insertion)
  Marker,  ///< zero-width marker: recovery re-synced without consuming
};

/// One parse-tree node.
class ParseTree {
public:
  static std::unique_ptr<ParseTree> ruleNode(int32_t RuleIndex) {
    auto N = std::make_unique<ParseTree>();
    N->RuleIdx = RuleIndex;
    return N;
  }
  static std::unique_ptr<ParseTree> tokenNode(const Token &Tok) {
    auto N = std::make_unique<ParseTree>();
    N->IsToken = true;
    N->Tok = Tok;
    return N;
  }
  /// An error leaf. \p Tok carries the exact source span: the skipped
  /// token itself, or for Missing/Marker nodes the token at the repair
  /// point (Missing nodes carry the conjured type and a synthetic
  /// `<missing X>` text).
  static std::unique_ptr<ParseTree> errorNode(const Token &Tok,
                                              ErrorNodeKind Kind) {
    auto N = std::make_unique<ParseTree>();
    N->IsToken = true;
    N->ErrKind = Kind;
    N->Tok = Tok;
    return N;
  }

  bool isToken() const { return IsToken; }
  bool isError() const { return ErrKind != ErrorNodeKind::None; }
  ErrorNodeKind errorKind() const { return ErrKind; }
  int32_t ruleIndex() const { return RuleIdx; }
  const Token &token() const { return Tok; }
  /// Replaces a token leaf's payload; the incremental runtime refreshes
  /// reused leaves this way when an edit shifted the retained suffix.
  void setToken(const Token &T) {
    assert(IsToken && "not a token leaf");
    Tok = T;
  }

  /// The node owning this one, null for a root (or a detached subtree).
  /// Links are maintained by addChild; child slots never move once the
  /// parent's rule finished, which is what lets the incremental runtime
  /// detach a recorded subtree in O(1).
  ParseTree *parent() const { return Parent; }
  /// This node's index in parent()->children().
  uint32_t parentSlot() const { return Slot; }

  ParseTree *addChild(std::unique_ptr<ParseTree> Child) {
    Child->Parent = this;
    Child->Slot = uint32_t(Children.size());
    Children.push_back(std::move(Child));
    return Children.back().get();
  }
  /// Detaches child \p I, leaving an empty slot (null if already taken or
  /// out of range). Only trees about to be discarded grow holes — the
  /// incremental runtime steals subtrees out of the previous parse's tree
  /// while building the replacement; renderings and counts skip holes.
  /// Stored counts (\ref storeCounts) of this node and its ancestors no
  /// longer hold once a child is gone, so they are cleared.
  std::unique_ptr<ParseTree> releaseChild(uint32_t I) {
    if (I >= Children.size())
      return nullptr;
    std::unique_ptr<ParseTree> Out = std::move(Children[I]);
    if (Out) {
      Out->Parent = nullptr;
      for (ParseTree *A = this; A && A->CountedNodes; A = A->Parent)
        A->CountedNodes = A->CountedErrors = 0;
    }
    return Out;
  }
  /// Drops children from index \p N on; speculative parsers roll back with
  /// this after a failed attempt.
  void truncateChildren(size_t N) {
    if (N < Children.size())
      Children.resize(N);
  }
  /// Moves all children out (splicing helper for scratch nodes).
  std::vector<std::unique_ptr<ParseTree>> takeChildren() {
    return std::move(Children);
  }
  const std::vector<std::unique_ptr<ParseTree>> &children() const {
    return Children;
  }
  ParseTree *child(size_t I) const { return Children[I].get(); }
  size_t numChildren() const { return Children.size(); }

  /// Total number of nodes in this subtree.
  size_t size() const {
    size_t N = 1;
    for (const auto &C : Children)
      if (C)
        N += C->size();
    return N;
  }

  /// Number of token leaves in this subtree. Error leaves do not count:
  /// they are repair artifacts, not matched input.
  size_t numTokens() const {
    if (IsToken)
      return isError() ? 0 : 1;
    size_t N = 0;
    for (const auto &C : Children)
      if (C)
        N += C->numTokens();
    return N;
  }

  /// Number of error leaves in this subtree.
  size_t numErrorNodes() const {
    size_t N = isError() ? 1 : 0;
    for (const auto &C : Children)
      if (C)
        N += C->numErrorNodes();
    return N;
  }

  /// Node and error-leaf counts of this subtree as stored by
  /// \ref storeCounts, or false when none are stored. The tree's owner
  /// stores them once a parse finished: a finished subtree keeps its
  /// shape (only releaseChild changes it, and that clears them), so an
  /// incremental session that splices it into later trees counts only
  /// the nodes each parse built fresh. size() and numErrorNodes() never
  /// consult them.
  bool storedCounts(size_t &Nodes, size_t &Errors) const {
    Nodes = CountedNodes;
    Errors = CountedErrors;
    return CountedNodes != 0;
  }
  void storeCounts(size_t Nodes, size_t Errors) {
    assert(Nodes != 0 && Nodes <= UINT32_MAX && Errors <= Nodes &&
           "a subtree has at least one node");
    CountedNodes = uint32_t(Nodes);
    CountedErrors = uint32_t(Errors);
  }

  /// LISP-style rendering: `(rule child1 child2)`, token leaves as text,
  /// error leaves as `(error <text>)` (`(error)` for zero-width markers).
  std::string str(const Grammar &G) const {
    if (IsToken) {
      if (ErrKind == ErrorNodeKind::None)
        return std::string(Tok.Text);
      if (ErrKind == ErrorNodeKind::Marker)
        return "(error)";
      return "(error " + std::string(Tok.Text) + ")";
    }
    std::string Out = "(" + G.rule(RuleIdx).Name;
    for (const auto &C : Children) {
      if (!C)
        continue;
      Out += " ";
      Out += C->str(G);
    }
    Out += ")";
    return Out;
  }

private:
  bool IsToken = false;
  ErrorNodeKind ErrKind = ErrorNodeKind::None;
  int32_t RuleIdx = -1;
  uint32_t Slot = 0;
  uint32_t CountedNodes = 0; ///< 0 = no counts stored
  uint32_t CountedErrors = 0;
  ParseTree *Parent = nullptr;
  Token Tok;
  std::vector<std::unique_ptr<ParseTree>> Children;
};

} // namespace llstar

#endif // LLSTAR_RUNTIME_PARSETREE_H
