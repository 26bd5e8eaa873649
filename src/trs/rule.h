/// \file
/// Rewrite rules and the location-indexed application interface the RL
/// agent uses (§5.2): a rule may match many sub-expressions, so the agent
/// selects a rule first, then the ordinal of the match to rewrite.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ir/expr.h"
#include "trs/pattern.h"

namespace chehab::trs {

/// Classification used by ablations and docs.
enum class RuleKind : std::uint8_t {
    Vectorize,  ///< Packs scalar ops into vector ops.
    Simplify,   ///< Algebraic simplification (reduces ops/depth).
    Transform,  ///< Semantics-preserving reshaping (commutativity, ...).
    Rotation,   ///< Introduces or manipulates rotations.
    Balance,    ///< Tree balancing (reduces multiplicative depth).
};

/// One rewrite rule. Either pattern-based (LHS pattern + RHS template +
/// optional guard) or programmatic (an arbitrary function from subtree to
/// rewritten subtree), since several CHEHAB rules — balancing, rotation
/// reductions, non-isomorphic packing — are arity-generic and cannot be
/// expressed as a finite pattern.
class RewriteRule
{
  public:
    /// Guard over the match site and bindings; return false to veto.
    using Guard = std::function<bool(const Bindings&, const ir::ExprPtr&)>;

    /// Programmatic rewriter: return the replacement subtree or nullopt if
    /// the rule does not apply at this node.
    using Rewriter = std::function<std::optional<ir::ExprPtr>(
        const ir::ExprPtr&)>;

    /// Pattern-based rule from IR text, e.g.
    /// RewriteRule("comm-factor", "(+ (* ?a ?b) (* ?a ?c))",
    ///             "(* ?a (+ ?b ?c))", RuleKind::Simplify).
    RewriteRule(std::string name, const std::string& lhs_text,
                const std::string& rhs_text, RuleKind kind,
                Guard guard = nullptr);

    /// Programmatic rule.
    RewriteRule(std::string name, Rewriter rewriter, RuleKind kind,
                bool root_only = false);

    const std::string& name() const { return name_; }
    RuleKind kind() const { return kind_; }

    /// True if the rule may only fire at the root of the program (the
    /// widening reduction rules, which change the output vector width and
    /// would break the typing of any enclosing operator).
    bool rootOnly() const { return root_only_; }

    /// Attempt to rewrite exactly the given subtree (not its descendants).
    std::optional<ir::ExprPtr> applyToSubtree(const ir::ExprPtr& node) const;

    /// Pre-order indices of all nodes where the rule applies *and* the
    /// resulting whole program stays well typed. At most \p max_matches
    /// are returned (the location network has a fixed-width head).
    std::vector<int> findMatches(const ir::ExprPtr& root,
                                 int max_matches = 64) const;

    /// Rewrite the \p ordinal -th match (0-based, pre-order). Returns the
    /// new root, or nullptr if there are fewer matches.
    ir::ExprPtr applyAt(const ir::ExprPtr& root, int ordinal) const;

    /// Rewrite at pre-order node \p index, one findMatches() already
    /// returned for \p root, without scanning for matches again.
    /// Returns the new root, or nullptr if the rule does not apply there.
    ir::ExprPtr applyAtNode(const ir::ExprPtr& root, int index) const;

  private:
    std::string name_;
    RuleKind kind_;
    bool root_only_ = false;
    ir::ExprPtr lhs_;  ///< Pattern (null for programmatic rules).
    ir::ExprPtr rhs_;  ///< Template (null for programmatic rules).
    Guard guard_;
    Rewriter rewriter_;
};

} // namespace chehab::trs
