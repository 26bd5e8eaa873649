#include "trs/rule.h"

#include "ir/analysis.h"
#include "ir/parser.h"

namespace chehab::trs {

using ir::ExprPtr;

RewriteRule::RewriteRule(std::string name, const std::string& lhs_text,
                         const std::string& rhs_text, RuleKind kind,
                         Guard guard)
    : name_(std::move(name)),
      kind_(kind),
      lhs_(ir::parse(lhs_text)),
      rhs_(ir::parse(rhs_text)),
      guard_(std::move(guard))
{}

RewriteRule::RewriteRule(std::string name, Rewriter rewriter, RuleKind kind,
                         bool root_only)
    : name_(std::move(name)),
      kind_(kind),
      root_only_(root_only),
      rewriter_(std::move(rewriter))
{}

std::optional<ExprPtr>
RewriteRule::applyToSubtree(const ExprPtr& node) const
{
    if (rewriter_) return rewriter_(node);
    Bindings bindings;
    if (!matchPattern(lhs_, node, bindings)) return std::nullopt;
    if (guard_ && !guard_(bindings, node)) return std::nullopt;
    return substitute(rhs_, bindings);
}

std::vector<int>
RewriteRule::findMatches(const ExprPtr& root, int max_matches) const
{
    std::vector<int> matches;
    const int limit = root_only_ ? 1 : root->numNodes();
    for (int index = 0; index < limit; ++index) {
        if (static_cast<int>(matches.size()) >= max_matches) break;
        const ExprPtr node = ir::subtreeAt(root, index);
        auto rewritten = applyToSubtree(node);
        if (!rewritten) continue;
        // The rewrite must leave the whole program well typed; widening
        // rewrites inside an enclosing operator would not. Rewrites apply
        // DAG-style: every structurally identical occurrence changes.
        const ExprPtr candidate =
            index == 0 ? *rewritten
                       : ir::replaceAll(root, node, *rewritten);
        if (ir::wellTyped(candidate)) matches.push_back(index);
    }
    return matches;
}

ir::ExprPtr
RewriteRule::applyAt(const ExprPtr& root, int ordinal) const
{
    const std::vector<int> matches = findMatches(root, ordinal + 1);
    if (ordinal >= static_cast<int>(matches.size())) return nullptr;
    return applyAtNode(root, matches[static_cast<std::size_t>(ordinal)]);
}

ir::ExprPtr
RewriteRule::applyAtNode(const ExprPtr& root, int index) const
{
    const ExprPtr node = ir::subtreeAt(root, index);
    auto rewritten = applyToSubtree(node);
    if (!rewritten) return nullptr;
    return index == 0 ? *rewritten
                      : ir::replaceAll(root, node, *rewritten);
}

} // namespace chehab::trs
