#include "trs/rewriter.h"

namespace chehab::trs {

using ir::ExprPtr;

std::vector<RuleMatches>
enumerateActions(const Ruleset& ruleset, const ExprPtr& program,
                 int max_locations)
{
    std::vector<RuleMatches> actions;
    for (std::size_t r = 0; r < ruleset.size(); ++r) {
        std::vector<int> locations =
            ruleset[r].findMatches(program, max_locations);
        if (!locations.empty()) {
            actions.push_back({static_cast<int>(r), std::move(locations)});
        }
    }
    return actions;
}

OptimizeResult
greedyOptimize(const Ruleset& ruleset, const ExprPtr& program,
               const ir::CostWeights& weights, const ir::OpCosts& costs,
               int max_steps, int max_locations)
{
    OptimizeResult result;
    result.program = program;
    result.initial_cost = ir::cost(program, weights, costs);

    double current_cost = result.initial_cost;
    for (int step = 0; step < max_steps; ++step) {
        ExprPtr best;
        double best_cost = current_cost;
        int best_rule = -1;
        for (std::size_t r = 0; r < ruleset.size(); ++r) {
            for (const int index :
                 ruleset[r].findMatches(result.program, max_locations)) {
                ExprPtr candidate =
                    ruleset[r].applyAtNode(result.program, index);
                if (!candidate) continue;
                const double candidate_cost =
                    ir::cost(candidate, weights, costs);
                if (candidate_cost < best_cost) {
                    best_cost = candidate_cost;
                    best = std::move(candidate);
                    best_rule = static_cast<int>(r);
                }
            }
        }
        if (!best) break; // Local optimum: no strict improvement available.
        result.program = std::move(best);
        current_cost = best_cost;
        ++result.steps;
        result.trace.push_back(ruleset[static_cast<std::size_t>(best_rule)]
                                   .name());
    }
    result.final_cost = current_cost;
    return result;
}

} // namespace chehab::trs
