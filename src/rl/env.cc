#include "rl/env.h"

#include "support/error.h"

namespace chehab::rl {

RewriteEnv::RewriteEnv(const trs::Ruleset& ruleset, EnvConfig config)
    : ruleset_(&ruleset), config_(config)
{
    matches_.resize(ruleset_->size());
    match_counts_.assign(ruleset_->size() + 1, 0);
}

void
RewriteEnv::reset(ir::ExprPtr program)
{
    program_ = std::move(program);
    initial_cost_ = ir::cost(program_, config_.weights, config_.costs);
    current_cost_ = initial_cost_;
    steps_ = 0;
    done_ = false;
    refreshMatches();
}

void
RewriteEnv::refreshMatches()
{
    for (std::size_t r = 0; r < ruleset_->size(); ++r) {
        matches_[r] = (*ruleset_)[r].findMatches(program_,
                                                 config_.max_locations);
        match_counts_[r] = static_cast<int>(matches_[r].size());
    }
    match_counts_[ruleset_->size()] = 1; // END always available.
}

double
RewriteEnv::terminalReward() const
{
    if (initial_cost_ <= 0.0) return 0.0;
    return (initial_cost_ - current_cost_) / initial_cost_ *
           config_.terminal_scale;
}

StepResult
RewriteEnv::step(int rule, int location)
{
    CHEHAB_ASSERT(!done_, "step() on a finished episode");
    StepResult result;
    ++steps_;

    if (rule == endAction()) {
        result.done = true;
        result.applied = true;
        if (config_.use_terminal_reward) result.reward += terminalReward();
        done_ = true;
        return result;
    }

    CHEHAB_ASSERT(rule >= 0 && rule < numRules(), "rule index range");
    const auto r = static_cast<std::size_t>(rule);
    ir::ExprPtr next;
    if (location >= 0 && location < match_counts_[r]) {
        next = (*ruleset_)[r].applyAtNode(
            program_, matches_[r][static_cast<std::size_t>(location)]);
    }
    if (next) {
        const double next_cost =
            ir::cost(next, config_.weights, config_.costs);
        if (config_.use_step_reward && current_cost_ > 0.0) {
            result.reward += (current_cost_ - next_cost) / current_cost_;
        }
        program_ = std::move(next);
        current_cost_ = next_cost;
        result.applied = true;
        refreshMatches();
    } else {
        // Masked policies never get here, but the env stays well defined.
        result.reward += config_.invalid_penalty;
    }

    if (steps_ >= config_.max_steps) {
        result.done = true;
        if (config_.use_terminal_reward) result.reward += terminalReward();
        done_ = true;
    }
    return result;
}

} // namespace chehab::rl
