#include "rl/policy.h"

#include <cmath>

#include "support/error.h"

namespace chehab::rl {

using nn::Tensor;

Policy::Policy(const PolicyConfig& config, Rng& rng) : config_(config)
{
    CHEHAB_ASSERT(config_.num_rules > 0, "policy needs rules");
    if (config_.encoder_kind == EncoderKind::Transformer) {
        transformer_ = nn::TransformerEncoder(config_.encoder, rng);
    } else {
        gru_ = nn::GruEncoder(config_.encoder, rng);
    }

    const int d = config_.encoder.d_model;
    const int num_actions =
        config_.hierarchical
            ? config_.num_rules + 1
            : config_.num_rules * config_.max_locations + 1;

    std::vector<int> rule_sizes{d};
    for (int h : config_.rule_hidden) rule_sizes.push_back(h);
    rule_sizes.push_back(num_actions);
    rule_net_ = nn::Mlp(rule_sizes, rng);

    if (config_.hierarchical) {
        std::vector<int> loc_sizes{d + config_.num_rules + 1};
        for (int h : config_.loc_hidden) loc_sizes.push_back(h);
        loc_sizes.push_back(config_.max_locations);
        loc_net_ = nn::Mlp(loc_sizes, rng);
    }

    std::vector<int> critic_sizes{d};
    for (int h : config_.critic_hidden) critic_sizes.push_back(h);
    critic_sizes.push_back(1);
    critic_ = nn::Mlp(critic_sizes, rng);
}

Tensor
Policy::embed(const std::vector<int>& ids) const
{
    return config_.encoder_kind == EncoderKind::Transformer
               ? transformer_.encode(ids)
               : gru_.encode(ids);
}

Tensor
Policy::ruleLogProbs(const Tensor& embedding,
                     const std::vector<int>& match_counts) const
{
    const Tensor logits = rule_net_.forward(embedding);
    std::vector<float> mask(static_cast<std::size_t>(logits.cols()), 0.0f);
    for (int r = 0; r < config_.num_rules; ++r) {
        if (match_counts[static_cast<std::size_t>(r)] <= 0) {
            mask[static_cast<std::size_t>(r)] = -1e9f;
        }
    }
    return nn::logSoftmaxRows(nn::addConstMask(logits, mask));
}

Tensor
Policy::locationLogProbs(const Tensor& embedding, int rule, int count) const
{
    std::vector<float> onehot(
        static_cast<std::size_t>(config_.num_rules) + 1, 0.0f);
    onehot[static_cast<std::size_t>(rule)] = 1.0f;
    const Tensor rule_feat =
        Tensor::fromData(1, config_.num_rules + 1, std::move(onehot));
    const Tensor logits =
        loc_net_.forward(nn::concatCols(embedding, rule_feat));
    std::vector<float> mask(static_cast<std::size_t>(config_.max_locations),
                            0.0f);
    for (int l = count; l < config_.max_locations; ++l) {
        mask[static_cast<std::size_t>(l)] = -1e9f;
    }
    return nn::logSoftmaxRows(nn::addConstMask(logits, mask));
}

Tensor
Policy::flatLogProbs(const Tensor& embedding,
                     const std::vector<int>& match_counts) const
{
    const Tensor logits = rule_net_.forward(embedding);
    std::vector<float> mask(static_cast<std::size_t>(logits.cols()), 0.0f);
    for (int r = 0; r < config_.num_rules; ++r) {
        const int count = match_counts[static_cast<std::size_t>(r)];
        for (int l = 0; l < config_.max_locations; ++l) {
            if (l >= count) {
                mask[static_cast<std::size_t>(
                    r * config_.max_locations + l)] = -1e9f;
            }
        }
    }
    return nn::logSoftmaxRows(nn::addConstMask(logits, mask));
}

namespace {

int
sampleFromLogProbs(const Tensor& log_probs, Rng& rng, bool greedy)
{
    const auto& data = log_probs.data();
    if (greedy) {
        int best = 0;
        for (int i = 1; i < log_probs.cols(); ++i) {
            if (data[static_cast<std::size_t>(i)] >
                data[static_cast<std::size_t>(best)]) {
                best = i;
            }
        }
        return best;
    }
    const double u = rng.uniformReal();
    double cumulative = 0.0;
    for (int i = 0; i < log_probs.cols(); ++i) {
        cumulative += std::exp(static_cast<double>(
            data[static_cast<std::size_t>(i)]));
        if (u < cumulative) return i;
    }
    return log_probs.cols() - 1;
}

/// H = -sum p log p from a log-prob row.
nn::Tensor
entropyOf(const Tensor& log_probs)
{
    // -Σ exp(lp) * lp. exp(lp) via softmax of lp == exp(lp) since lp is
    // already normalized; reuse mulElem on exp values treated as constant
    // weights would bias gradients, so compute it differentiably:
    // H = -Σ softmax(lp) ⊙ lp where softmax over log-probs reproduces the
    // probabilities (log-probs are shift-invariant inputs to softmax).
    const Tensor probs = nn::softmaxRows(log_probs);
    return nn::scale(nn::sumAll(nn::mulElem(probs, log_probs)), -1.0f);
}

} // namespace

ActionSample
Policy::sample(const std::vector<int>& ids,
               const std::vector<int>& match_counts, Rng& rng,
               bool greedy) const
{
    const nn::NoGradGuard no_grad;
    const Tensor embedding = embed(ids);
    ActionSample action;
    action.value = critic_.forward(embedding).item();

    if (config_.hierarchical) {
        const Tensor rule_lp = ruleLogProbs(embedding, match_counts);
        action.rule = sampleFromLogProbs(rule_lp, rng, greedy);
        action.log_prob =
            rule_lp.data()[static_cast<std::size_t>(action.rule)];
        if (action.rule < config_.num_rules) {
            const int count =
                match_counts[static_cast<std::size_t>(action.rule)];
            const Tensor loc_lp =
                locationLogProbs(embedding, action.rule, count);
            action.location = sampleFromLogProbs(loc_lp, rng, greedy);
            action.log_prob +=
                loc_lp.data()[static_cast<std::size_t>(action.location)];
        } else {
            action.location = 0;
        }
    } else {
        const Tensor flat_lp = flatLogProbs(embedding, match_counts);
        const int flat = sampleFromLogProbs(flat_lp, rng, greedy);
        action.log_prob = flat_lp.data()[static_cast<std::size_t>(flat)];
        if (flat == config_.num_rules * config_.max_locations) {
            action.rule = config_.num_rules; // END.
            action.location = 0;
        } else {
            action.rule = flat / config_.max_locations;
            action.location = flat % config_.max_locations;
        }
    }
    return action;
}

PolicyEval
Policy::evaluate(const std::vector<int>& ids,
                 const std::vector<int>& match_counts, int rule,
                 int location) const
{
    const Tensor embedding = embed(ids);
    PolicyEval eval;
    eval.value = critic_.forward(embedding);

    if (config_.hierarchical) {
        const Tensor rule_lp = ruleLogProbs(embedding, match_counts);
        eval.log_prob = nn::pick(rule_lp, 0, rule);
        eval.entropy = entropyOf(rule_lp);
        if (rule < config_.num_rules) {
            const int count = match_counts[static_cast<std::size_t>(rule)];
            const Tensor loc_lp = locationLogProbs(embedding, rule, count);
            eval.log_prob = nn::add(eval.log_prob,
                                    nn::pick(loc_lp, 0, location));
            eval.entropy = nn::add(eval.entropy, entropyOf(loc_lp));
        }
    } else {
        const Tensor flat_lp = flatLogProbs(embedding, match_counts);
        const int flat = rule == config_.num_rules
                             ? config_.num_rules * config_.max_locations
                             : rule * config_.max_locations + location;
        eval.log_prob = nn::pick(flat_lp, 0, flat);
        eval.entropy = entropyOf(flat_lp);
    }
    return eval;
}

float
Policy::valueOf(const std::vector<int>& ids) const
{
    const nn::NoGradGuard no_grad;
    return critic_.forward(embed(ids)).item();
}

std::vector<nn::Tensor>
Policy::params() const
{
    std::vector<nn::Tensor> params;
    if (config_.encoder_kind == EncoderKind::Transformer) {
        transformer_.collectParams(params);
    } else {
        gru_.collectParams(params);
    }
    rule_net_.collectParams(params);
    if (config_.hierarchical) loc_net_.collectParams(params);
    critic_.collectParams(params);
    return params;
}

} // namespace chehab::rl
