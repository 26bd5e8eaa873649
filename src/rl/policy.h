/// \file
/// Actor-critic networks (§5.4): a sequence encoder (Transformer by
/// default, GRU for the ablation) producing the program embedding; a
/// hierarchical actor — rule-selection MLP (128-64) then location-selection
/// MLP (64-64) conditioned on the chosen rule — or a flat actor over
/// rule x location pairs (Fig. 13 ablation); and a critic MLP
/// (256-128-64) estimating the value function.
#pragma once

#include <memory>
#include <vector>

#include "nn/adam.h"
#include "nn/layers.h"
#include "support/rng.h"

namespace chehab::rl {

/// Which sequence encoder embeds the program.
enum class EncoderKind : std::uint8_t { Transformer, Gru };

/// Policy architecture configuration.
struct PolicyConfig
{
    nn::EncoderConfig encoder;  ///< vocab_size/pad_id set from the encoder.
    int num_rules = 0;          ///< Rewrite rules (END handled internally).
    int max_locations = 16;
    bool hierarchical = true;   ///< False = flat rule x location head.
    EncoderKind encoder_kind = EncoderKind::Transformer;
    std::vector<int> rule_hidden = {128, 64};
    std::vector<int> loc_hidden = {64, 64};
    std::vector<int> critic_hidden = {256, 128, 64};
};

/// Sampled action with its behaviour-policy statistics.
struct ActionSample
{
    int rule = 0;      ///< num_rules == END.
    int location = 0;
    float log_prob = 0.0f;
    float value = 0.0f;
};

/// Differentiable evaluation of one (state, action) pair for PPO.
struct PolicyEval
{
    nn::Tensor log_prob; ///< Scalar.
    nn::Tensor value;    ///< Scalar.
    nn::Tensor entropy;  ///< Scalar (rule entropy + chosen-branch
                         ///  location entropy for the hierarchical actor).
};

/// Actor-critic bundle.
class Policy
{
  public:
    Policy(const PolicyConfig& config, Rng& rng);

    /// Sample an action under the current policy with rule/location
    /// masking (\p match_counts[r] = 0 disables rule r; END is index
    /// num_rules and always enabled). \p greedy takes the argmax instead.
    /// Runs under an nn::NoGradGuard: no graph is built, and the
    /// log-prob and value are bitwise those evaluate() computes.
    ActionSample sample(const std::vector<int>& ids,
                        const std::vector<int>& match_counts, Rng& rng,
                        bool greedy = false) const;

    /// Recompute log-prob/value/entropy of an action with gradients.
    PolicyEval evaluate(const std::vector<int>& ids,
                        const std::vector<int>& match_counts, int rule,
                        int location) const;

    /// State value only (bootstrap for truncated rollouts); no graph.
    float valueOf(const std::vector<int>& ids) const;

    /// All trainable parameters.
    std::vector<nn::Tensor> params() const;

    const PolicyConfig& config() const { return config_; }

  private:
    nn::Tensor embed(const std::vector<int>& ids) const;
    nn::Tensor ruleLogProbs(const nn::Tensor& embedding,
                            const std::vector<int>& match_counts) const;
    nn::Tensor locationLogProbs(const nn::Tensor& embedding, int rule,
                                int count) const;
    nn::Tensor flatLogProbs(const nn::Tensor& embedding,
                            const std::vector<int>& match_counts) const;

    PolicyConfig config_;
    nn::TransformerEncoder transformer_;
    nn::GruEncoder gru_;
    nn::Mlp rule_net_;  ///< Hierarchical: rules+END. Flat: rules*locs+1.
    nn::Mlp loc_net_;   ///< Hierarchical only.
    nn::Mlp critic_;
};

} // namespace chehab::rl
