/// \file
/// Policy network tests: masking correctness, hierarchical vs flat action
/// spaces, bitwise log-prob and value agreement between the graph-free
/// sample() and evaluate(), and gradient flow.
#include <gtest/gtest.h>

#include <cmath>

#include "rl/policy.h"

namespace chehab::rl {
namespace {

PolicyConfig
smallPolicyConfig(bool hierarchical = true,
                  EncoderKind kind = EncoderKind::Transformer)
{
    PolicyConfig config;
    config.encoder.vocab_size = 32;
    config.encoder.d_model = 16;
    config.encoder.n_layers = 1;
    config.encoder.n_heads = 2;
    config.encoder.d_ff = 32;
    config.encoder.max_len = 16;
    config.encoder.pad_id = 0;
    config.num_rules = 6;
    config.max_locations = 4;
    config.hierarchical = hierarchical;
    config.encoder_kind = kind;
    config.rule_hidden = {32, 16};
    config.loc_hidden = {16, 16};
    config.critic_hidden = {32, 16};
    return config;
}

std::vector<int>
someIds()
{
    return {1, 4, 7, 9, 3, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0};
}

TEST(PolicyTest, SampleRespectsRuleMask)
{
    Rng rng(1);
    const Policy policy(smallPolicyConfig(), rng);
    // Only rule 2 (and END) available.
    const std::vector<int> counts = {0, 0, 3, 0, 0, 0, 1};
    Rng sample_rng(2);
    for (int i = 0; i < 50; ++i) {
        const ActionSample a =
            policy.sample(someIds(), counts, sample_rng);
        EXPECT_TRUE(a.rule == 2 || a.rule == 6) << a.rule;
        if (a.rule == 2) EXPECT_LT(a.location, 3);
    }
}

TEST(PolicyTest, GreedyIsDeterministic)
{
    Rng rng(3);
    const Policy policy(smallPolicyConfig(), rng);
    const std::vector<int> counts = {1, 2, 3, 0, 1, 0, 1};
    Rng r1(4), r2(99);
    const ActionSample a = policy.sample(someIds(), counts, r1, true);
    const ActionSample b = policy.sample(someIds(), counts, r2, true);
    EXPECT_EQ(a.rule, b.rule);
    EXPECT_EQ(a.location, b.location);
}

/// sample() runs without a graph (and, for the Transformer, computes
/// only the CLS row of its final layer); evaluate() records the full
/// graph. For both encoders at two layers and for ids with no PAD, some
/// PAD and only CLS real, every sampled action's log-prob and value must
/// be bitwise what evaluate() recomputes.
void
expectSampleMatchesEvaluateBitwise(bool hierarchical,
                                   const std::vector<int>& counts)
{
    const std::vector<std::vector<int>> id_sets = {
        {1, 4, 7, 9, 3, 2, 5, 8, 6, 10, 11, 12, 13, 14, 15, 16},
        someIds(),
        {1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
    };
    for (const EncoderKind kind : {EncoderKind::Transformer,
                                   EncoderKind::Gru}) {
        PolicyConfig config = smallPolicyConfig(hierarchical, kind);
        config.encoder.n_layers = 2;
        Rng rng(5);
        const Policy policy(config, rng);
        for (const std::vector<int>& ids : id_sets) {
            Rng sample_rng(6);
            for (int draw = 0; draw < 8; ++draw) {
                const ActionSample a =
                    policy.sample(ids, counts, sample_rng, draw == 0);
                const PolicyEval eval =
                    policy.evaluate(ids, counts, a.rule, a.location);
                EXPECT_EQ(eval.log_prob.item(), a.log_prob)
                    << "draw " << draw << ", ids[1] " << ids[1];
                EXPECT_EQ(eval.value.item(), a.value);
                EXPECT_EQ(policy.valueOf(ids), a.value);
            }
        }
    }
}

TEST(PolicyTest, EvaluateMatchesSampleLogProb)
{
    expectSampleMatchesEvaluateBitwise(true, {2, 0, 3, 1, 0, 2, 1});
}

TEST(PolicyTest, FlatActionSpaceRespectsMask)
{
    Rng rng(7);
    const Policy policy(smallPolicyConfig(false), rng);
    const std::vector<int> counts = {0, 1, 0, 0, 2, 0, 1};
    Rng sample_rng(8);
    for (int i = 0; i < 50; ++i) {
        const ActionSample a = policy.sample(someIds(), counts, sample_rng);
        if (a.rule == 6) continue; // END.
        EXPECT_TRUE(a.rule == 1 || a.rule == 4) << a.rule;
        EXPECT_LT(a.location,
                  counts[static_cast<std::size_t>(a.rule)]);
    }
}

TEST(PolicyTest, FlatEvaluateConsistent)
{
    expectSampleMatchesEvaluateBitwise(false, {1, 1, 1, 1, 1, 1, 1});
    expectSampleMatchesEvaluateBitwise(false, {0, 2, 0, 4, 1, 0, 1});
}

TEST(PolicyTest, GruEncoderWorks)
{
    Rng rng(11);
    const Policy policy(
        smallPolicyConfig(true, EncoderKind::Gru), rng);
    const std::vector<int> counts = {1, 1, 0, 0, 0, 0, 1};
    Rng sample_rng(12);
    const ActionSample a = policy.sample(someIds(), counts, sample_rng);
    EXPECT_TRUE(a.rule == 0 || a.rule == 1 || a.rule == 6);
    EXPECT_TRUE(std::isfinite(a.log_prob));
    EXPECT_TRUE(std::isfinite(a.value));
}

TEST(PolicyTest, EntropyPositiveWithMultipleChoices)
{
    Rng rng(13);
    const Policy policy(smallPolicyConfig(), rng);
    const std::vector<int> counts = {1, 1, 1, 1, 1, 1, 1};
    const PolicyEval eval = policy.evaluate(someIds(), counts, 0, 0);
    EXPECT_GT(eval.entropy.item(), 0.0f);
}

TEST(PolicyTest, GradientsFlowFromLogProb)
{
    Rng rng(14);
    const Policy policy(smallPolicyConfig(), rng);
    const std::vector<int> counts = {1, 2, 0, 0, 0, 0, 1};
    std::vector<nn::Tensor> params = policy.params();
    for (nn::Tensor& p : params) p.zeroGrad();
    const PolicyEval eval = policy.evaluate(someIds(), counts, 1, 1);
    eval.log_prob.backward();
    float total = 0.0f;
    for (const nn::Tensor& p : params) {
        for (float g : p.grad()) total += std::fabs(g);
    }
    EXPECT_GT(total, 0.0f);
}

TEST(PolicyTest, ParamsIncludeAllHeads)
{
    Rng rng(15);
    const Policy hier(smallPolicyConfig(true), rng);
    const Policy flat(smallPolicyConfig(false), rng);
    // The flat policy has no location network.
    EXPECT_GT(hier.params().size(), flat.params().size());
}

} // namespace
} // namespace chehab::rl
