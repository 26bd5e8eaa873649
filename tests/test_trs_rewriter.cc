/// \file
/// Tests for the rewrite engine: action enumeration (the RL action space)
/// and the greedy best-improvement optimizer (the original CHEHAB
/// baseline of Fig. 12), with its traces and programs pinned.
#include <gtest/gtest.h>

#include <cstdio>

#include "benchsuite/kernels.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "support/binary_io.h"
#include "trs/rewriter.h"

namespace chehab::trs {
namespace {

using ir::ExprPtr;
using ir::parse;

const Ruleset&
ruleset()
{
    static const Ruleset rs = buildChehabRuleset();
    return rs;
}

TEST(EnumerateActionsTest, ListsOnlyApplicableRules)
{
    const ExprPtr program = parse("(+ (* a b) (* a c))");
    const std::vector<RuleMatches> actions =
        enumerateActions(ruleset(), program);
    EXPECT_FALSE(actions.empty());
    for (const RuleMatches& rm : actions) {
        EXPECT_FALSE(rm.locations.empty());
        // Every advertised action must be applicable.
        for (std::size_t ordinal = 0; ordinal < rm.locations.size();
             ++ordinal) {
            EXPECT_NE(ruleset()[static_cast<std::size_t>(rm.rule_index)]
                          .applyAt(program, static_cast<int>(ordinal)),
                      nullptr);
        }
    }
    // comm-factor must be among them.
    bool has_factor = false;
    for (const RuleMatches& rm : actions) {
        if (ruleset()[static_cast<std::size_t>(rm.rule_index)].name() ==
            "comm-factor-ll") {
            has_factor = true;
        }
    }
    EXPECT_TRUE(has_factor);
}

TEST(EnumerateActionsTest, RespectsLocationCap)
{
    // Lots of commutativity sites.
    const ExprPtr program = parse(
        "(+ (+ (+ (+ (+ (+ a b) c) d) e) f) (+ (+ (+ g h) i) j))");
    for (const RuleMatches& rm : enumerateActions(ruleset(), program, 3)) {
        EXPECT_LE(rm.locations.size(), 3u);
    }
}

TEST(GreedyOptimizeTest, SimplifiesIdentities)
{
    const OptimizeResult result =
        greedyOptimize(ruleset(), parse("(+ (* x 1) 0)"));
    EXPECT_EQ(result.program->toString(), "x");
    EXPECT_LT(result.final_cost, result.initial_cost);
    EXPECT_GE(result.steps, 1);
}

TEST(GreedyOptimizeTest, VectorizesIsomorphicCode)
{
    const ExprPtr program = parse("(Vec (+ a b) (+ c d) (+ e f) (+ g h))");
    const OptimizeResult result = greedyOptimize(ruleset(), program);
    // One packed vector addition: cost 1 instead of 4x250.
    EXPECT_LE(result.final_cost, 10.0);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
}

TEST(GreedyOptimizeTest, ReducesDotProduct)
{
    const ExprPtr program = parse(
        "(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))");
    const OptimizeResult result = greedyOptimize(ruleset(), program);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
    // Far below the scalar cost of 7 * 250.
    EXPECT_LT(result.final_cost, 400.0);
}

TEST(GreedyOptimizeTest, StopsAtLocalOptimum)
{
    // Already optimal single variable: no steps taken.
    const OptimizeResult result = greedyOptimize(ruleset(), parse("x"));
    EXPECT_EQ(result.steps, 0);
    EXPECT_DOUBLE_EQ(result.final_cost, result.initial_cost);
}

TEST(GreedyOptimizeTest, HonoursStepBudget)
{
    const ExprPtr program = parse(
        "(Vec (+ a b) (+ c d) (+ e f) (+ g h) (+ i j) (+ k l))");
    const OptimizeResult result =
        greedyOptimize(ruleset(), program, {}, {}, /*max_steps=*/1);
    EXPECT_LE(result.steps, 1);
}

TEST(GreedyOptimizeTest, TraceMatchesStepCount)
{
    const OptimizeResult result =
        greedyOptimize(ruleset(), parse("(+ (* x 1) 0)"));
    EXPECT_EQ(static_cast<int>(result.trace.size()), result.steps);
}

TEST(GreedyOptimizeTest, WeightsInfluenceOutcome)
{
    // With heavy depth weights the optimizer should still be sound.
    const ExprPtr program =
        parse("(* a (* b (* c (* d (* e (* f (* g h)))))))");
    const ir::CostWeights heavy{1.0, 150.0, 150.0};
    const OptimizeResult result =
        greedyOptimize(ruleset(), program, heavy);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
    EXPECT_LE(ir::multiplicativeDepth(result.program),
              ir::multiplicativeDepth(program));
}


TEST(GreedyOptimizeTest, FullSuiteTracesAndProgramsArePinned)
{
    // Greedy trace, final cost and a hash of the program text on
    // fullSuite(8, 6), taken while applyAt still re-scanned every
    // match: applying at the index findMatches returned must not move
    // any of them.
    const std::vector<std::pair<std::string, std::string>> pinned = {
        {"Dot Product 4", "reduce-sum-of-products | 208.000000 | b5abb575710bb3f7"},
        {"Hamm. Dist. 4", "reduce-sum sub-vectorize-4 add-vectorize-4 mul-vectorize-4 mul-vectorize-4 | 312.000000 | bacda06b33fb9e93"},
        {"L2 Distance 4", "reduce-sum-of-products sub-vectorize-4 | 210.000000 | d8e1aceef43d5bf7"},
        {"Linear Reg. 4", "add-vectorize-4 mul-vectorize-4 | 104.000000 | 950e4b12ac93c6df"},
        {"Poly. Reg. 4", "add-vectorize-4 mul-vectorize-4 add-vectorize-4 mul-vectorize-4 | 208.000000 | 81462303994f860e"},
        {"Dot Product 8", "reduce-sum-of-products | 261.000000 | 2512b461889f4763"},
        {"Hamm. Dist. 8", "reduce-sum pack-sub pack-add pack-mul pack-mul | 365.000000 | 81697b3047199183"},
        {"L2 Distance 8", "reduce-sum-of-products pack-sub | 263.000000 | 2200b00242ae1be3"},
        {"Linear Reg. 8", "pack-add pack-mul | 104.000000 | 24ca964f74bf2503"},
        {"Poly. Reg. 8", "pack-add pack-mul pack-add pack-mul | 208.000000 | 20981e5b92ea7186"},
        {"Box Blur 3x3", "reduce-sum rotate-of-vec | 161.000000 | 5d380d0511ae2a93"},
        {"Box Blur 4x4", "vec-reduce-sum rotate-of-vec | 161.000000 | 8f4ad07a962d297c"},
        {"Box Blur 5x5", "vec-reduce-sum rotate-of-vec | 161.000000 | b4cda6dd1e751cab"},
        {"Gx 3x3", "vec-reduce-sum pack-mul | 261.000000 | d71bc11397ea0abb"},
        {"Gy 3x3", "vec-reduce-sum pack-mul | 261.000000 | e64ca893371d735b"},
        {"Rob. Cross 3x3", "vec-reduce-sum-of-products pack-sub | 157.000000 | a354122d8f5aca1d"},
        {"Gx 4x4", "vec-reduce-sum pack-mul | 261.000000 | 644ad88e5ba9165f"},
        {"Gy 4x4", "vec-reduce-sum pack-mul | 261.000000 | 077126cd89c26cdf"},
        {"Rob. Cross 4x4", "vec-reduce-sum-of-products pack-sub | 157.000000 | e86934391b1af239"},
        {"Gx 5x5", "vec-reduce-sum pack-mul | 261.000000 | 3eedfe487deb3099"},
        {"Gy 5x5", "vec-reduce-sum pack-mul | 261.000000 | edeff4515d4e5499"},
        {"Rob. Cross 5x5", "vec-reduce-sum-of-products pack-sub | 157.000000 | f208acfc1de2d2cb"},
        {"Mat. Mul. 3x3", "vec-reduce-sum-of-products | 208.000000 | d1f222d41ae204eb"},
        {"Mat. Mul. 4x4", "vec-reduce-sum-of-products | 208.000000 | b00b946ec1f17007"},
        {"Mat. Mul. 5x5", "vec-reduce-sum-of-products | 261.000000 | 95540b39a08a0d11"},
        {"Max 3", "| 1506.000000 | 515817d0ab39b97a"},
        {"Max 4", "| 2256.000000 | c59ac4fbdcc65d7e"},
        {"Max 5", "| 3009.000000 | 9ec18365651396c6"},
        {"Sort 3", "pack-sub pack-add | 1621.000000 | ae635dd31699ccfc"},
        {"Sort 4", "pack-sub pack-add | 3556.000000 | a8fae40ac70135b5"},
        {"Tree 50-50-5", "| 3008.000000 | e4ad3bc99709ef4b"},
        {"Tree 100-50-5", "reduce-sum pack-mul pack-mul pack-add pack-mul pack-mul | 4429.000000 | 790facb5ba8698b3"},
        {"Tree 100-100-5", "reduce-product rotate-of-vec | 714.000000 | dfe4a99ec92cc4be"},
        {"Tree 50-50-6", "| 4510.000000 | d3d00a1b1590bbce"},
        {"Tree 100-50-6", "reduce-sum-of-products pack-add pack-mul pack-add pack-mul pack-mul pack-add pack-mul pack-mul | 11871.000000 | 997e6b1477c139db"},
        {"Tree 100-100-6", "reduce-product rotate-of-vec | 867.000000 | 23041fe8591ed7be"},
    };
    const std::vector<benchsuite::Kernel> mix = benchsuite::fullSuite(8, 6);
    ASSERT_EQ(mix.size(), pinned.size());
    for (std::size_t k = 0; k < mix.size(); ++k) {
        const OptimizeResult result = greedyOptimize(
            ruleset(), parse(mix[k].program->toString()));
        std::string actual;
        for (const std::string& name : result.trace) actual += name + " ";
        char hash[32];
        std::snprintf(hash, sizeof hash, "%016llx",
                      static_cast<unsigned long long>(
                          fnv1a64(result.program->toString())));
        actual += "| " + std::to_string(result.final_cost) + " | " + hash;
        EXPECT_EQ(mix[k].name, pinned[k].first);
        EXPECT_EQ(actual, pinned[k].second) << mix[k].name;
    }
}

} // namespace
} // namespace chehab::trs
