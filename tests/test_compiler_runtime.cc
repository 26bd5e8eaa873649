/// \file
/// End-to-end execution tests: scheduled programs run on SealLite and
/// must reproduce the reference evaluator's outputs — for hand-written
/// circuits, optimizer outputs, CoyoteSim outputs, and with NAF-selected
/// rotation keys. This closes the loop from DSL to homomorphic hardware.
#include <gtest/gtest.h>

#include "baselines/coyote_sim.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "ir/parser.h"
#include "support/error.h"
#include "support/rng.h"

namespace chehab::compiler {
namespace {

fhe::SealLiteParams
smallParams()
{
    fhe::SealLiteParams params;
    params.n = 256;
    params.prime_count = 4;
    params.seed = 17;
    return params;
}

/// Run `text` through schedule+SealLite and compare every output slot to
/// the reference slot evaluator.
void
expectMatchesReference(const std::string& text, const ir::Env& env,
                       int key_budget = 0)
{
    const ir::ExprPtr program = ir::parse(text);
    const FheProgram scheduled = schedule(program);
    FheRuntime runtime(smallParams());
    const RunResult run = runtime.run(scheduled, env, key_budget);

    const ir::Value expected = ir::Evaluator().evaluate(program, env);
    ASSERT_EQ(static_cast<int>(run.output.size()),
              expected.is_vector ? expected.width() : 1);
    for (std::size_t i = 0; i < run.output.size(); ++i) {
        EXPECT_EQ(run.output[i], expected.slots[i]) << text << " slot " << i;
    }
    EXPECT_GT(run.final_noise_budget, 0) << "budget exhausted for " << text;
}

TEST(RuntimeTest, ScalarArithmetic)
{
    expectMatchesReference("(+ (* a b) c)", {{"a", 3}, {"b", 4}, {"c", 5}});
}

TEST(RuntimeTest, PlaintextOperands)
{
    expectMatchesReference("(+ (* (pt w) x) 7)", {{"w", 3}, {"x", 11}});
}

TEST(RuntimeTest, VectorizedCircuit)
{
    expectMatchesReference("(VecAdd (VecMul (Vec a b) (Vec c d)) (Vec e f))",
                           {{"a", 2}, {"b", 3}, {"c", 4},
                            {"d", 5}, {"e", 6}, {"f", 7}});
}

TEST(RuntimeTest, Pow2RotationSemantics)
{
    expectMatchesReference("(<< (Vec a b c d) 1)",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
    expectMatchesReference("(<< (Vec a b c d) 3)",
                           {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
}

TEST(RuntimeTest, NonPow2RotationSemantics)
{
    expectMatchesReference("(<< (Vec a b c) 1)",
                           {{"a", 1}, {"b", 2}, {"c", 3}});
    expectMatchesReference("(<< (Vec a b c d e) 2)",
                           {{"a", 1}, {"b", 2}, {"c", 3},
                            {"d", 4}, {"e", 5}});
}

TEST(RuntimeTest, ComputedPack)
{
    expectMatchesReference("(Vec a (+ x y) b c)",
                           {{"a", 1}, {"x", 2}, {"y", 3},
                            {"b", 4}, {"c", 5}});
}

TEST(RuntimeTest, RotateReduceDotProduct)
{
    // The optimizer's signature circuit shape.
    expectMatchesReference(
        "(VecAdd (VecAdd (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3))"
        "                (<< (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) 2))"
        "        (<< (VecAdd (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3))"
        "            (<< (VecMul (Vec a0 a1 a2 a3) (Vec b0 b1 b2 b3)) 2)) 1))",
        {{"a0", 1}, {"a1", 2}, {"a2", 3}, {"a3", 4},
         {"b0", 5}, {"b1", 6}, {"b2", 7}, {"b3", 8}});
}

TEST(RuntimeTest, NafKeyBudgetStillCorrect)
{
    // Rotations by 3 and 5 decompose under a tight key budget but must
    // compute the same result.
    expectMatchesReference(
        "(VecAdd (<< (Vec a b c d e f g h) 3)"
        "        (<< (Vec a b c d e f g h) 5))",
        {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4},
         {"e", 5}, {"f", 6}, {"g", 7}, {"h", 8}},
        /*key_budget=*/3);
}

TEST(RuntimeTest, GreedyPipelineEndToEnd)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const ir::ExprPtr source =
        ir::parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))");
    const Compiled compiled = compileGreedy(ruleset, source);
    EXPECT_LT(compiled.stats.final_cost, compiled.stats.initial_cost);

    FheRuntime runtime(smallParams());
    const ir::Env env = {{"a0", 1}, {"a1", 2}, {"a2", 3}, {"a3", 4},
                         {"b0", 5}, {"b1", 6}, {"b2", 7}, {"b3", 8}};
    const RunResult run = runtime.run(compiled.program, env);
    EXPECT_EQ(run.output[0], 70);
}

TEST(RuntimeTest, CoyoteSimEndToEnd)
{
    baselines::CoyoteConfig config;
    config.search_budget = 2000;
    const ir::ExprPtr source = ir::parse(
        "(Vec (+ (* a b) (* c d)) (+ (* e f) (* g h)))");
    const baselines::CoyoteResult coyote =
        baselines::coyoteCompile(source, config);
    ASSERT_NE(coyote.program, nullptr);
    EXPECT_TRUE(ir::equivalentOn(source, coyote.program, 8));

    FheRuntime runtime(smallParams());
    const ir::Env env = {{"a", 2}, {"b", 3}, {"c", 4}, {"d", 5},
                         {"e", 6}, {"f", 7}, {"g", 8}, {"h", 9}};
    const RunResult run = runtime.run(schedule(coyote.program), env);
    ASSERT_GE(run.output.size(), 2u);
    EXPECT_EQ(run.output[0], 2 * 3 + 4 * 5);
    EXPECT_EQ(run.output[1], 6 * 7 + 8 * 9);
}

TEST(RuntimeTest, NoiseConsumptionReported)
{
    const FheProgram program =
        schedule(ir::parse("(VecMul (Vec a b) (Vec c d))"));
    FheRuntime runtime(smallParams());
    const RunResult run =
        runtime.run(program, {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}});
    EXPECT_GT(run.consumed_noise, 5);
    EXPECT_EQ(run.fresh_noise_budget,
              run.final_noise_budget + run.consumed_noise);
}

TEST(RuntimeTest, BadRowLayoutsThrowBeforeExecution)
{
    // The row core checks the member layout before it indexes the
    // program or the lane environments: every malformed slice,
    // register, lane block, width or stride raises CompileError.
    const FheProgram program = schedule(ir::parse("(+ (* a b) c)"));
    const int size = static_cast<int>(program.instrs.size());
    ASSERT_GE(size, 3);
    const ir::Env env = {{"a", 3}, {"b", 4}, {"c", 5}};
    const RotationKeyPlan plan = effectiveKeyPlan(program, 0);
    FheRuntime runtime(smallParams());
    const int stride = 8; // 16 lanes in the 128-slot row.
    auto runRow = [&](std::vector<CompositeMember> members, int envs = 1) {
        return runtime.runRow(
            program, plan, stride, members,
            std::vector<std::vector<const ir::Env*>>(
                members.size(), std::vector<const ir::Env*>(
                                    static_cast<std::size_t>(envs), &env)));
    };
    const CompositeMember good = wholeProgramMember(program);
    EXPECT_EQ(runRow({good}).member_outputs[0][0],
              (std::vector<std::int64_t>{17}));

    // Slices: past the end, short of the end, a gap at the start,
    // negative, empty, overlapping and descending.
    auto withSlice = [&good](int begin, int end) {
        CompositeMember member = good;
        member.instr_begin = begin;
        member.instr_end = end;
        return member;
    };
    EXPECT_THROW(runRow({withSlice(0, size + 1)}), CompileError);
    EXPECT_THROW(runRow({withSlice(0, size - 1)}), CompileError);
    EXPECT_THROW(runRow({withSlice(1, size)}), CompileError);
    EXPECT_THROW(runRow({withSlice(-1, size)}), CompileError);
    EXPECT_THROW(runRow({withSlice(0, 0)}), CompileError);
    EXPECT_THROW(runRow({withSlice(0, 2), withSlice(1, size)}),
                 CompileError);
    EXPECT_THROW(runRow({withSlice(2, size), withSlice(0, 2)}),
                 CompileError);

    // Output registers outside [0, num_regs).
    for (int reg : {-1, program.num_regs}) {
        CompositeMember member = good;
        member.output_reg = reg;
        EXPECT_THROW(runRow({member}), CompileError) << reg;
    }

    // Lane blocks outside the row, empty, or without one environment
    // per lane.
    auto withLanes = [&good](int base, int count) {
        CompositeMember member = good;
        member.lane_base = base;
        member.lane_count = count;
        return member;
    };
    EXPECT_THROW(runRow({withLanes(-1, 1)}), CompileError);
    EXPECT_THROW(runRow({withLanes(16, 1)}), CompileError);
    EXPECT_THROW(runRow({withLanes(15, 2)}, 2), CompileError);
    EXPECT_THROW(runRow({withLanes(0, 17)}, 17), CompileError);
    EXPECT_THROW(runRow({withLanes(0, 0)}, 0), CompileError);
    EXPECT_THROW(runRow({withLanes(0, 2)}, 1), CompileError);
    EXPECT_THROW(runtime.runRow(program, plan, stride, {good}, {{nullptr}}),
                 CompileError);
    EXPECT_THROW(runtime.runRow(program, plan, stride, {good}, {}),
                 CompileError);
    EXPECT_THROW(runtime.runRow(program, plan, stride, {}, {}),
                 CompileError);

    // Output widths past the stride, and strides that do not tile the
    // row.
    for (int width : {-1, stride + 1}) {
        CompositeMember member = good;
        member.output_width = width;
        EXPECT_THROW(runRow({member}), CompileError) << width;
    }
    for (int bad_stride : {0, -8, 3, 256}) {
        EXPECT_THROW(
            runtime.runRow(program, plan, bad_stride, {good}, {{&env}}),
            CompileError)
            << bad_stride;
    }
}

TEST(RuntimeTest, CalibrationAndEstimate)
{
    FheRuntime runtime(smallParams());
    const OpLatencies lat = runtime.calibrate(1);
    EXPECT_GT(lat.ct_ct_mul, lat.ct_add);
    const FheProgram program =
        schedule(ir::parse("(VecMul (Vec a b) (Vec c d))"));
    EXPECT_GT(runtime.estimate(program, lat), 0.0);
}

} // namespace
} // namespace chehab::compiler
