/// \file
/// Tests for the slot-batching coalescer: packed vs. solo bit-identical
/// outputs per lane, packed-noise determinism at 1 vs. 8 workers,
/// partial final batches, mixed-parameter batches never coalescing,
/// window-timeout flushes, the lane-safety analysis itself, and the
/// counter-consistency invariants the concurrency audit asserts under
/// TSan.
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "benchsuite/kernels.h"
#include "compiler/driver.h"
#include "compiler/passes.h"
#include "compiler/runtime.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "service/batch_planner.h"
#include "service/compile_service.h"
#include "service/shard_router.h"
#include "support/telemetry.h"
#include "trs/ruleset.h"

namespace chehab::service {
namespace {

fhe::SealLiteParams
smallParams()
{
    fhe::SealLiteParams params;
    params.n = 256; // 128-slot row.
    params.prime_count = 4;
    params.seed = 17;
    return params;
}

std::string
dotSource(int n)
{
    std::string sum;
    for (int i = 0; i < n; ++i) {
        const std::string term = "(* a" + std::to_string(i) + " b" +
                                 std::to_string(i) + ")";
        sum = i == 0 ? term : "(+ " + sum + " " + term + ")";
    }
    return sum;
}

/// Distinct deterministic inputs per request index.
ir::Env
inputsFor(const ir::ExprPtr& source, int index)
{
    ir::Env env = benchsuite::syntheticInputs(source);
    for (auto& [name, value] : env) value += index * 7 + 1;
    return env;
}

RunRequest
laneRequest(const std::string& name, const ir::ExprPtr& source, int index,
            int key_budget = 0)
{
    RunRequest request;
    request.name = name;
    request.source = source;
    request.pipeline = compiler::DriverConfig::greedy({}, 20);
    request.inputs = inputsFor(source, index);
    request.key_budget = key_budget;
    request.params = smallParams();
    return request;
}

ServiceConfig
batchedConfig(int workers, int max_lanes, double window_seconds)
{
    ServiceConfig config;
    config.num_workers = workers;
    config.max_lanes = max_lanes;
    config.batch_window_seconds = window_seconds;
    return config;
}

struct Snapshot
{
    std::vector<std::int64_t> output;
    int fresh = 0;
    int final_budget = 0;
    int consumed = 0;
    int keys = 0;
    int packed_lanes = 0;
    int lane = 0;
};

std::map<std::string, Snapshot>
runAndSnapshot(const ServiceConfig& config,
               std::vector<RunRequest> batch)
{
    std::map<std::string, Snapshot> by_name;
    CompileService service(config);
    for (RunResponse& response : service.runBatch(std::move(batch))) {
        EXPECT_TRUE(response.ok)
            << response.name << ": " << response.error;
        Snapshot snap;
        snap.output = response.result.output;
        snap.fresh = response.result.fresh_noise_budget;
        snap.final_budget = response.result.final_noise_budget;
        snap.consumed = response.result.consumed_noise;
        snap.keys = response.result.rotation_keys;
        snap.packed_lanes = response.packed_lanes;
        snap.lane = response.lane;
        by_name[response.name] = snap;
    }
    return by_name;
}

// ---- packed vs. solo --------------------------------------------------

TEST(ServiceBatchingTest, PackedOutputsBitIdenticalToSolo)
{
    const ir::ExprPtr source = ir::parse(dotSource(4));
    const int n = 8;
    std::vector<RunRequest> batch;
    for (int i = 0; i < n; ++i) {
        batch.push_back(
            laneRequest("k" + std::to_string(i), source, i));
    }

    // Solo: coalescing disabled (the default config).
    const auto solo =
        runAndSnapshot(batchedConfig(2, /*max_lanes=*/1, 0.0), batch);
    // Packed: all eight requests share one row (capacity 8 fills the
    // group before any window could expire).
    const auto packed =
        runAndSnapshot(batchedConfig(2, /*max_lanes=*/8, 1.0), batch);

    ASSERT_EQ(solo.size(), packed.size());
    for (const auto& [name, solo_snap] : solo) {
        ASSERT_TRUE(packed.count(name)) << name;
        const Snapshot& packed_snap = packed.at(name);
        // The determinism contract: per-lane outputs are bit-identical
        // to the solo run; so are the request-independent accounting
        // fields (fresh budget, rotation keys). The final/consumed
        // noise describes the shared row and may legitimately differ.
        EXPECT_EQ(solo_snap.output, packed_snap.output) << name;
        EXPECT_EQ(solo_snap.fresh, packed_snap.fresh) << name;
        EXPECT_EQ(solo_snap.keys, packed_snap.keys) << name;
        EXPECT_EQ(solo_snap.packed_lanes, 1) << name;
        EXPECT_EQ(packed_snap.packed_lanes, n) << name;
        EXPECT_FALSE(packed_snap.output.empty()) << name;
        // Every lane rode the same row: shared noise accounting.
        EXPECT_EQ(packed_snap.final_budget,
                  packed.begin()->second.final_budget)
            << name;
        EXPECT_GT(packed_snap.final_budget, 0) << name;
    }
    // And both agree with the reference evaluator.
    for (int i = 0; i < n; ++i) {
        const ir::Value expected =
            ir::Evaluator().evaluate(source, inputsFor(source, i));
        EXPECT_EQ(packed.at("k" + std::to_string(i)).output[0],
                  expected.slots[0]);
    }
}

TEST(ServiceBatchingTest, PackedDeterministicAcrossWorkerCounts)
{
    const ir::ExprPtr source = ir::parse(dotSource(4));
    auto makeBatch = [&source] {
        std::vector<RunRequest> batch;
        for (int i = 0; i < 8; ++i) {
            batch.push_back(
                laneRequest("k" + std::to_string(i), source, i));
        }
        return batch;
    };

    const auto serial =
        runAndSnapshot(batchedConfig(1, 8, 1.0), makeBatch());
    const auto wide =
        runAndSnapshot(batchedConfig(8, 8, 1.0), makeBatch());
    ASSERT_EQ(serial.size(), wide.size());
    for (const auto& [name, snap] : serial) {
        ASSERT_TRUE(wide.count(name)) << name;
        const Snapshot& other = wide.at(name);
        // Same group composition => same lane order, same packing seed:
        // outputs AND the shared row's noise accounting are
        // bit-identical regardless of worker count.
        EXPECT_EQ(snap.output, other.output) << name;
        EXPECT_EQ(snap.fresh, other.fresh) << name;
        EXPECT_EQ(snap.final_budget, other.final_budget) << name;
        EXPECT_EQ(snap.consumed, other.consumed) << name;
        EXPECT_EQ(snap.keys, other.keys) << name;
        EXPECT_EQ(snap.packed_lanes, other.packed_lanes) << name;
        EXPECT_EQ(snap.lane, other.lane) << name;
        EXPECT_EQ(snap.packed_lanes, 8) << name;
    }
}

TEST(ServiceBatchingTest, ShardedDeterministicAcrossWorkerAndShardCounts)
{
    const ir::ExprPtr source = ir::parse(dotSource(4));
    auto makeBatch = [&source] {
        std::vector<RunRequest> batch;
        for (int i = 0; i < 8; ++i) {
            batch.push_back(
                laneRequest("k" + std::to_string(i), source, i));
        }
        return batch;
    };
    auto shardedSnapshot = [&](int shards, int workers) {
        ServiceConfig config = batchedConfig(workers, 8, 1.0);
        config.shards = shards;
        std::map<std::string, Snapshot> by_name;
        ShardedService service(config);
        for (RunResponse& response : service.runBatch(makeBatch())) {
            EXPECT_TRUE(response.ok)
                << response.name << ": " << response.error;
            Snapshot snap;
            snap.output = response.result.output;
            snap.fresh = response.result.fresh_noise_budget;
            snap.final_budget = response.result.final_noise_budget;
            snap.consumed = response.result.consumed_noise;
            snap.keys = response.result.rotation_keys;
            by_name[response.name] = snap;
        }
        return by_name;
    };

    // 1 shard x 1 worker is the plain-serial reference; the outputs
    // and request-independent accounting must survive 8 workers and
    // any sharding (row composition per shard may differ — final and
    // consumed noise describe the shared row — but lane bits and fresh
    // budgets never do).
    const auto reference = shardedSnapshot(1, 1);
    const auto one_shard_wide = shardedSnapshot(1, 8);
    for (const auto& [name, snap] : reference) {
        ASSERT_TRUE(one_shard_wide.count(name)) << name;
        const Snapshot& other = one_shard_wide.at(name);
        // Same shard, same group composition: full bit-identity
        // including the shared row's noise accounting.
        EXPECT_EQ(snap.output, other.output) << name;
        EXPECT_EQ(snap.fresh, other.fresh) << name;
        EXPECT_EQ(snap.final_budget, other.final_budget) << name;
        EXPECT_EQ(snap.consumed, other.consumed) << name;
        EXPECT_EQ(snap.keys, other.keys) << name;
    }
    for (const auto& [shards, workers] :
         std::vector<std::pair<int, int>>{{2, 4}, {4, 1}}) {
        const auto sharded = shardedSnapshot(shards, workers);
        ASSERT_EQ(sharded.size(), reference.size());
        for (const auto& [name, snap] : reference) {
            ASSERT_TRUE(sharded.count(name)) << name;
            const Snapshot& other = sharded.at(name);
            EXPECT_EQ(snap.output, other.output)
                << name << " @ " << shards << " shards";
            EXPECT_EQ(snap.fresh, other.fresh)
                << name << " @ " << shards << " shards";
            EXPECT_EQ(snap.keys, other.keys)
                << name << " @ " << shards << " shards";
        }
    }
}

TEST(ServiceBatchingTest, PartialFinalBatchFlushesViaWindow)
{
    const ir::ExprPtr source = ir::parse(dotSource(4));
    std::vector<RunRequest> batch;
    for (int i = 0; i < 6; ++i) {
        batch.push_back(laneRequest("k" + std::to_string(i), source, i));
    }
    // Capacity 4: the first four lanes flush full; the remaining two
    // form a partial group only the window can flush.
    CompileService service(batchedConfig(2, 4, /*window=*/0.15));
    std::vector<RunResponse> responses =
        service.runBatch(std::move(batch));
    int lanes4 = 0;
    int lanes2 = 0;
    for (const RunResponse& response : responses) {
        ASSERT_TRUE(response.ok)
            << response.name << ": " << response.error;
        if (response.packed_lanes == 4) ++lanes4;
        if (response.packed_lanes == 2) ++lanes2;
        const int index = std::stoi(response.name.substr(1));
        const ir::Value expected = ir::Evaluator().evaluate(
            source, inputsFor(source, index));
        EXPECT_EQ(response.result.output[0], expected.slots[0])
            << response.name;
    }
    EXPECT_EQ(lanes4, 4);
    EXPECT_EQ(lanes2, 2);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.packed_groups, 2u);
    EXPECT_EQ(stats.packed_lanes, 6u);
    EXPECT_EQ(stats.full_flushes, 1u);
    EXPECT_GE(stats.window_flushes, 1u);
}

TEST(ServiceBatchingTest, MixedParamsAndBudgetsNeverCoalesce)
{
    const ir::ExprPtr source = ir::parse(dotSource(4));
    std::vector<RunRequest> batch;
    batch.push_back(laneRequest("p17", source, 0));
    RunRequest other_params = laneRequest("p23", source, 0);
    other_params.params.seed = 23; // Different runtime family.
    batch.push_back(std::move(other_params));

    CompileService service(batchedConfig(2, 8, /*window=*/0.05));
    std::vector<RunResponse> responses =
        service.runBatch(std::move(batch));
    for (const RunResponse& response : responses) {
        ASSERT_TRUE(response.ok)
            << response.name << ": " << response.error;
        // Each request sat in its own single-lane group, so both ran
        // solo (packing across parameter sets would mix key material).
        EXPECT_EQ(response.packed_lanes, 1) << response.name;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.packed_groups, 0u);
    EXPECT_EQ(stats.solo_runs, 2u);
}

TEST(ServiceBatchingTest, WindowTimeoutFlushesUndersizedGroup)
{
    const ir::ExprPtr source = ir::parse(dotSource(4));
    std::vector<RunRequest> batch;
    for (int i = 0; i < 3; ++i) {
        batch.push_back(laneRequest("k" + std::to_string(i), source, i));
    }
    // Capacity 8 but only 3 requests: nothing fills the group; the
    // window must flush it or runBatch would block forever.
    CompileService service(batchedConfig(2, 8, /*window=*/0.1));
    std::vector<RunResponse> responses =
        service.runBatch(std::move(batch));
    for (const RunResponse& response : responses) {
        ASSERT_TRUE(response.ok)
            << response.name << ": " << response.error;
        EXPECT_EQ(response.packed_lanes, 3) << response.name;
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.packed_groups, 1u);
    EXPECT_EQ(stats.packed_lanes, 3u);
    EXPECT_EQ(stats.full_flushes, 0u);
    EXPECT_GE(stats.window_flushes, 1u);
}

TEST(ServiceBatchingTest, RowFillingKernelRunsSolo)
{
    // A pack as wide as the row leaves no lane to share: the planner
    // must refuse and the service must fall back to solo execution.
    std::string vec = "(VecAdd (Vec";
    std::string other = " (Vec";
    for (int i = 0; i < 128; ++i) {
        vec += " x" + std::to_string(i);
        other += " y" + std::to_string(i);
    }
    const ir::ExprPtr source = ir::parse(vec + ")" + other + "))");
    std::vector<RunRequest> batch;
    for (int i = 0; i < 2; ++i) {
        batch.push_back(laneRequest("w" + std::to_string(i), source, i));
    }
    CompileService service(batchedConfig(2, 8, /*window=*/0.05));
    std::vector<RunResponse> responses =
        service.runBatch(std::move(batch));
    for (const RunResponse& response : responses) {
        ASSERT_TRUE(response.ok)
            << response.name << ": " << response.error;
        EXPECT_EQ(response.packed_lanes, 1) << response.name;
    }
    EXPECT_EQ(service.stats().packed_groups, 0u);
    EXPECT_EQ(service.stats().solo_runs, 2u);
}

// ---- the lane-safety analysis directly --------------------------------

TEST(ServiceBatchingTest, LaneFitCertifiesRotateReduceKernels)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const compiler::CompilerDriver driver(&ruleset);
    const compiler::Compiled compiled =
        driver.compile(compiler::canonicalize(ir::parse(dotSource(4))),
                       compiler::DriverConfig::greedy({}, 20));
    const compiler::RotationKeyPlan plan =
        compiler::effectiveKeyPlan(compiled.program, 0);
    const LaneFit fit = analyzeLaneFit(compiled.program, plan, 128);
    ASSERT_TRUE(fit.safe) << fit.reason;
    EXPECT_GE(fit.max_lanes, 2);
    EXPECT_LE(fit.stride, 32);
    EXPECT_EQ(fit.stride * fit.max_lanes, 128);

    // The same program cannot share a 4-slot row with anyone.
    const LaneFit tiny = analyzeLaneFit(compiled.program, plan, 4);
    EXPECT_FALSE(tiny.safe);
}

TEST(ServiceBatchingTest, RotatedAperiodicConstantPackIsNotCertified)
{
    // Regression: a rotated NON-replicated constant pack repeats its
    // pattern per region in the packed row but is zero-tailed in the
    // solo row, so rotation wraps constants across the region boundary
    // where solo semantics has zeros. The analysis must not certify a
    // stride whose readout window can see those wrapped slots.
    compiler::FheProgram program;
    compiler::FheInstr pack;
    pack.op = compiler::FheOpcode::PackCipher;
    pack.replicate = false;
    for (std::int64_t v : {5, 7, 9}) {
        compiler::PackSlot slot;
        slot.kind = compiler::PackSlot::Kind::Const;
        slot.value = v;
        pack.slots.push_back(slot);
    }
    pack.dst = 0;
    program.instrs.push_back(pack);
    compiler::FheInstr rot;
    rot.op = compiler::FheOpcode::Rotate;
    rot.a = 0;
    rot.step = 1;
    rot.dst = 1;
    program.instrs.push_back(rot);
    program.num_regs = 2;
    program.output_reg = 1;
    program.output_width = 4;

    const compiler::RotationKeyPlan plan =
        compiler::effectiveKeyPlan(program, 0);
    const LaneFit fit = analyzeLaneFit(program, plan, 128);
    // Stride 4 would put the wrapped constant inside the 4-slot
    // readout; the smallest sound stride is 8 (dirty_top = 1).
    ASSERT_TRUE(fit.safe) << fit.reason;
    EXPECT_GE(fit.stride, 8);

    // And the certified stride really is bit-identical to solo.
    std::vector<ir::Env> envs(2);
    std::vector<const ir::Env*> lanes = {&envs[0], &envs[1]};
    compiler::FheRuntime packed_rt(smallParams());
    const compiler::RowRunResult packed = packed_rt.runRow(
        program, plan, fit.stride,
        {compiler::wholeProgramMember(program, 2)}, {lanes});
    compiler::FheRuntime solo_rt(smallParams());
    const compiler::RunResult solo = solo_rt.run(program, envs[0], plan);
    EXPECT_EQ(packed.member_outputs[0][0], solo.output);
    EXPECT_EQ(packed.member_outputs[0][1], solo.output);
    EXPECT_EQ(solo.output, (std::vector<std::int64_t>{7, 9, 0, 0}));
}

/// Noise and key accounting of one row execution.
struct Accounting
{
    int final_budget = 0;
    int consumed = 0;
    int rotation_keys = 0;
    int drops = 0;

    bool operator==(const Accounting& other) const
    {
        return final_budget == other.final_budget &&
               consumed == other.consumed &&
               rotation_keys == other.rotation_keys &&
               drops == other.drops;
    }
};

std::ostream&
operator<<(std::ostream& os, const Accounting& a)
{
    return os << "{" << a.final_budget << ", " << a.consumed << ", "
              << a.rotation_keys << ", " << a.drops << "}";
}

Accounting
accountingOf(const compiler::RunResult& result)
{
    return {result.final_noise_budget, result.consumed_noise,
            result.rotation_keys, result.mod_switch_drops};
}

compiler::Compiled
compileForRow(const ir::ExprPtr& source, bool mod_switch)
{
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    const compiler::CompilerDriver driver(&ruleset);
    compiler::DriverConfig config = compiler::DriverConfig::greedy({}, 20);
    if (mod_switch) config.passes.push_back("mod-switch");
    return driver.compile(compiler::canonicalize(source), config);
}

/// Lane environment pointers for \p envs, in order.
std::vector<const ir::Env*>
lanePointers(const std::vector<ir::Env>& envs)
{
    std::vector<const ir::Env*> lanes;
    for (const ir::Env& env : envs) lanes.push_back(&env);
    return lanes;
}

/// Expects \p output to start with the reference evaluator's value of
/// \p source under \p env (a scalar result sits in slot 0 of a wider
/// readout) and folds every decoded slot into \p digest.
void
expectReference(const std::vector<std::int64_t>& output,
                const ir::ExprPtr& source, const ir::Env& env,
                std::uint64_t& digest)
{
    const std::vector<std::int64_t> expected =
        ir::Evaluator().evaluate(source, env).slots;
    ASSERT_GE(output.size(), expected.size());
    EXPECT_EQ(std::vector<std::int64_t>(
                  output.begin(),
                  output.begin() +
                      static_cast<std::ptrdiff_t>(expected.size())),
              expected);
    for (std::int64_t v : output) {
        digest = digest * 31 + static_cast<std::uint64_t>(v);
    }
}

/// One kernel of the runtime-level row test, with the accounting its
/// solo run (lane 0's inputs) and its three-lane packed row report.
/// The pinned numbers are the ones solo, packed and cross-kernel rows
/// produced when each still had its own run path. Outputs must equal
/// the reference evaluator's; a digest over every decoded slot pins
/// the readout past the result's own width too.
struct PinnedKernel
{
    std::string name;
    ir::ExprPtr source;
    bool mod_switch = false;
    Accounting solo;
    Accounting packed;
};

TEST(ServiceBatchingTest, RowRunsMatchEvaluatorAndPinnedAccounting)
{
    // Runtime-level check, bypassing the service: solo runs and
    // three-lane packed rows of dot-8 and the Fig. 5 kernels at small
    // parameters (with mod-switch on for the Fig. 5 ones).
    const std::vector<PinnedKernel> kernels = {
        {"dot-8", ir::parse(dotSource(8)), false, {76, 23, 3, 0},
         {76, 23, 3, 0}},
        {"dot-4", benchsuite::dotProduct(4).program, true, {49, 50, 2, 1},
         {49, 50, 2, 1}},
        {"hamming-4", benchsuite::hammingDistance(4).program, true,
         {37, 62, 2, 1}, {36, 63, 2, 1}},
        {"l2-4", benchsuite::l2Distance(4).program, true, {49, 50, 2, 1},
         {49, 50, 2, 1}},
        {"linreg-4", benchsuite::linearReg(4).program, true,
         {24, 75, 0, 2}, {24, 75, 0, 2}},
        {"polyreg-4", benchsuite::polyReg(4).program, true,
         {40, 59, 0, 1}, {40, 59, 0, 1}},
        {"box-blur-3", benchsuite::boxBlur(3).program, true,
         {78, 21, 3, 0}, {78, 21, 3, 0}},
        {"roberts-2", benchsuite::robertsCross(2).program, true,
         {50, 49, 1, 1}, {50, 49, 1, 1}},
        {"matmul-2", benchsuite::matMul(2).program, true, {50, 49, 1, 1},
         {50, 49, 1, 1}},
        {"max-4", benchsuite::maxKernel(4).program, true, {34, 65, 0, 0},
         {34, 65, 0, 0}},
    };
    std::uint64_t digest = 0;
    for (const PinnedKernel& kernel : kernels) {
        SCOPED_TRACE(kernel.name);
        const compiler::Compiled compiled =
            compileForRow(kernel.source, kernel.mod_switch);
        const compiler::RotationKeyPlan plan =
            compiler::effectiveKeyPlan(compiled.program, 0);
        const LaneFit fit = analyzeLaneFit(compiled.program, plan, 128);
        ASSERT_TRUE(fit.safe) << fit.reason;
        ASSERT_GE(fit.max_lanes, 3);

        std::vector<ir::Env> envs;
        for (int i = 0; i < 3; ++i) {
            envs.push_back(inputsFor(kernel.source, i));
        }
        compiler::FheRuntime packed_rt(smallParams());
        const compiler::RowRunResult packed = packed_rt.runRow(
            compiled.program, plan, fit.stride,
            {compiler::wholeProgramMember(compiled.program, 3)},
            {lanePointers(envs)});
        ASSERT_EQ(packed.member_outputs.size(), 1u);
        ASSERT_EQ(packed.member_outputs[0].size(), 3u);
        EXPECT_GT(packed.shared.final_noise_budget, 0);
        EXPECT_EQ(accountingOf(packed.shared), kernel.packed);

        for (std::size_t i = 0; i < envs.size(); ++i) {
            SCOPED_TRACE("lane " + std::to_string(i));
            compiler::FheRuntime solo_rt(smallParams());
            const compiler::RunResult solo =
                solo_rt.run(compiled.program, envs[i], plan);
            expectReference(solo.output, kernel.source, envs[i], digest);
            expectReference(packed.member_outputs[0][i], kernel.source,
                            envs[i], digest);
            EXPECT_EQ(packed.member_outputs[0][i], solo.output);
            if (i == 0) EXPECT_EQ(accountingOf(solo), kernel.solo);
        }
    }

    // A two-member cross-kernel row: box-blur-3 on lanes 0-1 and
    // linreg-4 on lane 2, at the larger of the two certified strides.
    const std::vector<ir::ExprPtr> sources = {
        benchsuite::boxBlur(3).program, benchsuite::linearReg(4).program};
    const std::vector<int> lane_counts = {2, 1};
    std::vector<compiler::Compiled> artifacts;
    artifacts.reserve(sources.size());
    std::vector<std::vector<ir::Env>> member_envs;
    BatchPlanner::Group group;
    group.row_slots = 128;
    for (std::size_t m = 0; m < sources.size(); ++m) {
        artifacts.push_back(compileForRow(sources[m], true));
        BatchPlanner::GroupMember member;
        member.compile.source.hi = m; // Synthetic, distinct.
        member.compiled = &artifacts.back();
        member.plan = compiler::effectiveKeyPlan(artifacts.back().program, 0);
        member.min_stride =
            analyzeLaneFit(artifacts.back().program, member.plan, 128).stride;
        member.lane_base = group.total_lanes;
        member.lanes.resize(static_cast<std::size_t>(lane_counts[m]));
        group.stride = std::max(group.stride, member.min_stride);
        if (m == 0) {
            group.merged_plan = member.plan;
        } else {
            std::optional<compiler::RotationKeyPlan> merged =
                mergeKeyPlans(group.merged_plan, member.plan);
            ASSERT_TRUE(merged.has_value());
            group.merged_plan = std::move(*merged);
        }
        std::vector<ir::Env> envs;
        for (int l = 0; l < lane_counts[m]; ++l) {
            envs.push_back(inputsFor(sources[m], group.total_lanes + l));
        }
        member_envs.push_back(std::move(envs));
        group.total_lanes += lane_counts[m];
        group.members.push_back(std::move(member));
    }
    ASSERT_EQ(group.stride, 32);
    const compiler::CompositeProgram composite = composeGroup(group);
    std::vector<std::vector<const ir::Env*>> member_lanes;
    for (const std::vector<ir::Env>& envs : member_envs) {
        member_lanes.push_back(lanePointers(envs));
    }
    compiler::FheRuntime composite_rt(smallParams());
    const compiler::RowRunResult row = composite_rt.runRow(
        composite.program, composite.plan, composite.lane_stride,
        composite.members, member_lanes);
    EXPECT_EQ(accountingOf(row.shared), (Accounting{24, 75, 3, 2}));
    EXPECT_EQ(row.member_final_budgets, (std::vector<int>{24, 24}));
    for (std::size_t m = 0; m < sources.size(); ++m) {
        for (std::size_t l = 0; l < member_envs[m].size(); ++l) {
            SCOPED_TRACE("member " + std::to_string(m) + " lane " +
                         std::to_string(l));
            expectReference(row.member_outputs[m][l], sources[m],
                            member_envs[m][l], digest);
        }
    }
    EXPECT_EQ(digest, 582819297321636355u);
}

// ---- cross-kernel packing ---------------------------------------------

TEST(ServiceBatchingTest, CrossKernelPackedOutputsBitIdenticalToSolo)
{
    // Three distinct kernels, distinct inputs, one parameter set: with
    // cross_kernel on they consolidate into shared rows; outputs must
    // equal the solo service's and the reference evaluator's, at 1 and
    // 8 workers (the acceptance contract for cross-kernel packing).
    const std::vector<ir::ExprPtr> sources = {
        ir::parse(dotSource(4)), ir::parse(dotSource(3)),
        ir::parse("(+ (* a0 b0) b1)")};
    auto makeBatch = [&sources] {
        std::vector<RunRequest> batch;
        for (int i = 0; i < 12; ++i) {
            batch.push_back(laneRequest(
                "k" + std::to_string(i),
                sources[static_cast<std::size_t>(i) % sources.size()],
                i));
        }
        return batch;
    };
    const auto solo =
        runAndSnapshot(batchedConfig(2, /*max_lanes=*/1, 0.0),
                       makeBatch());
    for (int workers : {1, 8}) {
        ServiceConfig config = batchedConfig(workers, 0, /*window=*/0.05);
        config.cross_kernel = true;
        const auto packed = runAndSnapshot(config, makeBatch());
        ASSERT_EQ(solo.size(), packed.size()) << workers << " workers";
        for (const auto& [name, solo_snap] : solo) {
            ASSERT_TRUE(packed.count(name)) << name;
            EXPECT_EQ(solo_snap.output, packed.at(name).output)
                << name << " at " << workers << " workers";
        }
    }
    for (int i = 0; i < 12; ++i) {
        const ir::ExprPtr& source =
            sources[static_cast<std::size_t>(i) % sources.size()];
        const ir::Value expected =
            ir::Evaluator().evaluate(source, inputsFor(source, i));
        EXPECT_EQ(solo.at("k" + std::to_string(i)).output[0],
                  expected.slots[0]);
    }
}

TEST(ServiceBatchingTest, CrossKernelConsolidatesWindowFlushedGroups)
{
    // Two kernels with two requests each against an 8-lane cap: neither
    // fills a row alone, so per-artifact mode executes two window
    // flushed groups, while cross-kernel mode consolidates them into
    // one composite row of 4 lanes spanning 2 members.
    const ir::ExprPtr source_a = ir::parse(dotSource(4));
    const ir::ExprPtr source_b = ir::parse(dotSource(3));
    auto makeBatch = [&] {
        std::vector<RunRequest> batch;
        for (int i = 0; i < 2; ++i) {
            batch.push_back(laneRequest("a" + std::to_string(i),
                                        source_a, i));
            batch.push_back(laneRequest("b" + std::to_string(i),
                                        source_b, i));
        }
        return batch;
    };
    {
        CompileService service(batchedConfig(2, 8, /*window=*/0.05));
        for (const RunResponse& response :
             service.runBatch(makeBatch())) {
            ASSERT_TRUE(response.ok)
                << response.name << ": " << response.error;
            EXPECT_EQ(response.packed_lanes, 2) << response.name;
        }
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.packed_groups, 2u);
        EXPECT_EQ(stats.composite_groups, 0u);
    }
    {
        ServiceConfig config = batchedConfig(2, 8, /*window=*/0.05);
        config.cross_kernel = true;
        CompileService service(config);
        for (const RunResponse& response :
             service.runBatch(makeBatch())) {
            ASSERT_TRUE(response.ok)
                << response.name << ": " << response.error;
            EXPECT_EQ(response.packed_lanes, 4) << response.name;
        }
        const ServiceStats stats = service.stats();
        EXPECT_EQ(stats.packed_groups, 1u);
        EXPECT_EQ(stats.composite_groups, 1u);
        EXPECT_EQ(stats.composite_members, 2u);
        EXPECT_EQ(stats.packed_lanes, 4u);
        EXPECT_EQ(stats.composite_cache_misses, 1u);
    }
}

TEST(ServiceBatchingTest, CrossKernelLaneOrderIsContentDeterministic)
{
    // Submitting the same mixed batch in different orders must produce
    // the same composite lane assignment per request: lane order is a
    // content hash of the member run keys, never the arrival order.
    const std::vector<ir::ExprPtr> sources = {ir::parse(dotSource(4)),
                                              ir::parse(dotSource(3))};
    auto makeBatch = [&sources](bool reversed) {
        std::vector<RunRequest> batch;
        for (int i = 0; i < 4; ++i) {
            batch.push_back(laneRequest(
                "k" + std::to_string(i),
                sources[static_cast<std::size_t>(i) % sources.size()],
                i));
        }
        if (reversed) std::reverse(batch.begin(), batch.end());
        return batch;
    };
    std::map<std::string, int> forward_lanes;
    std::map<std::string, int> reversed_lanes;
    for (bool reversed : {false, true}) {
        ServiceConfig config = batchedConfig(1, 8, /*window=*/0.05);
        config.cross_kernel = true;
        CompileService service(config);
        for (const RunResponse& response :
             service.runBatch(makeBatch(reversed))) {
            ASSERT_TRUE(response.ok)
                << response.name << ": " << response.error;
            EXPECT_EQ(response.packed_lanes, 4) << response.name;
            (reversed ? reversed_lanes
                      : forward_lanes)[response.name] = response.lane;
        }
    }
    EXPECT_EQ(forward_lanes, reversed_lanes);
}

// ---- group-identity memoization ---------------------------------------

TEST(ServiceBatchingTest, FitMemoHitsOncePerGroupIdentity)
{
    // Eight distinct-input requests of one kernel share one group
    // identity: the lane-safety analysis runs once (miss), the other
    // seven owners hit the memo. A second kernel adds exactly one more
    // miss.
    const ir::ExprPtr source_a = ir::parse(dotSource(4));
    const ir::ExprPtr source_b = ir::parse(dotSource(3));
    CompileService service(batchedConfig(2, 8, /*window=*/0.05));
    std::vector<RunRequest> batch;
    for (int i = 0; i < 8; ++i) {
        batch.push_back(laneRequest("a" + std::to_string(i), source_a, i));
    }
    for (const RunResponse& response : service.runBatch(std::move(batch))) {
        ASSERT_TRUE(response.ok) << response.name << ": " << response.error;
    }
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.fit_memo_misses, 1u);
    EXPECT_EQ(stats.fit_memo_hits, 7u);

    std::vector<RunRequest> second;
    for (int i = 0; i < 4; ++i) {
        second.push_back(laneRequest("b" + std::to_string(i), source_b, i));
    }
    for (const RunResponse& response :
         service.runBatch(std::move(second))) {
        ASSERT_TRUE(response.ok) << response.name << ": " << response.error;
    }
    stats = service.stats();
    EXPECT_EQ(stats.fit_memo_misses, 2u);
    EXPECT_EQ(stats.fit_memo_hits, 10u);

    // Same kernel, different effective budget: a new group identity.
    std::vector<RunRequest> budgeted;
    budgeted.push_back(laneRequest("c0", source_a, 0, /*key_budget=*/2));
    for (const RunResponse& response :
         service.runBatch(std::move(budgeted))) {
        ASSERT_TRUE(response.ok) << response.name << ": " << response.error;
    }
    stats = service.stats();
    EXPECT_EQ(stats.fit_memo_misses, 3u);
}

// ---- flusher shutdown: drain-on-stop ----------------------------------

TEST(ServiceBatchingTest, ShutdownDrainsPendingGroups)
{
    // Three lanes sit in a pending group whose window (30 s) never
    // expires and whose capacity (8) is never reached; destroying the
    // service must stop the flusher, drain the planner and settle every
    // outstanding future — packed, in order, before any member the
    // tasks touch is torn down (TSan checks the ordering).
    const ir::ExprPtr source = ir::parse(dotSource(4));
    std::vector<std::future<RunResponse>> futures;
    {
        CompileService service(batchedConfig(2, 8, /*window=*/30.0));
        for (int i = 0; i < 3; ++i) {
            futures.push_back(service.submitRun(
                laneRequest("k" + std::to_string(i), source, i)));
        }
        // Wait until the lanes actually reach the planner (the compile
        // stage settles asynchronously) so the destructor exercises the
        // drain path, not the not-yet-coalesced one.
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (service.stats().compiled < 1 &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(futures[static_cast<std::size_t>(i)].wait_for(
                      std::chrono::seconds(0)),
                  std::future_status::ready)
            << "future " << i << " not settled by shutdown";
        const RunResponse response =
            futures[static_cast<std::size_t>(i)].get();
        ASSERT_TRUE(response.ok)
            << response.name << ": " << response.error;
        const ir::Value expected = ir::Evaluator().evaluate(
            source, inputsFor(source, i));
        EXPECT_EQ(response.result.output[0], expected.slots[0])
            << response.name;
    }
}

// ---- counter consistency under concurrency (exercised by TSan CI) -----

TEST(ServiceBatchingTest, ConcurrentRunBatchAndStatsConsistency)
{
    // The audit invariants: every counter is written under its guarding
    // mutex and the aggregate identities below hold for any quiescent
    // snapshot, at any worker count, with the coalescer on. stats() is
    // hammered concurrently so TSan can prove the reads are not torn.
    const ir::ExprPtr source_a = ir::parse(dotSource(4));
    const ir::ExprPtr source_b = ir::parse(dotSource(3));
    CompileService service(batchedConfig(4, 4, /*window=*/0.02));

    std::atomic<bool> done{false};
    std::thread poller([&service, &done] {
        while (!done.load()) {
            const ServiceStats snap = service.stats();
            // Monotonic counters can never make hits exceed lookups.
            EXPECT_LE(snap.run_cache.hits + snap.run_cache.inflight_joins +
                          snap.run_cache.misses,
                      snap.run_submitted);
            std::this_thread::yield();
        }
    });

    const int threads = 4;
    const int per_thread = 10;
    std::vector<std::thread> submitters;
    for (int t = 0; t < threads; ++t) {
        submitters.emplace_back([&, t] {
            std::vector<RunRequest> batch;
            for (int i = 0; i < per_thread; ++i) {
                const ir::ExprPtr& source =
                    (i % 2 == 0) ? source_a : source_b;
                // Mix distinct inputs with cross-thread duplicates.
                const int index = (i % 3 == 0) ? i : t * 100 + i;
                batch.push_back(laneRequest(
                    "t" + std::to_string(t) + "i" + std::to_string(i),
                    source, index));
            }
            for (RunResponse& response :
                 service.runBatch(std::move(batch))) {
                EXPECT_TRUE(response.ok)
                    << response.name << ": " << response.error;
            }
        });
    }
    for (std::thread& thread : submitters) thread.join();
    done.store(true);
    poller.join();

    const ServiceStats stats = service.stats();
    // The aggregate identities (cache acquires vs. submissions, owner
    // outcomes, executions per group) live in one place now; an empty
    // string means every cross-counter invariant held.
    EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true), "");
    EXPECT_EQ(stats.run_failed, 0u);
}

// ---- telemetry --------------------------------------------------------

TEST(ServiceBatchingTest, TracedPackedRunIsBitIdenticalAndWellNested)
{
    // The determinism contract: enabling telemetry never changes
    // scheduling decisions or outputs. And the trace itself must be a
    // forest of well-nested spans: compile/execute inside the dispatch
    // span of the same worker, the execute sub-phases inside execute.
    const ir::ExprPtr source = ir::parse(dotSource(4));
    auto makeBatch = [&source] {
        std::vector<RunRequest> batch;
        for (int i = 0; i < 8; ++i) {
            batch.push_back(
                laneRequest("k" + std::to_string(i), source, i));
        }
        return batch;
    };

    const auto untraced =
        runAndSnapshot(batchedConfig(8, 4, 1.0), makeBatch());

    ServiceConfig config = batchedConfig(8, 4, 1.0);
    config.telemetry = true;
    CompileService service(config);
    std::map<std::string, Snapshot> traced;
    for (RunResponse& response : service.runBatch(makeBatch())) {
        EXPECT_TRUE(response.ok)
            << response.name << ": " << response.error;
        Snapshot snap;
        snap.output = response.result.output;
        snap.fresh = response.result.fresh_noise_budget;
        snap.final_budget = response.result.final_noise_budget;
        snap.consumed = response.result.consumed_noise;
        snap.keys = response.result.rotation_keys;
        snap.packed_lanes = response.packed_lanes;
        snap.lane = response.lane;
        traced[response.name] = snap;
    }

    ASSERT_EQ(untraced.size(), traced.size());
    for (const auto& [name, snap] : untraced) {
        ASSERT_TRUE(traced.count(name)) << name;
        const Snapshot& other = traced.at(name);
        EXPECT_EQ(snap.output, other.output) << name;
        EXPECT_EQ(snap.fresh, other.fresh) << name;
        EXPECT_EQ(snap.final_budget, other.final_budget) << name;
        EXPECT_EQ(snap.consumed, other.consumed) << name;
        EXPECT_EQ(snap.keys, other.keys) << name;
        EXPECT_EQ(snap.packed_lanes, other.packed_lanes) << name;
        EXPECT_EQ(snap.lane, other.lane) << name;
    }

    // Futures resolve from inside worker tasks, so wait for the final
    // dispatch spans' epilogues before asserting on the trace.
    service.drain();
    const ServiceStats stats = service.stats();
    EXPECT_EQ(checkStatsInvariants(stats, /*quiescent=*/true), "");
    EXPECT_TRUE(stats.telemetry.enabled);
    EXPECT_EQ(stats.telemetry.dropped, 0u);

    const std::vector<telemetry::TraceEvent> events =
        service.telemetry().events();
    auto spansNamed = [&events](const char* name) {
        std::vector<const telemetry::TraceEvent*> matched;
        for (const telemetry::TraceEvent& event : events) {
            if (!event.isInstant() &&
                std::string_view(event.name) == name) {
                matched.push_back(&event);
            }
        }
        return matched;
    };
    auto containedIn = [](const telemetry::TraceEvent& inner,
                          const std::vector<const telemetry::TraceEvent*>&
                              outers) {
        for (const telemetry::TraceEvent* outer : outers) {
            if (outer->tid == inner.tid &&
                outer->start_ns <= inner.start_ns &&
                inner.end_ns <= outer->end_ns) {
                return true;
            }
        }
        return false;
    };

    // One enqueue span per submission; one execute span per execution.
    EXPECT_EQ(spansNamed("enqueue").size(), std::size_t{8});
    EXPECT_EQ(spansNamed("execute").size(),
              static_cast<std::size_t>(stats.executed));

    const auto dispatch = spansNamed("dispatch");
    const auto execute = spansNamed("execute");
    EXPECT_FALSE(dispatch.empty());
    for (const char* name : {"compile", "execute"}) {
        for (const telemetry::TraceEvent* span : spansNamed(name)) {
            EXPECT_TRUE(containedIn(*span, dispatch))
                << name << " span at " << span->start_ns
                << " ns has no enclosing dispatch span on tid "
                << span->tid;
        }
    }
    for (const char* name : {"setup", "evaluate", "decode"}) {
        for (const telemetry::TraceEvent* span : spansNamed(name)) {
            EXPECT_TRUE(containedIn(*span, execute))
                << name << " span at " << span->start_ns
                << " ns has no enclosing execute span on tid "
                << span->tid;
        }
    }
}

} // namespace
} // namespace chehab::service
