/// \file
/// PolyArena semantics and the arena/in-place determinism contract:
/// acquire/release/reuse accounting, best-fit selection, the
/// zero-steady-state guarantee after one priming pass (through the
/// scheme and through whole runtime replays), an 8-thread
/// acquire/release stress (the TSan job runs this file), and in-place
/// evaluation on recycled buffers — every consume branch, the Fig. 5
/// mix and 8 concurrent workers — checked against ir::Evaluator, with
/// pinned noise budgets.
#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "benchsuite/kernels.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "fhe/poly_arena.h"
#include "fhe/sealite.h"
#include "ir/evaluator.h"
#include "ir/parser.h"

namespace chehab {
namespace {

// -- PolyArena unit semantics ------------------------------------------

TEST(PolyArenaTest, AcquireReleaseReuse)
{
    fhe::PolyArena arena;
    auto buffer = arena.acquire(256);
    EXPECT_EQ(buffer.size(), 256u);
    EXPECT_EQ(arena.stats().allocs, 1u);
    EXPECT_EQ(arena.stats().reuses, 0u);
    EXPECT_EQ(arena.stats().bytes, 256u * 8u);

    arena.release(std::move(buffer));
    auto again = arena.acquire(256);
    EXPECT_EQ(arena.stats().allocs, 1u);
    EXPECT_EQ(arena.stats().reuses, 1u);

    // A smaller request reuses (and shrinks) a pooled buffer too.
    arena.release(std::move(again));
    auto smaller = arena.acquire(64);
    EXPECT_EQ(smaller.size(), 64u);
    EXPECT_EQ(arena.stats().allocs, 1u);
    EXPECT_EQ(arena.stats().reuses, 2u);
}

TEST(PolyArenaTest, BestFitKeepsLargeBuffersForLargeRequests)
{
    fhe::PolyArena arena;
    auto large = arena.acquire(4096);
    auto small = arena.acquire(64);
    arena.release(std::move(large));
    arena.release(std::move(small));

    // The small request must take the 64-word buffer, leaving the
    // 4096-word one for the large request: first-fit here would force
    // the second acquire to mint.
    auto a = arena.acquire(64);
    auto b = arena.acquire(4096);
    EXPECT_EQ(arena.stats().allocs, 2u);
    EXPECT_EQ(arena.stats().reuses, 2u);
    EXPECT_GE(b.capacity(), 4096u);
}

TEST(PolyArenaTest, AcquireZeroedClearsRecycledContents)
{
    fhe::PolyArena arena;
    auto buffer = arena.acquire(32);
    for (auto& w : buffer) w = ~0ULL;
    arena.release(std::move(buffer));
    const auto zeroed = arena.acquireZeroed(32);
    EXPECT_EQ(arena.stats().reuses, 1u);
    for (const std::uint64_t w : zeroed) EXPECT_EQ(w, 0u);
}

TEST(PolyArenaTest, EightThreadAcquireReleaseStress)
{
    // One shared arena hammered from 8 workers with mixed sizes: the
    // TSan leg runs this to pin the locking discipline; the accounting
    // identity (every acquire is exactly one alloc or one reuse) must
    // hold regardless of interleaving.
    fhe::PolyArena arena;
    constexpr int kWorkers = 8;
    constexpr int kIters = 400;
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&arena, t] {
            const std::size_t sizes[] = {32, 64, 1024, 4096};
            for (int i = 0; i < kIters; ++i) {
                const std::size_t words =
                    sizes[static_cast<std::size_t>(i + t) % 4];
                auto buffer = arena.acquire(words);
                buffer[0] = static_cast<std::uint64_t>(t);
                buffer[words - 1] = static_cast<std::uint64_t>(i);
                arena.release(std::move(buffer));
            }
        });
    }
    for (auto& worker : workers) worker.join();
    const fhe::PolyArena::Stats stats = arena.stats();
    EXPECT_EQ(stats.allocs + stats.reuses,
              static_cast<std::uint64_t>(kWorkers) * kIters);
    EXPECT_GT(stats.reuses, 0u);
}

// -- zero-steady-state through the scheme ------------------------------

TEST(PolyArenaTest, SchemeReachesZeroAllocsAfterPriming)
{
    fhe::SealLite scheme;
    const fhe::Plaintext plain = scheme.encode({1, 2, 3, 4});
    const fhe::Ciphertext ct = scheme.encrypt(plain);

    // Priming pass: first multiply mints every size class it needs.
    scheme.recycle(scheme.multiply(ct, ct));
    const fhe::PolyArena::Stats primed = scheme.arenaStats();
    for (int i = 0; i < 8; ++i) {
        scheme.recycle(scheme.multiply(ct, ct));
    }
    const fhe::PolyArena::Stats steady = scheme.arenaStats();
    EXPECT_EQ(steady.allocs, primed.allocs)
        << "steady-state multiplies minted fresh buffers";
    EXPECT_GT(steady.reuses, primed.reuses);
}

// -- in-place evaluation on recycled buffers ---------------------------

/// One kernel compiled once (no-opt pipeline: the evaluator, not the
/// optimizer, is under test) with its inputs and the reference output.
struct Case
{
    benchsuite::Kernel kernel;
    compiler::Compiled compiled;
    ir::Env env;
    std::vector<std::int64_t> expected;
};

Case
makeCase(benchsuite::Kernel kernel)
{
    Case c{std::move(kernel), {}, {}, {}};
    c.compiled = compiler::compileNoOpt(c.kernel.program);
    c.env = benchsuite::syntheticInputs(c.kernel.program);
    c.expected = ir::Evaluator().evaluate(c.kernel.program, c.env).slots;
    return c;
}

/// The Fig. 5 mix in small form: one representative of each kernel
/// family (reduction, elementwise, image stencil, matrix, tree).
std::vector<Case>
kernelMix()
{
    std::vector<Case> mix;
    mix.push_back(makeCase(benchsuite::dotProduct(4)));
    mix.push_back(makeCase(benchsuite::l2Distance(4)));
    mix.push_back(makeCase(benchsuite::polyReg(4)));
    mix.push_back(makeCase(benchsuite::boxBlur(3)));
    mix.push_back(makeCase(benchsuite::matMul(2)));
    mix.push_back(makeCase(benchsuite::maxKernel(4)));
    return mix;
}

TEST(InPlaceEvaluationTest, RecycledBuffersMatchEvaluatorAndPinnedBudget)
{
    // Two runs per kernel on one runtime, reseeded identically: the
    // first draws fresh arena buffers, the second recycled ones the
    // first handed back, so any stale word an op fails to overwrite or
    // clear shows up as a difference. Both must decode the evaluator's
    // output and land on the pinned noise accounting, which was taken
    // when the copying evaluator and an arena-off scheme still existed
    // and matched the in-place path bit for bit.
    struct Pinned
    {
        benchsuite::Kernel kernel;
        int final_noise_budget;
        int consumed_noise;
    };
    const Pinned pins[] = {
        {benchsuite::polyReg(4), 91, 68},
        {benchsuite::l2Distance(4), 134, 25},
    };
    constexpr std::uint64_t kSeed = 0x5eed;
    for (const Pinned& pin : pins) {
        const Case c = makeCase(pin.kernel);
        compiler::FheRuntime runtime;
        // Measure the fresh budget before reseeding, as RuntimePool
        // does, so both runs start from the same randomness.
        runtime.scheme().freshNoiseBudget();
        for (int pass = 0; pass < 2; ++pass) {
            runtime.scheme().reseedRandomness(kSeed);
            const fhe::PolyArena::Stats before = runtime.arenaStats();
            const compiler::RunResult result =
                runtime.run(c.compiled.program, c.env);
            EXPECT_EQ(result.output, c.expected)
                << c.kernel.name << " pass " << pass;
            EXPECT_EQ(result.final_noise_budget, pin.final_noise_budget)
                << c.kernel.name << " pass " << pass;
            EXPECT_EQ(result.consumed_noise, pin.consumed_noise)
                << c.kernel.name << " pass " << pass;
            if (pass == 1) {
                EXPECT_GT(runtime.arenaStats().reuses, before.reuses)
                    << c.kernel.name << ": replay used no recycled buffer";
            }
        }
        EXPECT_GT(runtime.inPlaceStats().consumed, 0u) << c.kernel.name;
    }
}

TEST(InPlaceEvaluationTest, RuntimeReplayReachesZeroAllocsAfterPriming)
{
    // One pass over the mix primes every buffer size class the runtime
    // needs; replaying the whole mix must then mint nothing, and every
    // output on both passes must match the evaluator.
    const std::vector<Case> mix = kernelMix();
    compiler::FheRuntime runtime;
    fhe::PolyArena::Stats primed;
    for (int pass = 0; pass < 2; ++pass) {
        if (pass == 1) primed = runtime.arenaStats();
        for (const Case& c : mix) {
            EXPECT_EQ(runtime.run(c.compiled.program, c.env).output,
                      c.expected)
                << c.kernel.name << " pass " << pass;
        }
    }
    const fhe::PolyArena::Stats steady = runtime.arenaStats();
    EXPECT_EQ(steady.allocs, primed.allocs)
        << "the replay minted fresh arena buffers";
    EXPECT_GT(steady.reuses, primed.reuses);
}

TEST(InPlaceEvaluationTest, EveryConsumeBranchMatchesEvaluator)
{
    // Small programs that reach each way the evaluator can consume a
    // dying operand (left or right, with the other operand still live)
    // or recycle one, run twice on one runtime so the second pass sees
    // recycled buffers. The kernel mix alone never consumes the right
    // operand of an add whose left one stays live.
    const char* const programs[] = {
        "(* (+ a (* b c)) a)",       // Add: right dies, left live.
        "(* (+ (* a b) c) c)",       // Add: left dies, right live.
        "(* (- a (* b c)) a)",       // Sub: right dies, left live.
        "(* (- (* a b) c) c)",       // Sub: left dies, right live.
        "(+ (* (pt w) (* x y)) 7)",  // MulPlain and AddPlain consume.
        "(* (- (* a b)) a)",         // Negate consumes.
        "(VecAdd (<< (VecMul (Vec a b c d) (Vec e f g h)) 1) (Vec a b c d))",
    };
    compiler::FheRuntime runtime;
    for (const char* text : programs) {
        const Case c = makeCase({text, ir::parse(text)});
        for (int pass = 0; pass < 2; ++pass) {
            EXPECT_EQ(runtime.run(c.compiled.program, c.env).output,
                      c.expected)
                << text << " pass " << pass;
        }
    }
    EXPECT_GT(runtime.inPlaceStats().consumed, 0u);
}

TEST(InPlaceEvaluationTest, EightWorkersMatchEvaluator)
{
    // 8 workers, each on its own runtime: all must decode the
    // evaluator's output. This is the "any worker count" leg of the
    // determinism contract and the TSan job's cross-thread arena
    // exercise through the full scheme.
    const Case c = makeCase(benchsuite::dotProduct(4));
    constexpr int kWorkers = 8;
    std::vector<std::vector<std::int64_t>> outputs(kWorkers);
    std::vector<std::thread> workers;
    workers.reserve(kWorkers);
    for (int t = 0; t < kWorkers; ++t) {
        workers.emplace_back([&c, &outputs, t] {
            compiler::FheRuntime runtime;
            outputs[static_cast<std::size_t>(t)] =
                runtime.run(c.compiled.program, c.env).output;
        });
    }
    for (auto& worker : workers) worker.join();
    for (int t = 0; t < kWorkers; ++t) {
        EXPECT_EQ(outputs[static_cast<std::size_t>(t)], c.expected)
            << "worker " << t;
    }
}

} // namespace
} // namespace chehab
