/// \file
/// End-to-end RL training tests: PPO improves the policy's episode return
/// on a tiny corpus, and the trained agent optimizes held-out programs
/// better than chance. These run with deliberately small budgets so the
/// suite stays fast; the benches scale them up. The agent the benchmark
/// trains is pinned bit for bit (parameters, optimize() results, every
/// sampled log-prob and value) and shared by four optimize() threads.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <numeric>
#include <thread>

#include "benchsuite/kernels.h"
#include "dataset/dataset.h"
#include "dataset/motif_gen.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "rl/agent.h"
#include "support/binary_io.h"

namespace chehab::rl {
namespace {

const trs::Ruleset&
ruleset()
{
    static const trs::Ruleset rs = trs::buildChehabRuleset();
    return rs;
}

AgentConfig
tinyAgentConfig()
{
    AgentConfig config;
    config.env.max_steps = 12;
    config.env.max_locations = 8;
    config.policy.encoder.d_model = 16;
    config.policy.encoder.n_layers = 1;
    config.policy.encoder.n_heads = 2;
    config.policy.encoder.d_ff = 32;
    config.policy.encoder.max_len = 48;
    config.policy.rule_hidden = {32};
    config.policy.loc_hidden = {16};
    config.policy.critic_hidden = {32};
    config.ppo.steps_per_update = 64;
    config.ppo.minibatch_size = 32;
    config.ppo.update_epochs = 2;
    config.ppo.total_timesteps = 256;
    config.ppo.max_token_len = 48;
    config.ppo.learning_rate = 3e-4f;
    config.compile_rollouts = 3;
    return config;
}

std::vector<ir::ExprPtr>
tinyCorpus()
{
    return {
        ir::parse("(+ (* x 1) 0)"),
        ir::parse("(+ (* a b) (* a c))"),
        ir::parse("(Vec (+ a b) (+ c d))"),
        ir::parse("(Vec (* a b) (* c d))"),
        ir::parse("(- (* k m) (* k n))"),
    };
}

TEST(PpoTrainerTest, RunsAndCollectsEpisodes)
{
    RlAgent agent(ruleset(), tinyAgentConfig());
    const TrainStats stats = agent.train(tinyCorpus());
    EXPECT_GE(stats.total_steps, 256);
    EXPECT_FALSE(stats.episode_returns.empty());
    EXPECT_FALSE(stats.mean_return_curve.empty());
    EXPECT_EQ(stats.mean_return_curve.size(), stats.timestep_curve.size());
    EXPECT_GT(stats.wall_seconds, 0.0);
}

TEST(PpoTrainerTest, CallbackInvokedPerUpdate)
{
    RlAgent agent(ruleset(), tinyAgentConfig());
    int calls = 0;
    agent.train(tinyCorpus(),
                [&calls](int, const TrainStats&) { ++calls; });
    EXPECT_EQ(calls, 256 / 64);
}

TEST(PpoTrainerTest, LearningImprovesReturns)
{
    // With a slightly larger budget the mean return at the end of training
    // should beat the first-update mean on this easy corpus.
    AgentConfig config = tinyAgentConfig();
    config.ppo.total_timesteps = 1536;
    config.ppo.seed = 11;
    RlAgent agent(ruleset(), config);
    const TrainStats stats = agent.train(tinyCorpus());
    ASSERT_GE(stats.mean_return_curve.size(), 4u);
    const double first = stats.mean_return_curve.front();
    const double last = stats.mean_return_curve.back();
    // The corpus is easy, so absolute returns are high from the start;
    // check the policy stays in the high-return regime and does not
    // collapse (tiny budgets are noisy, hence the slack).
    EXPECT_GT(last, 10.0);
    EXPECT_GT(last, first * 0.5);
}

TEST(RlAgentTest, OptimizePreservesSemanticsAndNeverRegresses)
{
    RlAgent agent(ruleset(), tinyAgentConfig());
    agent.train(tinyCorpus());
    const ir::ExprPtr program =
        ir::parse("(+ (+ (* a0 b0) (* a1 b1)) (+ (* a2 b2) (* a3 b3)))");
    const AgentResult result = agent.optimize(program);
    ASSERT_NE(result.program, nullptr);
    EXPECT_LE(result.final_cost, result.initial_cost);
    EXPECT_TRUE(ir::equivalentOn(program, result.program, 8));
}

TEST(RlAgentTest, TraceNamesAreRealRules)
{
    RlAgent agent(ruleset(), tinyAgentConfig());
    const AgentResult result =
        agent.optimize(ir::parse("(+ (* x 1) 0)"));
    for (const std::string& name : result.trace) {
        EXPECT_GE(ruleset().indexOf(name), 0) << name;
    }
}

TEST(RlAgentTest, WorksWithMotifDataset)
{
    dataset::MotifSynthesizer synth(3);
    std::vector<ir::ExprPtr> corpus;
    for (int i = 0; i < 8; ++i) corpus.push_back(synth.generate());
    AgentConfig config = tinyAgentConfig();
    config.ppo.total_timesteps = 128;
    RlAgent agent(ruleset(), config);
    const TrainStats stats = agent.train(corpus);
    EXPECT_GE(stats.total_steps, 128);
}

/// The agent perfbench's compile_rl workload ships: the default
/// AgentConfig with one 64-step PPO update on 64 motif programs.
const RlAgent&
benchAgent()
{
    static const std::unique_ptr<RlAgent> agent = [] {
        AgentConfig config;
        config.ppo.total_timesteps = 64;
        config.ppo.steps_per_update = 64;
        config.ppo.minibatch_size = 32;
        config.compile_rollouts = 2;
        auto trained = std::make_unique<RlAgent>(ruleset(), config);
        dataset::MotifSynthesizer synth(1234, {});
        trained->train(dataset::buildDataset(
            [&synth] { return synth.generate(); }, 64, {}));
        return trained;
    }();
    return *agent;
}

/// FNV-1a over the bit patterns of every trainable parameter, in
/// Policy::params() order.
std::uint64_t
paramFingerprint(const Policy& policy)
{
    std::string bytes;
    for (const nn::Tensor& p : policy.params()) {
        bytes.append(reinterpret_cast<const char*>(p.data().data()),
                     p.data().size() * sizeof(float));
    }
    return fnv1a64(bytes);
}

/// compile_rl's 12-kernel mix, parsed back from its printed text as the
/// benchmark sends it.
std::vector<benchsuite::Kernel>
compileRlMix()
{
    using namespace benchsuite;
    std::vector<Kernel> mix;
    for (const Kernel& kernel :
         {dotProduct(8), hammingDistance(8), l2Distance(8), linearReg(8),
          polyReg(8), boxBlur(3), gradientX(3), robertsCross(3), matMul(3),
          maxKernel(4), polynomialTree(50, 50, 3),
          polynomialTree(100, 50, 3)}) {
        mix.push_back({kernel.name, ir::parse(kernel.program->toString())});
    }
    return mix;
}

/// Trace, cost and a hash of the program text: equal digests mean equal
/// optimize() results.
std::string
digest(const AgentResult& result)
{
    std::string trace;
    for (const std::string& name : result.trace) trace += name + " ";
    char hash[32];
    std::snprintf(hash, sizeof hash, "%016llx",
                  static_cast<unsigned long long>(
                      fnv1a64(result.program->toString())));
    return trace + "| " + std::to_string(result.final_cost) + " | " + hash;
}

/// One greedy and one sampled episode of \p agent's policy on
/// \p program: FNV-1a over every step's action and the bit patterns of
/// its log-prob and value.
std::uint64_t
episodeHash(const RlAgent& agent, const ir::ExprPtr& program)
{
    std::string bytes;
    Rng rng(5);
    for (const bool greedy : {true, false}) {
        RewriteEnv env(agent.ruleset(), agent.config().env);
        env.reset(program);
        while (!env.done()) {
            const ActionSample a = agent.policy().sample(
                agent.encoder().encode(env.program(),
                                       agent.config().ppo.max_token_len),
                env.matchCounts(), rng, greedy);
            const int ints[2] = {a.rule, a.location};
            const float floats[2] = {a.log_prob, a.value};
            bytes.append(reinterpret_cast<const char*>(ints), sizeof ints);
            bytes.append(reinterpret_cast<const char*>(floats),
                         sizeof floats);
            env.step(a.rule, a.location);
        }
    }
    return fnv1a64(bytes);
}

/// Per compile_rl kernel, serially at the commit before graph-free
/// inference landed: optimize()'s digest() and episodeHash().
struct BenchPin
{
    const char* name;
    const char* optimized;
    std::uint64_t episodes;
};
const BenchPin kBenchPins[] = {
    {"Dot Product 8", "reduce-sum-of-products | 261.000000 | 2512b461889f4763", 0x5b0a53519804fd30ull},
    {"Hamm. Dist. 8", "reduce-sum pack-sub pack-add pack-mul pack-mul | 365.000000 | 81697b3047199183", 0x74c1276f71bf7d33ull},
    {"L2 Distance 8", "reduce-sum-of-products pack-sub | 263.000000 | 2200b00242ae1be3", 0xf61d5639de2a9979ull},
    {"Linear Reg. 8", "pack-add pack-mul | 104.000000 | 24ca964f74bf2503", 0x2ffbf7346921a819ull},
    {"Poly. Reg. 8", "pack-add pack-mul pack-add pack-mul | 208.000000 | 20981e5b92ea7186", 0x7abd8c7019b49165ull},
    {"Box Blur 3x3", "reduce-sum rotate-of-vec | 161.000000 | 5d380d0511ae2a93", 0xe2a0dd54e00713abull},
    {"Gx 3x3", "vec-reduce-sum pack-mul | 261.000000 | d71bc11397ea0abb", 0xe68346695aa22983ull},
    {"Rob. Cross 3x3", "vec-reduce-sum-of-products pack-sub | 157.000000 | a354122d8f5aca1d", 0xedeb0cea26051cc8ull},
    {"Mat. Mul. 3x3", "vec-reduce-sum-of-products | 208.000000 | d1f222d41ae204eb", 0xb0f8cf3e810eb3c2ull},
    {"Max 4", "| 2256.000000 | c59ac4fbdcc65d7e", 0x855e43187a9f7216ull},
    {"Tree 50-50-3", "| 1005.000000 | 47b18c4b52da4879", 0xc61188cb5852349dull},
    {"Tree 100-50-3", "reduce-sum-of-products mul-vectorize-2 mul-vectorize-2 | 357.000000 | 715d02760a6cf29d", 0xcb8c95fc80367921ull},
};

TEST(RlAgentTest, BenchAgentParametersArePinned)
{
    // Taken before graph-free inference and PAD-row dropping landed:
    // neither may move a trained bit.
    EXPECT_EQ(paramFingerprint(benchAgent().policy()),
              0x9a7099928ae63c7dull);
}

TEST(RlAgentTest, BenchAgentOptimizeIsPinned)
{
    // The episode hashes pin every log-prob and value bit the policy
    // returns along the way.
    const std::vector<benchsuite::Kernel> mix = compileRlMix();
    ASSERT_EQ(mix.size(), std::size(kBenchPins));
    for (std::size_t k = 0; k < mix.size(); ++k) {
        EXPECT_EQ(mix[k].name, kBenchPins[k].name);
        EXPECT_EQ(digest(benchAgent().optimize(mix[k].program)),
                  kBenchPins[k].optimized)
            << mix[k].name;
        EXPECT_EQ(episodeHash(benchAgent(), mix[k].program),
                  kBenchPins[k].episodes)
            << mix[k].name;
    }
}

TEST(RlAgentTest, ConcurrentOptimizeMatchesSerial)
{
    // Four threads share one trained agent, each optimizing every
    // fourth kernel of the mix at the same time, while the graph-free
    // mode is thread-local: every result must equal the serial run that
    // kBenchPins records.
    const std::vector<benchsuite::Kernel> mix = compileRlMix();
    ASSERT_EQ(mix.size(), std::size(kBenchPins));
    constexpr std::size_t kThreads = 4;
    std::vector<std::pair<std::string, std::uint64_t>> concurrent(
        mix.size());
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            for (std::size_t k = t; k < mix.size(); k += kThreads) {
                concurrent[k] = {
                    digest(benchAgent().optimize(mix[k].program)),
                    episodeHash(benchAgent(), mix[k].program)};
            }
        });
    }
    for (std::thread& thread : threads) thread.join();
    for (std::size_t k = 0; k < mix.size(); ++k) {
        EXPECT_EQ(concurrent[k].first, kBenchPins[k].optimized)
            << mix[k].name;
        EXPECT_EQ(concurrent[k].second, kBenchPins[k].episodes)
            << mix[k].name;
    }
}

} // namespace
} // namespace chehab::rl
