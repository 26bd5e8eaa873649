#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cctype>
#include <filesystem>
#include <fstream>

#include "ir/evaluator.h"
#include "support/csv.h"
#include "support/error.h"

namespace chehab::benchcommon {

Budget
budgetFromEnv()
{
    Budget budget;
    if (const char* fast = std::getenv("CHEHAB_BENCH_FAST")) {
        budget.fast = std::string(fast) == "1";
    }
    if (budget.fast) {
        budget.train_steps = 640;
        budget.max_n = 8;
        budget.tree_depth = 6;
    }
    if (const char* steps = std::getenv("CHEHAB_BENCH_TRAIN_STEPS")) {
        budget.train_steps = std::atoi(steps);
    }
    if (const char* filter = std::getenv("CHEHAB_BENCH_KERNEL_FILTER")) {
        budget.filter = filter;
    }
    return budget;
}

Harness::Harness(Budget budget)
    : budget_(std::move(budget)), ruleset_(trs::buildChehabRuleset())
{
    for (benchsuite::Kernel& kernel :
         benchsuite::fullSuite(budget_.max_n, budget_.tree_depth)) {
        if (!budget_.filter.empty() &&
            kernel.name.find(budget_.filter) == std::string::npos) {
            continue;
        }
        kernels_.push_back(std::move(kernel));
    }
}

rl::AgentConfig
Harness::agentConfig() const
{
    rl::AgentConfig config;
    config.env.max_steps = 32;
    config.env.max_locations = 8;
    config.policy.encoder.d_model = 32;
    config.policy.encoder.n_layers = 2;
    config.policy.encoder.n_heads = 4;
    config.policy.encoder.d_ff = 64;
    config.policy.encoder.max_len = 96;
    config.policy.rule_hidden = {128, 64};
    config.policy.loc_hidden = {64, 64};
    config.policy.critic_hidden = {128, 64};
    config.ppo.steps_per_update = 256;
    config.ppo.minibatch_size = 64;
    config.ppo.update_epochs = 3;
    config.ppo.total_timesteps = budget_.train_steps;
    config.ppo.max_token_len = 96;
    config.ppo.learning_rate = 3e-4f;
    config.compile_rollouts = 3;
    return config;
}

std::vector<ir::ExprPtr>
Harness::motifDataset(int size) const
{
    std::vector<ir::ExprPtr> excluded;
    excluded.reserve(kernels_.size());
    for (const auto& kernel : kernels_) excluded.push_back(kernel.program);
    dataset::MotifGenConfig config;
    config.max_terms = 8;
    config.max_width = 6;
    dataset::MotifSynthesizer synth(1234, config);
    return dataset::buildDataset([&synth] { return synth.generate(); },
                                 size, excluded);
}

std::vector<ir::ExprPtr>
Harness::randomDataset(int size) const
{
    std::vector<ir::ExprPtr> excluded;
    for (const auto& kernel : kernels_) excluded.push_back(kernel.program);
    dataset::RandomGenConfig config;
    config.max_depth = 6;
    config.max_width = 6;
    dataset::RandomProgramGenerator gen(1234, config);
    return dataset::buildDataset([&gen] { return gen.generate(); }, size,
                                 excluded);
}

rl::RlAgent&
Harness::agent()
{
    if (!agent_) {
        std::fprintf(stderr,
                     "[bench] training shared CHEHAB RL agent (%d steps, "
                     "%zu-program corpus)...\n",
                     budget_.train_steps, static_cast<std::size_t>(512));
        agent_ = std::make_unique<rl::RlAgent>(ruleset_, agentConfig());
        agent_->train(motifDataset());
    }
    return *agent_;
}

compiler::Compiled
Harness::compileRL(const benchsuite::Kernel& kernel)
{
    return compiler::compileWithAgent(agent(), kernel.program);
}

compiler::Compiled
Harness::compileRL(const rl::RlAgent& custom_agent,
                   const benchsuite::Kernel& kernel)
{
    return compiler::compileWithAgent(custom_agent, kernel.program);
}

compiler::Compiled
Harness::compileCoyote(const benchsuite::Kernel& kernel)
{
    baselines::CoyoteConfig config;
    config.refinement_factor = budget_.fast ? 500 : 5000;
    const baselines::CoyoteResult coyote =
        baselines::coyoteCompile(kernel.program, config);
    compiler::Compiled compiled;
    compiled.optimized = coyote.program;
    compiled.program = compiler::schedule(coyote.program);
    compiler::PassStats coyote_pass;
    coyote_pass.name = "coyote";
    coyote_pass.seconds = coyote.compile_seconds;
    compiled.stats.passes.push_back(std::move(coyote_pass));
    compiled.stats.final_cost = ir::cost(coyote.program);
    compiled.stats.circuit_depth = ir::circuitDepth(coyote.program);
    compiled.stats.mult_depth = ir::multiplicativeDepth(coyote.program);
    compiled.stats.ir_counts = ir::countOps(coyote.program);
    return compiled;
}

compiler::Compiled
Harness::compileGreedy(const benchsuite::Kernel& kernel)
{
    return compiler::compileGreedy(ruleset_, kernel.program, {},
                                   /*max_steps=*/48);
}

compiler::Compiled
Harness::compileInitial(const benchsuite::Kernel& kernel)
{
    return compiler::compileNoOpt(kernel.program);
}

ir::Env
randomEnv(const ir::ExprPtr& program, std::uint64_t seed)
{
    Rng rng(seed);
    ir::Env env;
    for (const std::string& name : ir::ciphertextVars(program)) {
        env[name] = static_cast<std::int64_t>(rng.uniformInt(64));
    }
    for (const std::string& name : ir::plaintextVars(program)) {
        env[name] = static_cast<std::int64_t>(rng.uniformInt(64));
    }
    return env;
}

Row
Harness::evaluate(const benchsuite::Kernel& kernel,
                  const std::string& compiler_label,
                  const compiler::Compiled& compiled)
{
    if (!runtime_) {
        fhe::SealLiteParams params;
        params.n = 512;        // 256 slots: covers the suite's packs.
        params.prime_count = 6;
        params.seed = 4242;
        runtime_ = std::make_unique<compiler::FheRuntime>(params);
        latencies_ = runtime_->calibrate(1);
    }

    Row row;
    row.kernel = kernel.name;
    row.compiler = compiler_label;
    row.compile_s = compiled.stats.totalSeconds();
    row.depth = compiled.stats.circuit_depth;
    row.mult_depth = compiled.stats.mult_depth;

    const compiler::FheProgram::Counts counts = compiled.program.counts();
    row.ct_ct_mul = counts.ct_ct_mul;
    row.ct_pt_mul = counts.ct_pt_mul;
    row.rotations = counts.rotations;
    row.ct_add = counts.ct_add;

    const ir::Env env = randomEnv(kernel.program, 97);
    // Large circuits (very deep trees, > 400 homomorphic ops) fall back
    // to the calibrated per-op latency estimate to keep bench wall time
    // bounded on a 1-core box.
    const int total_ops = counts.ct_add + counts.ct_ct_mul +
                          counts.ct_pt_mul + counts.rotations;
    if (total_ops > 400) {
        row.exec_estimated = true;
        row.exec_s = runtime_->estimate(compiled.program, *latencies_);
        row.consumed_noise = -1;
        return row;
    }
    try {
        const compiler::RunResult run =
            runtime_->run(compiled.program, env);
        row.exec_s = run.exec_seconds;
        row.consumed_noise = run.consumed_noise;
        row.final_budget = run.final_noise_budget;
        row.budget_exhausted = run.final_noise_budget <= 0;
        // Compare against the reference evaluator.
        const ir::Value expected =
            ir::Evaluator().evaluate(kernel.program, env);
        row.correct = !row.budget_exhausted;
        // Rewrites may legally widen the output vector (prefix
        // semantics): only the reference's slots are meaningful.
        const std::size_t meaningful =
            std::min(run.output.size(), expected.slots.size());
        for (std::size_t i = 0; i < meaningful && row.correct; ++i) {
            if (run.output[i] != expected.slots[i]) row.correct = false;
        }
    } catch (const ::chehab::CompileError &) {
        // Pack wider than the toy backend's row: estimate instead.
        row.exec_estimated = true;
        row.exec_s = runtime_->estimate(compiled.program, *latencies_);
        row.consumed_noise = -1;
    }
    return row;
}

namespace {

std::string
sanitize(const std::string& label)
{
    std::string out;
    for (char c : label) {
        out += (std::isalnum(static_cast<unsigned char>(c)) != 0)
                   ? static_cast<char>(std::tolower(
                         static_cast<unsigned char>(c)))
                   : '_';
    }
    return out;
}

} // namespace

std::vector<Row>
Harness::suiteRows(const std::string& label)
{
    const std::string cache_path =
        "results/suite_cache_" + sanitize(label) +
        (budget_.fast ? "_fast" : "") + ".csv";

    // Try the cache: it must cover exactly the current kernel list.
    {
        std::ifstream in(cache_path);
        if (in) {
            std::vector<Row> rows;
            std::string line;
            std::getline(in, line); // Header.
            while (std::getline(in, line)) {
                const std::vector<std::string> cells = splitCsvLine(line);
                if (cells.size() < 15) continue;
                Row row;
                row.kernel = cells[0];
                row.compiler = cells[1];
                row.compile_s = std::atof(cells[2].c_str());
                row.exec_s = std::atof(cells[3].c_str());
                row.exec_estimated = cells[4] == "1";
                row.consumed_noise = std::atoi(cells[5].c_str());
                row.final_budget = std::atoi(cells[6].c_str());
                row.budget_exhausted = cells[7] == "1";
                row.correct = cells[8] == "1";
                row.depth = std::atoi(cells[9].c_str());
                row.mult_depth = std::atoi(cells[10].c_str());
                row.ct_ct_mul = std::atoi(cells[11].c_str());
                row.ct_pt_mul = std::atoi(cells[12].c_str());
                row.rotations = std::atoi(cells[13].c_str());
                row.ct_add = std::atoi(cells[14].c_str());
                rows.push_back(std::move(row));
            }
            if (rows.size() == kernels_.size()) {
                bool all_match = true;
                for (std::size_t i = 0; i < rows.size(); ++i) {
                    if (rows[i].kernel != kernels_[i].name) {
                        all_match = false;
                    }
                }
                if (all_match) {
                    std::fprintf(stderr, "[bench] reusing %s\n",
                                 cache_path.c_str());
                    return rows;
                }
            }
        }
    }

    std::vector<Row> rows;
    for (const benchsuite::Kernel& kernel : kernels_) {
        compiler::Compiled compiled;
        if (label == "CHEHAB RL") {
            compiled = compileRL(kernel);
        } else if (label == "Coyote") {
            compiled = compileCoyote(kernel);
        } else if (label == "CHEHAB") {
            compiled = compileGreedy(kernel);
        } else {
            compiled = compileInitial(kernel);
        }
        rows.push_back(evaluate(kernel, label, compiled));
        std::fprintf(stderr, "[bench] %-12s %-20s done\n", label.c_str(),
                     kernel.name.c_str());
    }
    std::filesystem::create_directories("results");
    {
        CsvWriter csv(cache_path,
                      {"kernel", "compiler", "compile_s", "exec_s",
                       "exec_estimated", "consumed_noise", "final_budget",
                       "budget_exhausted", "correct", "depth", "mult_depth",
                       "ct_ct_mul", "ct_pt_mul", "rotations", "ct_add"});
        for (const Row& row : rows) {
            csv.writeRow(row.kernel, row.compiler, row.compile_s,
                         row.exec_s, row.exec_estimated ? 1 : 0,
                         row.consumed_noise, row.final_budget,
                         row.budget_exhausted ? 1 : 0, row.correct ? 1 : 0,
                         row.depth, row.mult_depth, row.ct_ct_mul,
                         row.ct_pt_mul, row.rotations, row.ct_add);
        }
    }
    return rows;
}

double
Harness::geomeanRatio(const std::vector<Row>& base,
                      const std::vector<Row>& other, double Row::* metric)
{
    double log_sum = 0.0;
    int count = 0;
    for (const Row& b : base) {
        for (const Row& o : other) {
            if (o.kernel != b.kernel) continue;
            const double x = b.*metric;
            const double y = o.*metric;
            if (x > 0.0 && y > 0.0) {
                log_sum += std::log(x / y);
                ++count;
            }
        }
    }
    return count ? std::exp(log_sum / count) : 0.0;
}

void
Harness::writeCsv(const std::string& name, const std::vector<Row>& rows)
{
    std::filesystem::create_directories("results");
    CsvWriter csv("results/" + name,
                  {"kernel", "compiler", "compile_s", "exec_s",
                   "exec_estimated", "consumed_noise", "final_budget",
                   "budget_exhausted", "correct", "depth", "mult_depth",
                   "ct_ct_mul", "ct_pt_mul", "rotations", "ct_add"});
    for (const Row& row : rows) {
        csv.writeRow(row.kernel, row.compiler, row.compile_s, row.exec_s,
                     row.exec_estimated, row.consumed_noise,
                     row.final_budget, row.budget_exhausted, row.correct,
                     row.depth, row.mult_depth, row.ct_ct_mul,
                     row.ct_pt_mul, row.rotations, row.ct_add);
    }
    std::printf("[bench] wrote results/%s\n", name.c_str());
}

void
Harness::printComparison(const std::string& title, const std::vector<Row>& a,
                         const std::vector<Row>& b)
{
    std::printf("\n=== %s ===\n", title.c_str());
    std::printf("%-20s %-12s %12s %12s %8s %6s %6s %6s %6s\n", "kernel",
                "compiler", "compile_s", "exec_s", "noise", "x", "+", "rot",
                "pt*");
    auto print_rows = [](const std::vector<Row>& rows) {
        for (const Row& row : rows) {
            std::printf("%-20s %-12s %12.4f %12.6f %8d %6d %6d %6d %6d%s\n",
                        row.kernel.c_str(), row.compiler.c_str(),
                        row.compile_s, row.exec_s, row.consumed_noise,
                        row.ct_ct_mul, row.ct_add, row.rotations,
                        row.ct_pt_mul,
                        row.exec_estimated
                            ? " (est)"
                            : (row.budget_exhausted ? " (EXHAUSTED)" : ""));
        }
    };
    print_rows(a);
    print_rows(b);
}

} // namespace chehab::benchcommon
