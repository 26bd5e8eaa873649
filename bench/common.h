/// \file
/// Shared harness of the paper-figure benches (bench_fig5 ... fig13,
/// bench_table1, bench_table6): builds the kernel suite, trains the
/// shared CHEHAB RL agent, compiles each kernel with every compiler
/// under comparison, executes (or, for circuits exceeding the toy
/// backend's slot capacity, estimates) on SealLite, and renders the
/// paper-style comparison tables plus CSV artifacts in results/.
/// bench_ntt stands alone; the compile-and-run service is measured by
/// perfbench/ and driven by examples/chehabd.
///
/// Environment knobs:
///  - CHEHAB_BENCH_FAST=1           smaller suite and training budget
///  - CHEHAB_BENCH_TRAIN_STEPS=N    PPO timesteps for bench agents
///  - CHEHAB_BENCH_KERNEL_FILTER=s  substring filter on kernel names
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/coyote_sim.h"
#include "benchsuite/kernels.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "dataset/dataset.h"
#include "dataset/motif_gen.h"
#include "dataset/random_gen.h"
#include "rl/agent.h"
#include "trs/rewriter.h"

namespace chehab::benchcommon {

/// Budget read from the environment.
struct Budget
{
    bool fast = false;
    int train_steps = 1024;
    int max_n = 16;        ///< Largest Porcupine kernel size.
    int tree_depth = 8;    ///< Deepest polynomial tree.
    std::string filter;
};

Budget budgetFromEnv();

/// One (kernel, compiler) evaluation row.
struct Row
{
    std::string kernel;
    std::string compiler;
    double compile_s = 0.0;
    double exec_s = 0.0;
    bool exec_estimated = false;
    int consumed_noise = 0;
    int final_budget = 0;
    bool budget_exhausted = false;
    bool correct = false;
    int depth = 0;
    int mult_depth = 0;
    int ct_ct_mul = 0;
    int ct_pt_mul = 0;
    int rotations = 0;
    int ct_add = 0;
};

/// The shared evaluation harness.
class Harness
{
  public:
    explicit Harness(Budget budget = budgetFromEnv());

    const Budget& budget() const { return budget_; }
    const std::vector<benchsuite::Kernel>& kernels() const
    {
        return kernels_;
    }
    const trs::Ruleset& ruleset() const { return ruleset_; }

    /// Default agent configuration at the bench's training budget.
    rl::AgentConfig agentConfig() const;

    /// The motif ("LLM") training corpus with benchmark exclusion (§6).
    std::vector<ir::ExprPtr> motifDataset(int size = 512) const;

    /// Uniform random corpus (App. H.2) for the Fig. 8 ablation.
    std::vector<ir::ExprPtr> randomDataset(int size = 512) const;

    /// Shared agent, trained lazily on the motif corpus.
    rl::RlAgent& agent();

    /// \name Per-kernel compilation
    /// @{
    compiler::Compiled compileRL(const benchsuite::Kernel& kernel);
    compiler::Compiled compileRL(const rl::RlAgent& custom_agent,
                                 const benchsuite::Kernel& kernel);
    compiler::Compiled compileCoyote(const benchsuite::Kernel& kernel);
    compiler::Compiled compileGreedy(const benchsuite::Kernel& kernel);
    compiler::Compiled compileInitial(const benchsuite::Kernel& kernel);
    /// @}

    /// Execute (or estimate) a compiled kernel and fill a row.
    Row evaluate(const benchsuite::Kernel& kernel,
                 const std::string& compiler_label,
                 const compiler::Compiled& compiled);

    /// Full-suite rows for one compiler label ("CHEHAB RL", "Coyote",
    /// "CHEHAB", "Initial"). Results are cached under results/ so the
    /// per-figure binaries share one evaluation pass.
    std::vector<Row> suiteRows(const std::string& label);

    /// Geometric-mean ratio of metric(other) / metric(base) across
    /// kernels present in both row sets.
    static double geomeanRatio(const std::vector<Row>& base,
                               const std::vector<Row>& other,
                               double Row::* metric);

    /// Write rows to results/<name>.csv (directory created on demand).
    static void writeCsv(const std::string& name,
                         const std::vector<Row>& rows);

    /// Pretty-print a two-compiler comparison to stdout.
    static void printComparison(const std::string& title,
                                const std::vector<Row>& a,
                                const std::vector<Row>& b);

  private:
    Budget budget_;
    trs::Ruleset ruleset_;
    std::vector<benchsuite::Kernel> kernels_;
    std::unique_ptr<rl::RlAgent> agent_;
    std::unique_ptr<compiler::FheRuntime> runtime_;
    std::optional<compiler::OpLatencies> latencies_;
};

/// Deterministic random inputs for a kernel.
ir::Env randomEnv(const ir::ExprPtr& program, std::uint64_t seed);

} // namespace chehab::benchcommon
