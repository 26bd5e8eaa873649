/// \file
/// The three benchmark workloads and the layer replay of a traced run.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "compiler/runtime.h"
#include "fhe/sealite.h"
#include "harness.h"
#include "ir/expr.h"

namespace chehab::rl {
class RlAgent;
}
namespace chehab::trs {
class Ruleset;
}

namespace perfbench {

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string out_dir = "."; ///< Where the traced run writes its spans.
};

/// What one run reports: both metric sets (only one is printed), the
/// request tally, and the deterministic counts run.py
/// compares across runs.
struct Outcome
{
    Metrics end_to_end;
    Metrics per_layer;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0; ///< Failed responses + wrong outputs.
    bool correct = true;      ///< False on any wrong output or
                              ///< determinism violation.
    std::map<std::string, double> deterministic;
};

/// Run \p options.workload end to end. Throws std::invalid_argument for
/// an unknown workload.
Outcome runWorkload(const Options& options);

/// One kernel of a mix: the IR text the client sends, and the parsed
/// source the reference evaluator runs.
struct KernelSpec
{
    std::string name;
    std::string text;
    chehab::ir::ExprPtr reference;
};

/// Direct calls into each layer on \p mix, recorded as spans under one
/// "replay" root: CompilerDriver::compile per kernel (one child span
/// per pass), RlAgent::optimize when \p agent is set, and the SealLite
/// primitives at \p params. Fills the compiler.pass.*, rl.optimize_ms
/// and fhe.* per-layer metrics.
void replayLayers(const std::vector<KernelSpec>& mix,
                  const chehab::compiler::DriverConfig& pipeline,
                  const chehab::trs::Ruleset& ruleset,
                  const chehab::rl::RlAgent* agent,
                  const chehab::fhe::SealLiteParams& params, Trace& trace,
                  Metrics& per_layer);

} // namespace perfbench
