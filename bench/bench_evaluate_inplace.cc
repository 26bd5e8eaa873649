/// \file
/// Raw speed round 2: the in-place evaluator on the Fig. 5 kernel mix.
/// Each kernel is compiled once (no-opt pipeline — the evaluator, not
/// the optimizer, is under test) and executed twice on the same
/// runtime: once with the copying evaluator and once with the
/// destructive last-use evaluator. The bench asserts the two runs
/// decode to bit-identical outputs (the determinism contract), then
/// reports per-kernel server-side evaluation time
/// (RunResult::exec_seconds — packing, encoding, encryption and
/// decryption are identical on both paths and would swamp the
/// difference), the copies the in-place path avoided
/// (InPlaceStats), and the steady-state arena alloc count — which must
/// be zero after the priming pass, mirroring bench_ntt's floor.
///
/// Exit status is the CI gate: non-zero when any kernel's outputs
/// diverge or when steady-state execution still mints arena buffers.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "benchsuite/kernels.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"

namespace {

using chehab::benchsuite::Kernel;
using chehab::compiler::Compiled;
using chehab::compiler::FheRuntime;
using chehab::compiler::RunResult;

/// The Fig. 5 mix, scaled down so the bench stays a smoke test: one
/// representative of each kernel family (reduction, elementwise,
/// image stencil, matrix, tree).
std::vector<Kernel>
kernelMix(bool fast)
{
    const int n = fast ? 4 : 8;
    std::vector<Kernel> mix;
    mix.push_back(chehab::benchsuite::dotProduct(n));
    mix.push_back(chehab::benchsuite::l2Distance(n));
    mix.push_back(chehab::benchsuite::polyReg(n));
    mix.push_back(chehab::benchsuite::boxBlur(fast ? 3 : 4));
    mix.push_back(chehab::benchsuite::matMul(2));
    mix.push_back(chehab::benchsuite::maxKernel(n));
    return mix;
}

} // namespace

int
main()
{
    const bool fast = std::getenv("CHEHAB_BENCH_FAST") != nullptr;
    const std::vector<Kernel> mix = kernelMix(fast);

    FheRuntime runtime;
    int failures = 0;
    std::uint64_t total_saved = 0;

    std::printf("%-16s %12s %15s %8s %9s %9s %7s\n", "kernel",
                "copy_eval_ms", "inplace_eval_ms", "speedup", "consumed",
                "copies", "match");
    for (const Kernel& kernel : mix) {
        const Compiled compiled = chehab::compiler::compileNoOpt(kernel.program);
        const chehab::ir::Env env =
            chehab::benchsuite::syntheticInputs(kernel.program);

        runtime.setInPlaceEnabled(false);
        const RunResult copying = runtime.run(compiled.program, env);
        const double copy_s = copying.exec_seconds;

        runtime.setInPlaceEnabled(true);
        const chehab::compiler::InPlaceStats before = runtime.inPlaceStats();
        const RunResult inplace = runtime.run(compiled.program, env);
        const double inplace_s = inplace.exec_seconds;
        const chehab::compiler::InPlaceStats after = runtime.inPlaceStats();

        const bool match = copying.output == inplace.output;
        if (!match) ++failures;
        const std::uint64_t consumed = after.consumed - before.consumed;
        const std::uint64_t copies = after.copies - before.copies;
        total_saved += consumed;
        std::printf("%-16s %12.2f %15.2f %7.2fx %9llu %9llu %7s\n",
                    kernel.name.c_str(), copy_s * 1e3, inplace_s * 1e3,
                    inplace_s > 0.0 ? copy_s / inplace_s : 0.0,
                    static_cast<unsigned long long>(consumed),
                    static_cast<unsigned long long>(copies),
                    match ? "yes" : "NO");
    }

    // Steady-state arena check: the passes above primed every buffer
    // size class, so replaying the whole mix must not mint anything.
    const chehab::fhe::PolyArena::Stats primed = runtime.arenaStats();
    for (const Kernel& kernel : mix) {
        const Compiled compiled = chehab::compiler::compileNoOpt(kernel.program);
        (void)runtime.run(compiled.program,
                          chehab::benchsuite::syntheticInputs(kernel.program));
    }
    const chehab::fhe::PolyArena::Stats steady = runtime.arenaStats();
    const std::uint64_t steady_allocs = steady.allocs - primed.allocs;

    std::printf("\nciphertext copies avoided across the mix: %llu\n",
                static_cast<unsigned long long>(total_saved));
    std::printf("steady-state arena allocs over a full replay: %llu "
                "(floor: 0; %llu reuses)\n",
                static_cast<unsigned long long>(steady_allocs),
                static_cast<unsigned long long>(steady.reuses - primed.reuses));

    if (failures > 0) {
        std::fprintf(stderr, "FAIL: %d kernel(s) diverged between the "
                             "copying and in-place evaluators\n", failures);
        return 1;
    }
    if (steady_allocs != 0) {
        std::fprintf(stderr, "FAIL: steady-state execution minted %llu "
                             "arena buffer(s); expected 0\n",
                     static_cast<unsigned long long>(steady_allocs));
        return 1;
    }
    std::printf("OK: in-place evaluator bit-identical to copying "
                "evaluator on all %zu kernels\n", mix.size());
    return 0;
}
