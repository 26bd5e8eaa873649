/// \file
/// Layer replay: the traced run's direct calls into the compiler, the
/// RL agent and the SealLite primitives, each wrapped in a span.
#include <functional>

#include "compiler/passes.h"
#include "rl/agent.h"
#include "support/rng.h"
#include "workloads.h"

namespace perfbench {

using namespace chehab;

namespace {

const char* const kPassNames[] = {"canonicalize", "greedy-trs", "rl-trs",
                                  "schedule",     "key-select", "mod-switch"};

/// Time \p reps calls of \p body, one span each under \p parent; returns
/// the median seconds.
double
timed(Trace& trace, int parent, const std::string& name, int reps,
      const std::function<void()>& body)
{
    std::vector<double> seconds;
    for (int r = 0; r < reps; ++r) {
        const double start = now();
        body();
        const double end = now();
        trace.add(name, start, end, parent);
        seconds.push_back(end - start);
    }
    return median(seconds);
}

void
replayCompiler(const std::vector<KernelSpec>& mix,
               const compiler::DriverConfig& pipeline,
               const trs::Ruleset& ruleset, const rl::RlAgent* agent,
               Trace& trace, int root, Metrics& per_layer)
{
    const compiler::CompilerDriver driver(&ruleset, agent);
    std::map<std::string, double> pass_seconds;
    std::vector<double> optimize_seconds;
    for (const KernelSpec& kernel : mix) {
        const double start = now();
        const compiler::Compiled compiled =
            driver.compile(kernel.reference, pipeline);
        const double end = now();
        const int span = trace.add("replay.compile", start, end, root);
        std::vector<std::pair<std::string, double>> passes;
        for (const compiler::PassStats& pass : compiled.stats.passes) {
            passes.emplace_back("replay.pass." + pass.name, pass.seconds);
            pass_seconds[pass.name] += pass.seconds;
        }
        trace.addSequence(span, passes, start, 0);

        if (agent) {
            const ir::ExprPtr canonical =
                compiler::canonicalize(kernel.reference);
            const double opt_start = now();
            agent->optimize(canonical);
            const double opt_end = now();
            trace.add("rl.optimize", opt_start, opt_end, root);
            optimize_seconds.push_back(opt_end - opt_start);
        }
    }
    for (const char* name : kPassNames) {
        per_layer.set(std::string("compiler.pass.") + name + "_ms",
                      pass_seconds[name] * 1e3 / mix.size(), "ms");
    }
    per_layer.set("rl.optimize_ms", median(optimize_seconds) * 1e3, "ms");
}

void
replayFhe(const fhe::SealLiteParams& params, Trace& trace, int root,
          Metrics& per_layer)
{
    constexpr int kReps = 5;
    std::unique_ptr<fhe::SealLite> scheme;
    const double keygen = timed(trace, root, "fhe.keygen", 3, [&] {
        scheme = std::make_unique<fhe::SealLite>(params);
    });
    fhe::SealLite& he = *scheme;

    std::vector<double> galois;
    for (int step : {1, 2, 4, 8, 16, 32}) {
        galois.push_back(timed(trace, root, "fhe.galois_key", 1,
                               [&] { he.makeGaloisKeys({step}); }));
    }

    chehab::Rng rng(0xbe4c);
    const auto fullRow = [&] {
        std::vector<std::int64_t> values(
            static_cast<std::size_t>(he.slots()));
        for (auto& v : values) v = rng.uniformRange(0, 15);
        return values;
    };
    const std::vector<std::int64_t> row_a = fullRow();
    const std::vector<std::int64_t> row_b = fullRow();

    fhe::Plaintext plain;
    const double encode = timed(trace, root, "fhe.encode", kReps,
                                [&] { plain = he.encode(row_a); });
    const double decode =
        timed(trace, root, "fhe.decode", kReps, [&] { he.decode(plain); });
    fhe::Ciphertext ct_a;
    const double encrypt = timed(trace, root, "fhe.encrypt", kReps,
                                 [&] { ct_a = he.encrypt(plain); });
    const fhe::Plaintext plain_b = he.encode(row_b);
    const fhe::Ciphertext ct_b = he.encrypt(plain_b);
    const double decrypt_plain =
        timed(trace, root, "fhe.decrypt_plain", kReps,
              [&] { he.decryptPlain(ct_a); });
    const double noise_budget = timed(trace, root, "fhe.noise_budget", kReps,
                                      [&] { he.noiseBudgetBits(ct_a); });

    constexpr int kOpReps = 9;
    const double add = timed(trace, root, "fhe.add", kOpReps,
                             [&] { he.recycle(he.add(ct_a, ct_b)); });
    const double mul_plain =
        timed(trace, root, "fhe.mul_plain", kOpReps,
              [&] { he.recycle(he.mulPlain(ct_a, plain_b)); });
    const double multiply =
        timed(trace, root, "fhe.multiply", kOpReps,
              [&] { he.recycle(he.multiply(ct_a, ct_b)); });
    const double rotate = timed(trace, root, "fhe.rotate", kOpReps,
                                [&] { he.recycle(he.rotate(ct_a, 4)); });

    // Steady-state allocations: the ops above primed the arena, so a
    // further mixed round should be served from its freelist.
    const std::uint64_t allocs_before = he.arenaStats().allocs;
    constexpr int kArenaRounds = 4;
    for (int r = 0; r < kArenaRounds; ++r) {
        he.recycle(he.add(ct_a, ct_b));
        he.recycle(he.mulPlain(ct_a, plain_b));
        he.recycle(he.multiply(ct_a, ct_b));
        he.recycle(he.rotate(ct_a, 4));
    }
    const double allocs_per_op =
        static_cast<double>(he.arenaStats().allocs - allocs_before) /
        (4 * kArenaRounds);

    const auto tables =
        fhe::acquireNttTables(params.n, he.primeChain().front());
    std::vector<std::uint64_t> poly(static_cast<std::size_t>(params.n));
    for (auto& c : poly) c = rng.uniformInt(tables->modulus());
    constexpr int kNttReps = 51;
    const double ntt_fwd = timed(trace, root, "fhe.ntt_fwd", kNttReps,
                                 [&] { tables->forward(poly.data()); });
    const double ntt_inv = timed(trace, root, "fhe.ntt_inv", kNttReps,
                                 [&] { tables->inverse(poly.data()); });

    per_layer.set("fhe.keygen_ms", keygen * 1e3, "ms");
    per_layer.set("fhe.galois_key_ms", median(galois) * 1e3, "ms");
    per_layer.set("fhe.encode_ms", encode * 1e3, "ms");
    per_layer.set("fhe.decode_ms", decode * 1e3, "ms");
    per_layer.set("fhe.encrypt_ms", encrypt * 1e3, "ms");
    per_layer.set("fhe.decrypt_plain_ms", decrypt_plain * 1e3, "ms");
    per_layer.set("fhe.noise_budget_ms", noise_budget * 1e3, "ms");
    per_layer.set("fhe.add_ms", add * 1e3, "ms");
    per_layer.set("fhe.mul_plain_ms", mul_plain * 1e3, "ms");
    per_layer.set("fhe.multiply_ms", multiply * 1e3, "ms");
    per_layer.set("fhe.rotate_ms", rotate * 1e3, "ms");
    per_layer.set("fhe.ntt_fwd_us", ntt_fwd * 1e6, "us");
    per_layer.set("fhe.ntt_inv_us", ntt_inv * 1e6, "us");
    per_layer.set("fhe.arena_allocs_per_op", allocs_per_op, "allocs/op");
}

} // namespace

void
replayLayers(const std::vector<KernelSpec>& mix,
             const compiler::DriverConfig& pipeline,
             const trs::Ruleset& ruleset, const rl::RlAgent* agent,
             const fhe::SealLiteParams& params, Trace& trace,
             Metrics& per_layer)
{
    const double start = now();
    const int root = trace.add("replay", start, start);
    replayCompiler(mix, pipeline, ruleset, agent, trace, root, per_layer);
    const int fhe_root = trace.add("replay.fhe", now(), now(), root);
    replayFhe(params, trace, fhe_root, per_layer);
    // The roots were opened before their children existed; close them
    // over everything recorded since.
    trace.close(fhe_root, now());
    trace.close(root, now());
}

} // namespace perfbench
