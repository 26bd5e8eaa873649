/// \file
/// The three workloads. Each sends IR text from one client thread to a
/// CompileService with 4 workers through the public ServiceApi, times
/// every request from the client's side, checks every output against
/// ir::Evaluator on the same inputs, and reads the service's own
/// response fields and stats for the per-layer numbers.
#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>

#include "benchsuite/kernels.h"
#include "dataset/dataset.h"
#include "dataset/motif_gen.h"
#include "ir/evaluator.h"
#include "ir/parser.h"
#include "rl/agent.h"
#include "service/compile_service.h"
#include "support/rng.h"
#include "trs/ruleset.h"

namespace perfbench {

using namespace chehab;

namespace {

constexpr int kWorkers = 4;     // matches the 4-core reference machine
constexpr std::size_t kInFlight = 4; // closed-loop concurrency
constexpr int kSetupReps = 3;   // setup_s is the median of these
constexpr double kPollSeconds = 250e-6;

/// service_packed offered load: below saturation on 4 workers, so the
/// open loop measures batching rather than an ever-growing queue.
constexpr double kPackedRate = 12.0;        // requests per second
constexpr double kPackedRepeatShare = 0.2;  // exact (kernel, inputs) repeats
/// Adaptive-window ceiling: long enough at kPackedRate for about seven
/// requests to share a row, so setup is paid per row, not per request.
constexpr double kPackedWindowSeconds = 0.6;

fhe::SealLiteParams
executeParams()
{
    fhe::SealLiteParams params;
    params.n = 4096;
    params.prime_count = 4;
    params.seed = 17;
    return params;
}

KernelSpec
specOf(const benchsuite::Kernel& kernel)
{
    const std::string text = kernel.program->toString();
    return {kernel.name, text, ir::parse(text)};
}

/// Porcupine, Coyote and polynomial-tree kernels whose generated code
/// fits one n=4096 row and keeps a positive noise budget at 4 primes
/// under both the RL and the greedy pipelines.
std::vector<KernelSpec>
kernelMix()
{
    using namespace benchsuite;
    std::vector<KernelSpec> mix;
    for (const Kernel& kernel :
         {dotProduct(8), hammingDistance(8), l2Distance(8), linearReg(8),
          polyReg(8), boxBlur(3), gradientX(3), robertsCross(3), matMul(3),
          maxKernel(4), polynomialTree(50, 50, 3),
          polynomialTree(100, 50, 3)}) {
        mix.push_back(specOf(kernel));
    }
    return mix;
}

/// The small kernels slot batching packs many of into one row.
std::vector<KernelSpec>
smallMix()
{
    using namespace benchsuite;
    std::vector<KernelSpec> mix;
    for (const Kernel& kernel : {dotProduct(8), hammingDistance(8),
                                 l2Distance(8), linearReg(8), polyReg(8)}) {
        mix.push_back(specOf(kernel));
    }
    return mix;
}

/// Fresh input values for every variable of \p program, drawn from
/// \p rng in name order.
ir::Env
seededInputs(const ir::ExprPtr& program, chehab::Rng& rng)
{
    ir::Env env = benchsuite::syntheticInputs(program);
    std::vector<std::string> names;
    for (const auto& entry : env) names.push_back(entry.first);
    std::sort(names.begin(), names.end());
    for (const std::string& name : names) env[name] = rng.uniformRange(0, 999);
    return env;
}

/// The first output slots of \p output equal the reference evaluator's.
bool
matchesReference(const KernelSpec& kernel, const ir::Env& inputs,
                 const std::vector<std::int64_t>& output)
{
    try {
        const ir::Value expected =
            ir::Evaluator().evaluate(kernel.reference, inputs);
        if (output.size() < expected.slots.size()) return false;
        return std::equal(expected.slots.begin(), expected.slots.end(),
                          output.begin());
    } catch (const std::exception&) {
        return false;
    }
}

std::uint64_t
fnv1a(const std::string& text)
{
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (unsigned char c : text) {
        hash ^= c;
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// Percentile \p p of the samples \p after recorded since \p before (the
/// same histogram earlier), with LatencyHistogram::percentile's
/// nearest-rank, bucket-midpoint semantics.
double
percentileSince(const telemetry::LatencyHistogram& after,
                const telemetry::LatencyHistogram& before, double p)
{
    using telemetry::LatencyHistogram;
    std::uint64_t total = after.count() - before.count();
    if (total == 0) return 0.0;
    const std::uint64_t rank = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::ceil(p / 100.0 * total)));
    std::uint64_t seen = 0;
    for (int i = 0; i < LatencyHistogram::kBucketCount; ++i) {
        const std::size_t b = static_cast<std::size_t>(i);
        seen += after.buckets()[b] - before.buckets()[b];
        if (seen < rank) continue;
        const double lo = LatencyHistogram::bucketLowerBound(i);
        const double hi = LatencyHistogram::bucketUpperBound(i);
        if (i == 0) return 0.0;
        if (!std::isfinite(hi)) return lo;
        return std::sqrt(lo * hi);
    }
    return 0.0;
}

/// One request as the client saw it, plus the fields the service
/// returned about it.
struct Record
{
    int kernel = 0;
    ir::Env inputs;
    double due = 0.0;    ///< When the request was due to be sent.
    double issued = 0.0; ///< When the client started sending it.
    double parsed = 0.0; ///< After ir::parse on the client thread.
    double done = 0.0;   ///< When the client saw the response.

    bool is_run = false; ///< A run request (else compile-only).
    bool ok = false;
    bool correct = true;
    std::string error;
    bool compile_hit = false;
    bool compile_join = false;
    bool run_hit = false;
    bool run_join = false;
    double queue_s = 0.0;
    double compile_s = 0.0;
    double window_s = 0.0;
    double exec_s = 0.0; ///< Whole execution (RunResponse::exec_seconds).
    double predicted_s = 0.0;
    compiler::RunResult result;
    std::vector<compiler::PassStats> passes;

    bool ownsCompile() const { return !compile_hit && !compile_join; }
    bool ownsRun() const { return !run_hit && !run_join; }
    double latency() const { return done - due; }
};

/// What a measured window produced.
struct Window
{
    std::vector<Record> records;
    double start = 0.0;
    double wall = 0.0; ///< First send to last completion.
    service::ServiceStats before; ///< Service counters when it started.
    service::ServiceStats stats;  ///< ... and once it drained.
    /// Process peak RSS once the window drained: set-up and serving, but
    /// not the checks and replays that follow.
    double peak_rss_mib = 0.0;
    std::vector<double> backlog; ///< Open loop: outstanding requests,
                                 ///< sampled every 50 ms.
};

template <class Response>
struct Pending
{
    std::size_t record;
    std::future<Response> future;
};

/// Poll \p pending once; hand every ready response to \p complete.
template <class Response, class Complete>
bool
pollPending(std::vector<Pending<Response>>& pending, Complete& complete)
{
    bool progressed = false;
    for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
            complete(pending[i].record, pending[i].future.get(), now());
            pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
            progressed = true;
        } else {
            ++i;
        }
    }
    return progressed;
}

/// Closed loop from one client thread: keep kInFlight requests
/// outstanding until \p seconds have passed, then collect the rest.
/// issue(i) sends request i; complete(i, response, t) receives it.
template <class Response, class Issue, class Complete>
void
closedLoop(double seconds, Window& window, Issue issue, Complete complete)
{
    std::vector<Pending<Response>> pending;
    window.start = now();
    const double stop = window.start + seconds;
    std::size_t next = 0;
    while (true) {
        if (now() < stop && pending.size() < kInFlight) {
            pending.push_back({next, issue(next)});
            ++next;
            continue;
        }
        if (pending.empty()) break;
        if (!pollPending(pending, complete)) sleepFor(kPollSeconds);
    }
}

/// Open loop from one client thread: request i is due at due[i]
/// (seconds after the start) whether or not earlier ones completed.
template <class Response, class Issue, class Complete>
void
openLoop(const std::vector<double>& due, Window& window, Issue issue,
         Complete complete)
{
    std::vector<Pending<Response>> pending;
    window.start = now();
    double next_sample = window.start;
    std::size_t next = 0;
    while (next < due.size() || !pending.empty()) {
        const double t = now();
        if (t >= next_sample && next < due.size()) {
            window.backlog.push_back(static_cast<double>(pending.size()));
            next_sample += 0.05;
        }
        if (next < due.size() && window.start + due[next] <= t) {
            pending.push_back({next, issue(next, window.start + due[next])});
            ++next;
            continue;
        }
        if (!pollPending(pending, complete)) {
            double wait = kPollSeconds;
            if (next < due.size()) {
                wait = std::min(wait, window.start + due[next] - now());
            }
            sleepFor(wait);
        }
    }
}

void
finishWindow(Window& window)
{
    window.peak_rss_mib = peakRssMib();
    double last = window.start;
    for (const Record& record : window.records) {
        last = std::max(last, record.done);
    }
    window.wall = last - window.start;
}

void
fillRun(Record& record, const service::RunResponse& response,
        const KernelSpec& kernel)
{
    record.is_run = true;
    record.ok = response.ok;
    record.error = response.error;
    record.compile_hit = response.compile_cache_hit;
    record.compile_join = response.compile_deduplicated;
    record.run_hit = response.run_cache_hit;
    record.run_join = response.run_deduplicated;
    record.queue_s = response.queue_seconds;
    record.compile_s = response.compile_seconds;
    record.window_s = response.window_wait_seconds;
    record.exec_s = response.exec_seconds;
    record.predicted_s = response.predicted_seconds;
    record.result = response.result;
    record.correct = !response.ok ||
                     matchesReference(kernel, record.inputs,
                                      response.result.output);
}

/// The deterministic description of one compiled artifact: every run
/// and every request of the same kernel must produce exactly this.
struct Artifact
{
    compiler::Compiled compiled;
    std::uint64_t program_hash = 0;
    bool present = false;
};

/// Remember the first artifact per kernel; any later one that differs
/// breaks the determinism contract.
bool
noteArtifact(std::vector<Artifact>& artifacts, int kernel,
             const compiler::Compiled& compiled)
{
    Artifact& slot = artifacts[static_cast<std::size_t>(kernel)];
    const std::uint64_t hash = fnv1a(compiled.program.disassemble());
    if (!slot.present) {
        slot = {compiled, hash, true};
        return true;
    }
    return slot.program_hash == hash &&
           slot.compiled.stats.final_cost == compiled.stats.final_cost &&
           slot.compiled.stats.rewrite_steps == compiled.stats.rewrite_steps;
}

/// Untimed solo executions of every artifact at the execute_solo
/// parameters, on fixed inputs and a fixed randomness seed so its noise
/// accounting is reproducible. Each artifact runs soloReps() times,
/// spread over the threads, and every run must agree.
struct SoloRun
{
    compiler::RunResult result;  ///< The first run.
    double median_eval_ms = 0.0; ///< Median server-side evaluation.
    bool correct = false;        ///< Every run right and identical.
    double start = 0.0;          ///< Span of the first run.
    double end = 0.0;
};

/// Enough runs per artifact for a steady median: at least 3, and about
/// 24 runs in all for small mixes.
int
soloReps(std::size_t kernels)
{
    return std::max<int>(3, static_cast<int>((24 + kernels - 1) / kernels));
}

std::vector<SoloRun>
soloReplay(const std::vector<KernelSpec>& mix,
           const std::vector<Artifact>& artifacts)
{
    const std::size_t reps = static_cast<std::size_t>(soloReps(mix.size()));
    std::vector<std::vector<compiler::RunResult>> results(
        mix.size(), std::vector<compiler::RunResult>(reps));
    std::vector<std::vector<char>> ok(mix.size(),
                                      std::vector<char>(reps, 0));
    std::vector<SoloRun> runs(mix.size());
    std::atomic<std::size_t> next{0};
    // A run that throws leaves its ok flag unset, which fails the check
    // below; nothing may escape the thread.
    const auto worker = [&] {
        try {
            compiler::FheRuntime runtime(executeParams());
            // Cache the fresh budget before any reseed, as RuntimePool
            // does: measured later, it would consume the first run's
            // randomness.
            runtime.scheme().freshNoiseBudget();
            for (std::size_t job;
                 (job = next.fetch_add(1)) < mix.size() * reps;) {
                const std::size_t k = job % mix.size();
                const std::size_t rep = job / mix.size();
                if (!artifacts[k].present) continue;
                const compiler::Compiled& compiled = artifacts[k].compiled;
                const ir::Env inputs =
                    benchsuite::syntheticInputs(mix[k].reference);
                runtime.scheme().reseedRandomness(fnv1a(mix[k].name));
                const double start = now();
                compiler::RunResult& result = results[k][rep];
                result = compiled.key_planned
                             ? runtime.run(compiled.program, inputs,
                                           compiled.key_plan)
                             : runtime.run(compiled.program, inputs, 0);
                ok[k][rep] = result.final_noise_budget > 0 &&
                             matchesReference(mix[k], inputs, result.output);
                if (rep == 0) {
                    runs[k].start = start;
                    runs[k].end = now();
                }
            }
        } catch (const std::exception& e) {
            std::fprintf(stderr, "perfbench: solo replay failed: %s\n",
                         e.what());
        }
    };
    std::vector<std::thread> threads;
    for (int t = 0; t < kWorkers; ++t) threads.emplace_back(worker);
    for (std::thread& thread : threads) thread.join();

    for (std::size_t k = 0; k < mix.size(); ++k) {
        SoloRun& run = runs[k];
        run.result = results[k][0];
        run.correct = true;
        std::vector<double> eval_ms;
        for (std::size_t rep = 0; rep < reps; ++rep) {
            const compiler::RunResult& r = results[k][rep];
            eval_ms.push_back(r.exec_seconds * 1e3);
            // Same artifact, inputs and seed on any runtime: the outputs
            // and the noise accounting must repeat bit for bit.
            run.correct = run.correct && ok[k][rep] &&
                          r.output == run.result.output &&
                          r.consumed_noise == run.result.consumed_noise &&
                          r.mod_switch_drops == run.result.mod_switch_drops;
        }
        run.median_eval_ms = median(eval_ms);
    }
    return runs;
}

/// Everything the workloads share once their window(s) ran: the
/// tallies, the correctness and determinism checks, and the metrics.
class Report
{
  public:
    explicit Report(const std::vector<KernelSpec>& mix)
        : mix_(mix), artifacts_(mix.size())
    {}

    /// Count and check every record of a window.
    void
    tally(const Window& window)
    {
        for (const Record& record : window.records) {
            ++outcome_.attempted;
            if (!record.ok || !record.correct) ++outcome_.failed;
            if (!record.ok && failures_logged_++ < 5) {
                std::fprintf(stderr, "perfbench: %s failed: %s\n",
                             mix_[static_cast<std::size_t>(record.kernel)]
                                 .name.c_str(),
                             record.error.c_str());
            }
            if (record.ok && !record.correct) {
                outcome_.correct = false;
                std::fprintf(stderr, "perfbench: WRONG OUTPUT from %s\n",
                             mix_[static_cast<std::size_t>(record.kernel)]
                                 .name.c_str());
            }
        }
    }

    /// Record a check outside the measured window (setup, solo replay).
    void
    check(bool ok, const std::string& what)
    {
        ++outcome_.attempted;
        if (!ok) {
            ++outcome_.failed;
            outcome_.correct = false;
            std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                         what.c_str());
        }
    }

    void
    artifact(int kernel, const compiler::Compiled& compiled)
    {
        if (!noteArtifact(artifacts_, kernel, compiled)) {
            check(false, "artifact of " +
                             mix_[static_cast<std::size_t>(kernel)].name +
                             " differs between compiles");
        }
    }

    /// Run the solo replay, check it, and derive the deterministic
    /// counts and the code-quality metrics.
    void
    finishCode(Trace* trace)
    {
        solo_ = soloReplay(mix_, artifacts_);
        std::vector<double> costs, noise, eval_ms;
        double rewrite_steps = 0, instrs = 0, rotations = 0, ct_ct_mul = 0;
        double drops = 0, rotation_keys = 0;
        for (std::size_t k = 0; k < mix_.size(); ++k) {
            const Artifact& artifact = artifacts_[k];
            check(artifact.present, "no artifact for " + mix_[k].name);
            if (!artifact.present) continue;
            const SoloRun& run = solo_[k];
            check(run.correct, "solo run of " + mix_[k].name);
            const compiler::CompileStats& stats = artifact.compiled.stats;
            const auto counts = artifact.compiled.program.counts();
            costs.push_back(stats.final_cost);
            noise.push_back(std::max(1, run.result.consumed_noise));
            eval_ms.push_back(run.median_eval_ms);
            rewrite_steps += stats.rewrite_steps;
            instrs += static_cast<double>(
                artifact.compiled.program.instrs.size());
            rotations += counts.rotations;
            ct_ct_mul += counts.ct_ct_mul;
            drops += run.result.mod_switch_drops;
            rotation_keys += run.result.rotation_keys;
            if (trace) {
                const int span = trace->add("replay.run", run.start, run.end,
                                            -1, 0);
                trace->addSequence(span,
                                   {{"replay.setup",
                                     run.result.setup_seconds},
                                    {"replay.evaluate",
                                     run.result.exec_seconds},
                                    {"replay.decode",
                                     run.result.decode_seconds}},
                                   run.start, 0);
            }
        }
        solo_eval_ms_geomean_ = geomean(eval_ms);
        auto& det = outcome_.deterministic;
        det["code_cost_geomean"] = geomean(costs);
        det["noise_consumed_geomean"] = geomean(noise);
        det["trs.rewrite_steps"] = rewrite_steps;
        det["compiler.instrs"] = instrs;
        det["compiler.rotations"] = rotations;
        det["compiler.ct_ct_mul"] = ct_ct_mul;
        det["runtime.mod_switch_drops"] = drops;
        det["runtime.rotation_keys"] = rotation_keys;
        outcome_.end_to_end.set("code_cost_geomean",
                                det["code_cost_geomean"], "cost");
        outcome_.end_to_end.set("noise_consumed_geomean",
                                det["noise_consumed_geomean"], "bits");
        for (const char* name :
             {"trs.rewrite_steps", "compiler.instrs", "compiler.rotations",
              "compiler.ct_ct_mul", "runtime.mod_switch_drops",
              "runtime.rotation_keys"}) {
            outcome_.per_layer.set(name, det[name], "count");
        }
    }

    double soloEvalMsGeomean() const { return solo_eval_ms_geomean_; }

    /// The request-level end-to-end metrics of the measured window.
    void
    endToEnd(const Window& window, const std::vector<double>& setup_seconds,
             double gen_eval_ms)
    {
        std::vector<double> latency;
        std::size_t completed = 0;
        for (const Record& record : window.records) {
            latency.push_back(record.latency() * 1e3);
            if (record.ok && record.correct) ++completed;
        }
        Metrics& m = outcome_.end_to_end;
        m.set("setup_s", median(setup_seconds), "s");
        m.set("jobs_per_s", completed / std::max(window.wall, 1e-9), "1/s");
        m.set("latency_p50_ms", percentile(latency, 50), "ms");
        m.set("latency_p95_ms", percentile(latency, 95), "ms");
        m.set("gen_eval_ms_geomean", gen_eval_ms, "ms");
        m.set("peak_rss_mib", window.peak_rss_mib, "MiB");
        printKernelRows(window);
        std::printf("service: %llu runtimes created, %llu arena bytes\n",
                    static_cast<unsigned long long>(
                        window.stats.runtimes_created),
                    static_cast<unsigned long long>(window.stats.arena_bytes));
        failed_frac_ = static_cast<double>(window.records.size() - completed) /
                       std::max<std::size_t>(1, window.records.size());
        if (latency.size() < 200) {
            std::fprintf(stderr,
                         "perfbench: WARNING only %zu requests measured; "
                         "p95 rests on fewer than 10 samples beyond it\n",
                         latency.size());
        }
    }

    /// Per-layer metrics of the traced window: the request spans and
    /// their self times, the service's stats and response fields.
    void
    perLayer(const Window& traced, double untraced_p50_ms,
             const std::vector<double>& train_seconds, Trace& trace)
    {
        Metrics& m = outcome_.per_layer;
        std::vector<double> latency, parse, pred_err, setup, evaluate,
            decode, late;
        std::size_t compile_hits = 0, run_hits = 0, run_joins = 0;
        for (std::size_t i = 0; i < traced.records.size(); ++i) {
            const Record& r = traced.records[i];
            latency.push_back(r.latency() * 1e3);
            parse.push_back((r.parsed - r.issued) * 1e3);
            late.push_back((r.issued - r.due) * 1e3);
            compile_hits += r.compile_hit;
            run_hits += r.run_hit;
            run_joins += r.run_join;
            addRequestSpans(r, i + 1, trace);
            if (!r.ok) continue;
            const double measured = r.is_run ? r.exec_s : r.compile_s;
            if ((r.is_run ? r.ownsRun() : r.ownsCompile()) && measured > 0) {
                pred_err.push_back(std::fabs(r.predicted_s - measured) /
                                   measured);
            }
            if (r.is_run && r.ownsRun()) {
                setup.push_back(r.result.setup_seconds * 1e3);
                evaluate.push_back(r.result.exec_seconds * 1e3);
                decode.push_back(r.result.decode_seconds * 1e3);
            }
        }
        if (setup.empty()) { // compile_rl executes only in the solo replay
            for (const SoloRun& run : solo_) {
                setup.push_back(run.result.setup_seconds * 1e3);
                evaluate.push_back(run.result.exec_seconds * 1e3);
                decode.push_back(run.result.decode_seconds * 1e3);
            }
        }
        const double n = std::max<std::size_t>(1, traced.records.size());
        const double traced_p50 = percentile(latency, 50);

        m.set("ir.parse_ms", median(parse), "ms");
        m.set("rl.train_s", median(train_seconds), "s");
        m.set("runtime.setup_ms", median(setup), "ms");
        m.set("runtime.evaluate_ms", median(evaluate), "ms");
        m.set("runtime.decode_ms", median(decode), "ms");

        // Counters over the window only: the service also served the
        // set-up requests before it.
        const service::ServiceStats& s = traced.stats;
        const service::ServiceStats& s0 = traced.before;
        using telemetry::Phase;
        const auto phase = [&](Phase p, double pct) {
            return percentileSince(s.telemetry.phase(p), s0.telemetry.phase(p),
                                   pct) *
                   1e3;
        };
        m.set("service.queue_wait_p50_ms", phase(Phase::QueueWait, 50), "ms");
        m.set("service.queue_wait_p95_ms", phase(Phase::QueueWait, 95), "ms");
        m.set("service.pool_busy_frac",
              (s.pool.busy_seconds - s0.pool.busy_seconds) /
                  (kWorkers * std::max(traced.wall, 1e-9)),
              "frac");
        m.set("service.window_wait_p50_ms", phase(Phase::WindowWait, 50),
              "ms");
        m.set("service.window_wait_p95_ms", phase(Phase::WindowWait, 95),
              "ms");
        const double executed = static_cast<double>(s.executed - s0.executed);
        const double solo = static_cast<double>(s.solo_runs - s0.solo_runs);
        const double lanes =
            static_cast<double>(s.packed_lanes - s0.packed_lanes) + solo;
        const double full =
            static_cast<double>(s.full_flushes - s0.full_flushes);
        const double flushes =
            full + static_cast<double>(s.window_flushes - s0.window_flushes);
        m.set("service.lanes_per_row", executed ? lanes / executed : 0.0,
              "lanes");
        m.set("service.solo_frac", executed ? solo / executed : 0.0, "frac");
        m.set("service.full_flush_frac", flushes ? full / flushes : 0.0,
              "frac");
        m.set("service.packed_fallbacks",
              static_cast<double>(s.packed_fallbacks - s0.packed_fallbacks),
              "count");
        m.set("service.compile_hit_frac", compile_hits / n, "frac");
        m.set("service.run_hit_frac", run_hits / n, "frac");
        m.set("service.run_join_frac", run_joins / n, "frac");
        m.set("service.pred_err_median", median(pred_err), "ratio");
        m.set("service.pred_err_p95", percentile(pred_err, 95), "ratio");
        m.set("service.runtimes_created",
              static_cast<double>(s.runtimes_created), "count");
        m.set("service.arena_bytes", static_cast<double>(s.arena_bytes),
              "bytes");

        // Self time per span name. Every span below a request lies on
        // its blocking path, so their self times must account for the
        // request's median latency.
        const std::map<std::string, double> self =
            trace.medianRequestSelfByName();
        for (const char* name : kRequestSpanNames) {
            const auto it = self.find(name);
            m.set(std::string("span.") + name + ".self_p50_ms",
                  it == self.end() ? 0.0 : it->second * 1e3, "ms");
        }
        // A request's self time is what no layer span explains; the rest
        // is its blocking path through the layers.
        const std::vector<double> self_times = trace.selfTimes();
        std::vector<double> explained;
        for (std::size_t i = 0; i < trace.spans().size(); ++i) {
            const Span& span = trace.spans()[i];
            if (span.name == "request") {
                explained.push_back((span.end - span.start - self_times[i]) *
                                    1e3);
            }
        }
        m.set("harness.blocking_self_coverage",
              traced_p50 > 0 ? median(explained) / traced_p50 : 0.0, "ratio");
        m.set("harness.trace_overhead_frac",
              untraced_p50_ms > 0 ? traced_p50 / untraced_p50_ms - 1.0 : 0.0,
              "frac");
        m.set("harness.send_late_p95_ms", percentile(late, 95), "ms");
        m.set("harness.requests", static_cast<double>(traced.records.size()),
              "count");
    }

    /// Open-loop honesty: is the backlog growing instead of steady?
    void
    saturation(const Window& window)
    {
        const std::vector<double>& b = window.backlog;
        double growth = 0.0;
        if (b.size() >= 4) {
            const std::size_t half = b.size() / 2;
            double first = 0.0, last = 0.0;
            for (std::size_t i = 0; i < half; ++i) first += b[i];
            const std::size_t tail = b.size() - b.size() / 4;
            for (std::size_t i = tail; i < b.size(); ++i) last += b[i];
            first /= half;
            last /= b.size() - tail;
            growth = (last + 1.0) / (first + 1.0);
        }
        // Steady state keeps the backlog flat (Little's law); a backlog
        // that keeps doubling means arrivals outrun completions and the
        // reported latency is a function of the run length.
        const bool saturated = growth > 2.0;
        if (saturated) {
            std::fprintf(stderr,
                         "perfbench: SATURATED: backlog grew %.2fx over the "
                         "window; latency is not a steady-state figure\n",
                         growth);
        }
        outcome_.per_layer.set("harness.backlog_growth", growth, "ratio");
        outcome_.per_layer.set("harness.saturated", saturated ? 1.0 : 0.0,
                               "flag");
    }

    /// One row per kernel: request count, median latency, median
    /// server-side evaluation, generated-code cost and consumed noise.
    void
    printKernelRows(const Window& window) const
    {
        std::vector<std::vector<double>> latency(mix_.size()),
            eval(mix_.size());
        for (const Record& r : window.records) {
            const std::size_t k = static_cast<std::size_t>(r.kernel);
            latency[k].push_back(r.latency() * 1e3);
            if (r.ok && r.is_run && r.ownsRun()) {
                eval[k].push_back(r.result.exec_seconds * 1e3);
            }
        }
        for (std::size_t k = 0; k < solo_.size(); ++k) {
            if (eval[k].empty()) eval[k].push_back(solo_[k].median_eval_ms);
        }
        std::printf("%-18s %6s %10s %9s %8s %6s\n", "kernel", "reqs",
                    "p50_ms", "eval_ms", "cost", "noise");
        for (std::size_t k = 0; k < mix_.size(); ++k) {
            const double cost = artifacts_[k].present
                                    ? artifacts_[k].compiled.stats.final_cost
                                    : 0.0;
            const int noise =
                k < solo_.size() ? solo_[k].result.consumed_noise : 0;
            std::printf("%-18s %6zu %10.2f %9.2f %8.1f %6d\n",
                        mix_[k].name.c_str(), latency[k].size(),
                        median(latency[k]), median(eval[k]), cost, noise);
        }
    }

    double failedFrac() const { return failed_frac_; }
    Outcome& outcome() { return outcome_; }

    static constexpr const char* kRequestSpanNames[] = {
        "request", "send-late", "parse",   "queue-wait", "join-wait",
        "compile", "window-wait", "setup", "evaluate",   "decode"};

  private:
    /// The request span and its children, laid out from the response's
    /// phase fields in the order the request went through them.
    static void
    addRequestSpans(const Record& r, std::uint64_t id, Trace& trace)
    {
        const int request = trace.add("request", r.due, r.done, -1, id);
        trace.add("send-late", r.due, r.issued, request, id);
        trace.add("parse", r.issued, r.parsed, request, id);
        const double start = r.parsed;
        if (!r.is_run) {
            const double compile = r.ownsCompile() ? r.compile_s : 0.0;
            const double at = trace.addSequence(
                request, {{"queue-wait", std::max(0.0, r.queue_s - compile)}},
                start, id);
            if (compile > 0) {
                const int span =
                    trace.add("compile", at, at + compile, request, id);
                std::vector<std::pair<std::string, double>> passes;
                for (const compiler::PassStats& pass : r.passes) {
                    passes.emplace_back("pass." + pass.name, pass.seconds);
                }
                trace.addSequence(span, passes, at, id);
            }
            return;
        }
        if (!r.ownsRun()) {
            trace.addSequence(request, {{"join-wait", r.queue_s}}, start, id);
            return;
        }
        const double compile = r.ownsCompile() ? r.compile_s : 0.0;
        const double queue_wait =
            std::max(0.0, r.queue_s - compile - r.window_s - r.exec_s);
        trace.addSequence(request,
                          {{"queue-wait", queue_wait},
                           {"compile", compile},
                           {"window-wait", r.window_s},
                           {"setup", r.result.setup_seconds},
                           {"evaluate", r.result.exec_seconds},
                           {"decode", r.result.decode_seconds}},
                          start, id);
    }

    const std::vector<KernelSpec>& mix_;
    std::vector<Artifact> artifacts_;
    std::vector<SoloRun> solo_;
    Outcome outcome_;
    double solo_eval_ms_geomean_ = 0.0;
    double failed_frac_ = 0.0;
    int failures_logged_ = 0;
};

service::ServiceConfig
serviceConfig(bool traced)
{
    service::ServiceConfig config;
    config.num_workers = kWorkers;
    config.telemetry = traced;
    return config;
}

/// Build a service kSetupReps times, each replacing the last, and keep
/// the last one; setup_s is the median of the build times.
template <class Build>
std::unique_ptr<service::CompileService>
repeatSetup(Build build, std::vector<double>& seconds, Trace& trace)
{
    std::unique_ptr<service::CompileService> service;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        service.reset();
        const double start = now();
        service = build(false);
        trace.add("bench.setup", start, now());
        seconds.push_back(now() - start);
    }
    return service;
}

/// The trained agent with the ruleset it points into.
struct TrainedAgent
{
    std::unique_ptr<trs::Ruleset> ruleset;
    std::unique_ptr<rl::RlAgent> agent;
};

/// A fixed small PPO budget: deterministic for a fixed budget and seed,
/// so every run ships the same policy.
TrainedAgent
trainAgent(double* train_seconds, Trace& trace, int parent)
{
    TrainedAgent trained;
    trained.ruleset =
        std::make_unique<trs::Ruleset>(trs::buildChehabRuleset());
    rl::AgentConfig config;
    config.ppo.total_timesteps = 64;
    config.ppo.steps_per_update = 64;
    config.ppo.minibatch_size = 32;
    config.compile_rollouts = 2;
    trained.agent = std::make_unique<rl::RlAgent>(*trained.ruleset, config);
    dataset::MotifSynthesizer synth(1234, {});
    const std::vector<ir::ExprPtr> programs =
        dataset::buildDataset([&synth] { return synth.generate(); }, 64, {});
    const double start = now();
    trained.agent->train(programs);
    *train_seconds = now() - start;
    trace.add("rl.train", start, start + *train_seconds, parent);
    return trained;
}

/// A seeded permutation of [0, n).
std::vector<int>
shuffled(int n, chehab::Rng& rng)
{
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    for (int i = n - 1; i > 0; --i) {
        std::swap(order[static_cast<std::size_t>(i)],
                  order[rng.uniformInt(static_cast<std::uint64_t>(i) + 1)]);
    }
    return order;
}


/// What finish() needs besides the windows.
struct Context
{
    const std::vector<KernelSpec>* mix;
    compiler::DriverConfig pipeline;
    const trs::Ruleset* ruleset;
    const rl::RlAgent* agent;
    std::vector<double> setup_seconds;
    std::vector<double> train_seconds;
    /// Generated-code speed from the solo replay (no window executes).
    bool eval_from_solo = false;
    /// Spans recorded during set-up (one "bench.setup" span per
    /// repetition).
    const Trace* setup_trace = nullptr;
};

/// Geometric mean over kernels of the median server-side evaluation time
/// of the window's owner executions.
double
responseEvalMsGeomean(const Window& window, std::size_t kernels)
{
    std::vector<std::vector<double>> per_kernel(kernels);
    for (const Record& r : window.records) {
        if (r.ok && r.ownsRun()) {
            per_kernel[static_cast<std::size_t>(r.kernel)].push_back(
                r.result.exec_seconds * 1e3);
        }
    }
    std::vector<double> medians;
    for (const auto& samples : per_kernel) {
        if (!samples.empty()) medians.push_back(median(samples));
    }
    return geomean(medians);
}

Outcome
finish(Report& report, const Options& options, const Context& context,
       const Window& measured, const Window& traced)
{
    Trace trace;
    if (context.setup_trace) trace.append(*context.setup_trace);
    report.finishCode(options.trace ? &trace : nullptr);
    report.endToEnd(measured, context.setup_seconds,
                    context.eval_from_solo
                        ? report.soloEvalMsGeomean()
                        : responseEvalMsGeomean(measured,
                                                context.mix->size()));
    report.saturation(measured);
    if (options.trace) {
        std::vector<double> untraced;
        for (const Record& r : measured.records) {
            untraced.push_back(r.latency() * 1e3);
        }
        report.perLayer(traced, percentile(untraced, 50),
                        context.train_seconds, trace);
        replayLayers(*context.mix, context.pipeline, *context.ruleset,
                     context.agent, executeParams(), trace,
                     report.outcome().per_layer);
        const std::string path = options.out_dir + "/trace-" +
                                 options.workload + "-seed" +
                                 std::to_string(options.seed) + ".json";
        if (!trace.writeChromeJson(path)) {
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
        }
    }
    std::printf("failed_frac %.6f (%llu of %llu checked operations failed)\n",
                report.failedFrac(),
                static_cast<unsigned long long>(report.outcome().failed),
                static_cast<unsigned long long>(report.outcome().attempted));
    return std::move(report.outcome());
}

/// Compile every kernel of \p mix on \p service and run each once on
/// its fixed synthetic inputs, checking every response: fills the
/// compile cache, the runtime pool and the load model before timing.
void
warmService(service::ServiceApi& service, const std::vector<KernelSpec>& mix,
            const compiler::DriverConfig& pipeline, Report& report)
{
    std::vector<service::CompileRequest> compiles;
    std::vector<service::RunRequest> runs;
    for (const KernelSpec& kernel : mix) {
        service::CompileRequest compile;
        compile.name = kernel.name;
        compile.source = ir::parse(kernel.text);
        compile.pipeline = pipeline;
        compiles.push_back(compile);
        service::RunRequest run;
        run.name = kernel.name;
        run.source = compile.source;
        run.pipeline = pipeline;
        run.inputs = benchsuite::syntheticInputs(kernel.reference);
        run.params = executeParams();
        runs.push_back(std::move(run));
    }
    // The runtime pool grows one runtime per concurrent execution, so
    // left alone its size (and the process's memory) would depend on
    // the peak concurrency a run happens to reach. Fill it to one
    // runtime per worker: requests whose key budgets differ never share
    // a row, so these execute on kWorkers workers at once.
    for (int budget = 0; budget < kWorkers; ++budget) {
        service::RunRequest run = runs.front();
        run.key_budget = budget;
        for (auto& entry : run.inputs) entry.second += budget + 1;
        runs.push_back(std::move(run));
    }
    const std::vector<service::CompileResponse> compiled =
        service.compileBatch(std::move(compiles));
    for (std::size_t k = 0; k < mix.size(); ++k) {
        report.check(compiled[k].ok, "setup compile of " + mix[k].name +
                                         ": " + compiled[k].error);
        if (compiled[k].ok) {
            report.artifact(static_cast<int>(k), compiled[k].compiled);
        }
    }
    std::vector<ir::Env> inputs;
    for (const service::RunRequest& run : runs) inputs.push_back(run.inputs);
    const std::vector<service::RunResponse> ran =
        service.runBatch(std::move(runs));
    for (std::size_t i = 0; i < ran.size(); ++i) {
        const KernelSpec& kernel = mix[i < mix.size() ? i : 0];
        report.check(ran[i].ok && matchesReference(kernel, inputs[i],
                                                   ran[i].result.output),
                     "setup run of " + kernel.name + ": " + ran[i].error);
    }
    service.drain();
}

/// Send request \p record on \p service: parse its IR text on the client
/// thread (part of the request's latency), then submit.
std::future<service::RunResponse>
sendRun(service::ServiceApi& service, const KernelSpec& kernel,
        const compiler::DriverConfig& pipeline, Record& record)
{
    record.issued = now();
    service::RunRequest request;
    request.name = kernel.name;
    request.source = ir::parse(kernel.text);
    request.pipeline = pipeline;
    request.inputs = record.inputs;
    request.params = executeParams();
    record.parsed = now();
    return service.submitRun(std::move(request));
}

// ------------------------------------------------------------ compile_rl

Outcome
compileRl(const Options& options)
{
    const std::vector<KernelSpec> mix = kernelMix();
    const int k = static_cast<int>(mix.size());
    Report report(mix);

    std::vector<double> setup_seconds, train_seconds;
    Trace setup_trace;
    TrainedAgent trained;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const double start = now();
        const int span = setup_trace.add("bench.setup", start, start);
        double train = 0.0;
        trained = trainAgent(&train, setup_trace, span);
        setup_trace.close(span, now());
        setup_seconds.push_back(now() - start);
        train_seconds.push_back(train);
    }
    const compiler::DriverConfig pipeline = compiler::DriverConfig::rl();

    // Every pass over the mix gets a fresh service, so every request
    // compiles cold; a pass's service retires once its last response is
    // in.
    const auto window = [&](double seconds, bool traced) {
        Window w;
        chehab::Rng rng(options.seed * 2 + traced);
        std::vector<std::unique_ptr<service::ServiceApi>> services;
        std::vector<std::vector<int>> orders;
        std::vector<int> outstanding;
        std::size_t issued = 0;
        service::ServiceConfig config = serviceConfig(traced);
        config.agent = trained.agent.get();
        const auto retire = [&](std::size_t pass) {
            services[pass]->drain();
            w.stats.merge(services[pass]->stats());
            services[pass].reset();
        };
        const auto issue = [&](std::size_t i) {
            const std::size_t pass = i / static_cast<std::size_t>(k);
            if (pass == services.size()) {
                services.push_back(
                    std::make_unique<service::CompileService>(config));
                orders.push_back(shuffled(k, rng));
                outstanding.push_back(0);
            }
            Record record;
            record.kernel = orders[pass][i % static_cast<std::size_t>(k)];
            record.due = record.issued = now();
            service::CompileRequest request;
            request.name = mix[static_cast<std::size_t>(record.kernel)].name;
            request.source =
                ir::parse(mix[static_cast<std::size_t>(record.kernel)].text);
            request.pipeline = pipeline;
            record.parsed = now();
            w.records.push_back(std::move(record));
            ++outstanding[pass];
            ++issued;
            return services[pass]->submit(std::move(request));
        };
        const auto complete = [&](std::size_t i,
                                  service::CompileResponse response,
                                  double t) {
            Record& record = w.records[i];
            record.done = t;
            record.ok = response.ok;
            record.error = response.error;
            record.compile_hit = response.cache_hit;
            record.compile_join = response.deduplicated;
            record.queue_s = response.queue_seconds;
            record.compile_s = response.compile_seconds;
            record.predicted_s = response.predicted_seconds;
            record.passes = response.compiled.stats.passes;
            if (response.ok) report.artifact(record.kernel, response.compiled);
            const std::size_t pass = i / static_cast<std::size_t>(k);
            if (--outstanding[pass] == 0 &&
                issued >= (pass + 1) * static_cast<std::size_t>(k)) {
                retire(pass);
            }
        };
        closedLoop<service::CompileResponse>(seconds, w, issue, complete);
        for (std::size_t pass = 0; pass < services.size(); ++pass) {
            if (services[pass]) retire(pass);
        }
        finishWindow(w);
        report.tally(w);
        for (const Record& record : w.records) {
            if (record.compile_hit || record.compile_join) {
                report.check(false, "compile_rl request was served from "
                                    "a cache");
            }
        }
        return w;
    };

    const double half = options.trace ? options.seconds / 2 : options.seconds;
    const Window measured = window(half, false);
    const Window traced = options.trace ? window(half, true) : Window{};
    return finish(report, options,
                  {&mix, pipeline, trained.ruleset.get(), trained.agent.get(),
                   setup_seconds, train_seconds, true, &setup_trace},
                  measured, traced);
}

// ---------------------------------------------------------- execute_solo

Outcome
executeSolo(const Options& options)
{
    const std::vector<KernelSpec> mix = kernelMix();
    const int k = static_cast<int>(mix.size());
    Report report(mix);
    compiler::DriverConfig pipeline = compiler::DriverConfig::greedy();
    pipeline.passes.push_back("key-select");
    pipeline.passes.push_back("mod-switch");
    pipeline.key_budget = 4;

    const auto setup = [&](bool traced) {
        auto service = std::make_unique<service::CompileService>(
            serviceConfig(traced));
        warmService(*service, mix, pipeline, report);
        return service;
    };
    std::vector<double> setup_seconds;
    Trace setup_trace;
    std::unique_ptr<service::CompileService> service =
        repeatSetup(setup, setup_seconds, setup_trace);

    const auto window = [&](double seconds, service::ServiceApi& api,
                            bool traced) {
        Window w;
        w.before = api.stats();
        chehab::Rng rng(options.seed * 2 + traced);
        const std::vector<int> order = shuffled(k, rng);
        const auto issue = [&](std::size_t i) {
            Record record;
            record.kernel = order[i % static_cast<std::size_t>(k)];
            const KernelSpec& kernel =
                mix[static_cast<std::size_t>(record.kernel)];
            record.inputs = seededInputs(kernel.reference, rng);
            record.due = now();
            w.records.push_back(std::move(record));
            return sendRun(api, kernel, pipeline, w.records.back());
        };
        const auto complete = [&](std::size_t i, service::RunResponse response,
                                  double t) {
            Record& record = w.records[i];
            record.done = t;
            fillRun(record, response,
                    mix[static_cast<std::size_t>(record.kernel)]);
            if (response.ok) report.artifact(record.kernel, response.compiled);
        };
        closedLoop<service::RunResponse>(seconds, w, issue, complete);
        api.drain();
        w.stats = api.stats();
        finishWindow(w);
        report.tally(w);
        for (const Record& record : w.records) {
            if (record.ok && !record.compile_hit) {
                report.check(false, "execute_solo compile missed the cache");
            }
        }
        return w;
    };

    const double half = options.trace ? options.seconds / 2 : options.seconds;
    const Window measured = window(half, *service, false);
    Window traced;
    if (options.trace) {
        service = setup(true);
        traced = window(half, *service, true);
    }
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    return finish(report, options,
                  {&mix, pipeline, &ruleset, nullptr, setup_seconds, {},
                   false, &setup_trace},
                  measured, traced);
}

// -------------------------------------------------------- service_packed

Outcome
servicePacked(const Options& options)
{
    const std::vector<KernelSpec> mix = smallMix();
    const int k = static_cast<int>(mix.size());
    Report report(mix);
    const compiler::DriverConfig pipeline = compiler::DriverConfig::greedy();

    const auto setup = [&](bool traced) {
        service::ServiceConfig config = serviceConfig(traced);
        config.max_lanes = 0;
        config.cross_kernel = true;
        config.adaptive_window = true;
        config.batch_window_seconds = kPackedWindowSeconds;
        auto service = std::make_unique<service::CompileService>(config);
        warmService(*service, mix, pipeline, report);
        return service;
    };
    std::vector<double> setup_seconds;
    Trace setup_trace;
    std::unique_ptr<service::CompileService> service =
        repeatSetup(setup, setup_seconds, setup_trace);

    const auto window = [&](double seconds, service::ServiceApi& api,
                            bool traced) {
        Window w;
        w.before = api.stats();
        chehab::Rng rng(options.seed * 2 + traced);
        // A Poisson process conditioned on its count: a fixed number of
        // arrivals at sorted uniform times, so the offered load is the
        // same in every run and only the arrival pattern varies.
        const std::size_t count = static_cast<std::size_t>(
            std::llround(kPackedRate * seconds));
        std::vector<double> due(count);
        for (double& t : due) t = rng.uniformReal() * seconds;
        std::sort(due.begin(), due.end());
        w.records.resize(count);
        for (std::size_t i = 0; i < count; ++i) {
            Record& record = w.records[i];
            if (i > 0 && rng.uniformReal() < kPackedRepeatShare) {
                const Record& earlier = w.records[rng.uniformInt(i)];
                record.kernel = earlier.kernel;
                record.inputs = earlier.inputs;
            } else {
                record.kernel = static_cast<int>(
                    rng.uniformInt(static_cast<std::uint64_t>(k)));
                record.inputs = seededInputs(
                    mix[static_cast<std::size_t>(record.kernel)].reference,
                    rng);
            }
        }
        const auto issue = [&](std::size_t i, double due_at) {
            Record& record = w.records[i];
            record.due = due_at;
            return sendRun(api, mix[static_cast<std::size_t>(record.kernel)],
                           pipeline, record);
        };
        const auto complete = [&](std::size_t i, service::RunResponse response,
                                  double t) {
            Record& record = w.records[i];
            record.done = t;
            fillRun(record, response,
                    mix[static_cast<std::size_t>(record.kernel)]);
            if (response.ok) report.artifact(record.kernel, response.compiled);
        };
        openLoop<service::RunResponse>(due, w, issue, complete);
        api.drain();
        w.stats = api.stats();
        finishWindow(w);
        report.tally(w);
        return w;
    };

    const double half = options.trace ? options.seconds / 2 : options.seconds;
    const Window measured = window(half, *service, false);
    Window traced;
    if (options.trace) {
        service = setup(true);
        traced = window(half, *service, true);
    }
    const trs::Ruleset ruleset = trs::buildChehabRuleset();
    // A packed row's evaluation time depends on which kernels shared it,
    // so the generated code's own speed comes from the solo replay.
    return finish(report, options,
                  {&mix, pipeline, &ruleset, nullptr, setup_seconds, {},
                   true, &setup_trace},
                  measured, traced);
}

} // namespace

Outcome
runWorkload(const Options& options)
{
    if (options.workload == "compile_rl") return compileRl(options);
    if (options.workload == "execute_solo") return executeSolo(options);
    if (options.workload == "service_packed") return servicePacked(options);
    throw std::invalid_argument("unknown workload " + options.workload);
}

} // namespace perfbench
