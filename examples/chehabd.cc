/// \file
/// chehabd — batch compile(-and-run) service driver.
///
/// Reads kernel sources (s-expression IR, one kernel per file), runs
/// the whole batch through the concurrent CompileService, and reports
/// per-request statistics as a table, CSV, or JSON. With --run each
/// kernel is additionally executed on a pooled SealLite runtime with
/// deterministic synthetic inputs, and the report gains the
/// Table-6-style noise/latency columns (exec time, fresh/final noise
/// budget, consumed noise, rotation keys).
///
///   $ ./chehabd kernels/dot8.ir kernels/blur.ir
///   $ ./chehabd --suite 8 --workers 4 --repeat 10 --csv stats.csv
///   $ ./chehabd --suite 8 --run --key-budget 6 --json run.json
///   $ echo "(+ (* a b) c)" | ./chehabd -
///
/// Options:
///   --workers N     worker threads in total (default 4); with
///                   --shards S each shard gets max(1, N/S) workers
///   --shards N      run N independent service shards behind the
///                   ShardRouter (default 1): compile traffic routes by
///                   cache affinity (consistent hashing on the cache
///                   key), run traffic by predicted shard load with an
///                   affinity preference. Outputs are bit-identical at
///                   any shard count; --stats-json gains per-shard and
///                   router counters, --trace-out shows one "shard N"
///                   track group per shard
///   --mode M        noopt | greedy (default) | rl
///   --max-steps N   greedy rewrite budget (default 75)
///   --repeat R      submit the batch R times; repeats exercise the
///                   content-addressed caches (default 1)
///   --suite N       add the built-in Porcupine suite at size N
///   --train-steps N PPO budget for --mode rl (default 256)
///   --cache-cap N   LRU capacity of the kernel/run caches (default
///                   unbounded)
///   --run           execute each kernel on SealLite after compiling
///   --key-budget N  rotation-key budget β for --run (default 0 = one
///                   key per distinct step)
///   --mod-switch 0|1 append the mid-circuit modulus-switching pass to
///                   the pipeline (default 0). With --run the report
///                   gains a `drops` column (modulus drops the noise
///                   gate actually took) and a footer line with the
///                   total drops and the minimum post-switch noise
///                   budget. Decoded outputs are unchanged either way.
///   --poly-n N      SealLite polynomial degree for --run (default 256,
///                   toy-sized for speed; slots = N/2)
///   --batch-lanes N slot-batching lane cap for --run: pack up to N
///                   coalescible requests into one ciphertext row
///                   (default 1 = off, 0 = as many as the row allows)
///   --batch-window-us X  how long a pending run waits for row-mates
///                   before a partial batch flushes (default 500;
///                   fractional values allowed, e.g. 62.5)
///   --adaptive-window 0|1  1 (default) derives each group's flush
///                   deadline from the load model's arrival-rate
///                   estimate (ceiling-bounded by --batch-window-us);
///                   0 keeps the fixed window
///   --cross-kernel  let runs of *different* kernels share a ciphertext
///                   row (program concatenation on disjoint lanes; needs
///                   --batch-lanes != 1)
///   --distinct-inputs    give every --repeat copy its own synthetic
///                   inputs, so repeats become coalescible slot-batch
///                   lanes instead of run-cache hits
///   --csv PATH      write per-request stats CSV
///   --json PATH     write per-request stats JSON
///   --dump          print each distinct kernel's instruction stream
///                   and its per-pass compile-time breakdown
///   --telemetry 0|1 record request-lifecycle spans and per-phase
///                   latency histograms (default: on exactly when
///                   --trace-out or --stats-json is given)
///   --trace-out PATH  write the recorded spans as Chrome trace-event
///                   JSON — load in chrome://tracing or Perfetto to see
///                   each request's enqueue -> dispatch -> compile/
///                   execute span tree per worker track
///   --stats-json PATH write one service-wide snapshot as JSON: config,
///                   throughput, every service counter, the
///                   process-wide key-material registry counters, and
///                   per-phase latency percentiles (qwait_p50/p99,
///                   exec_p50/p99, window_wait_p99, ...)
///   --cache-dir PATH  on-disk persistence root (service/persist.h):
///                   compiled artifacts are stored content-addressed
///                   and reloaded on cache misses — a second chehabd
///                   run with the same --cache-dir warm-starts instead
///                   of recompiling (persist_hits in the footer and
///                   stats-json). Crash-safe and shareable between
///                   concurrent processes; corrupt/truncated/
///                   version-mismatched entries are skipped and
///                   counted, never trusted
///   --persist-load-model 0|1  with --cache-dir, also snapshot the
///                   load model's measured EWMA profiles at exit and
///                   reload them as scheduling priors at boot
///                   (default 1)
///   --hot-factor X  run traffic abandons its affinity shard when that
///                   shard's predicted load exceeds X times the
///                   least-loaded shard's (default 2.0; needs
///                   --shards > 1)
///   --hot-slack-ms X  absolute slack added to the hot-shard test so
///                   millisecond-scale loads keep cache affinity
///                   (default 10)
///
/// With --run and --batch-lanes > 1 the report gains packed-vs-solo
/// latency columns: `lanes` (how many requests shared the executed
/// row) and `amort_ms` (the shared execution wall time divided by the
/// lane count — the per-request cost packing actually achieved, to
/// compare against the solo `exec_ms`).
///
/// Every report also carries the load model's predicted-vs-measured
/// pair (`pred_ms`/`meas_ms` in the table, `pred_s`/`meas_s` in
/// CSV/JSON): the predicted wall time the scheduler dispatched on
/// against the wall time actually measured (compile time without
/// --run, execution time with it), so the model's cost error is
/// visible per request and summarized in the footer.
///
/// With telemetry on the footer gains a per-phase latency table
/// (enqueue, queue_wait, compile, execute, setup, evaluate, decode,
/// window_wait — count plus p50/p90/p99/max ms), and the CSV/JSON
/// reports gain the per-request window_s/setup_s/decode_s phase
/// columns plus the batch-wide percentile columns. Telemetry only
/// reads clocks — it never changes scheduling decisions or outputs.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "benchsuite/kernels.h"
#include "common.h"
#include "dataset/dataset.h"
#include "fhe/ntt.h"
#include "fhe/sealite.h"
#include "dataset/motif_gen.h"
#include "ir/parser.h"
#include "rl/agent.h"
#include "service/compile_service.h"
#include "service/shard_router.h"
#include "support/csv.h"
#include "support/parse_int.h"
#include "support/stopwatch.h"
#include "support/telemetry.h"

namespace {

using namespace chehab;

struct Options
{
    int workers = 4;
    int shards = 1;
    service::OptMode mode = service::OptMode::Greedy;
    int max_steps = 75;
    int repeat = 1;
    int suite_n = 0;
    int train_steps = 256;
    int cache_cap = 0;
    bool run = false;
    int key_budget = 0;
    int mod_switch = 0;
    /// -1 = auto (use AVX2 NTT kernels when compiled in and the CPU
    /// supports them); 0/1 force the dispatch off/on (forcing on is
    /// clamped to supported — see fhe::setSimdEnabled).
    int simd = -1;
    int poly_n = 256;
    int batch_lanes = 1;
    double batch_window_us = 500.0;
    int adaptive_window = 1;
    bool cross_kernel = false;
    bool distinct_inputs = false;
    std::string csv_path;
    std::string json_path;
    bool dump = false;
    /// -1 = auto: telemetry turns on exactly when an exporter below
    /// wants its output.
    int telemetry = -1;
    std::string trace_path;
    std::string stats_json_path;
    /// Empty = no persistence tier; set = artifacts (and, with
    /// persist_load_model, load-model snapshots) survive restarts.
    std::string cache_dir;
    int persist_load_model = 1;
    double hot_factor = 2.0;
    double hot_slack_ms = 10.0;
    std::vector<std::string> files;
};

void
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s [--workers N] [--shards N] "
                 "[--mode noopt|greedy|rl] [--max-steps N]\n"
                 "       [--repeat R] [--suite N] [--train-steps N] "
                 "[--cache-cap N]\n"
                 "       [--run] [--key-budget N] [--mod-switch 0|1] "
                 "[--simd 0|1] [--poly-n N] [--batch-lanes N]\n"
                 "       [--batch-window-us N] [--adaptive-window 0|1] "
                 "[--cross-kernel] [--distinct-inputs]\n"
                 "       [--csv PATH] [--json PATH] [--dump] "
                 "[--telemetry 0|1]\n"
                 "       [--trace-out PATH] [--stats-json PATH] "
                 "[--cache-dir PATH]\n"
                 "       [--persist-load-model 0|1] [--hot-factor X] "
                 "[--hot-slack-ms X]\n"
                 "       [kernel-file | -] ...\n",
                 argv0);
}

bool
parseArgs(int argc, char** argv, Options& options)
{
    // Checked parse: "--workers abc" must fail loudly, not silently
    // become 0 workers (std::atoi's behavior).
    auto intArg = [&](int& i, int& out) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "chehabd: %s needs a value\n", argv[i]);
            return false;
        }
        if (!parseInt(argv[i + 1], out)) {
            std::fprintf(stderr,
                         "chehabd: %s expects an integer, got '%s'\n",
                         argv[i], argv[i + 1]);
            return false;
        }
        ++i;
        return true;
    };
    // Same reject-garbage contract for floating-point flags: "62.5" is
    // fine, "abc", "1.5x" and "1e999" all fail loudly.
    auto doubleArg = [&](int& i, double& out) {
        if (i + 1 >= argc) {
            std::fprintf(stderr, "chehabd: %s needs a value\n", argv[i]);
            return false;
        }
        if (!parseDouble(argv[i + 1], out)) {
            std::fprintf(stderr,
                         "chehabd: %s expects a number, got '%s'\n",
                         argv[i], argv[i + 1]);
            return false;
        }
        ++i;
        return true;
    };
    auto strArg = [&](int& i, std::string& out) {
        if (i + 1 >= argc) return false;
        out = argv[++i];
        return true;
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workers") {
            if (!intArg(i, options.workers)) return false;
        } else if (arg == "--shards") {
            if (!intArg(i, options.shards)) return false;
        } else if (arg == "--mode") {
            std::string mode;
            if (!strArg(i, mode)) return false;
            if (mode == "noopt") {
                options.mode = service::OptMode::NoOpt;
            } else if (mode == "greedy") {
                options.mode = service::OptMode::Greedy;
            } else if (mode == "rl") {
                options.mode = service::OptMode::Rl;
            } else {
                std::fprintf(stderr, "unknown mode '%s'\n", mode.c_str());
                return false;
            }
        } else if (arg == "--max-steps") {
            if (!intArg(i, options.max_steps)) return false;
        } else if (arg == "--repeat") {
            if (!intArg(i, options.repeat)) return false;
        } else if (arg == "--suite") {
            if (!intArg(i, options.suite_n)) return false;
        } else if (arg == "--train-steps") {
            if (!intArg(i, options.train_steps)) return false;
        } else if (arg == "--cache-cap") {
            if (!intArg(i, options.cache_cap)) return false;
        } else if (arg == "--run") {
            options.run = true;
        } else if (arg == "--key-budget") {
            if (!intArg(i, options.key_budget)) return false;
        } else if (arg == "--mod-switch") {
            if (!intArg(i, options.mod_switch)) return false;
        } else if (arg == "--simd") {
            if (!intArg(i, options.simd)) return false;
        } else if (arg == "--poly-n") {
            if (!intArg(i, options.poly_n)) return false;
        } else if (arg == "--batch-lanes") {
            if (!intArg(i, options.batch_lanes)) return false;
        } else if (arg == "--batch-window-us") {
            if (!doubleArg(i, options.batch_window_us)) return false;
        } else if (arg == "--adaptive-window") {
            if (!intArg(i, options.adaptive_window)) return false;
        } else if (arg == "--cross-kernel") {
            options.cross_kernel = true;
        } else if (arg == "--distinct-inputs") {
            options.distinct_inputs = true;
        } else if (arg == "--csv") {
            if (!strArg(i, options.csv_path)) return false;
        } else if (arg == "--json") {
            if (!strArg(i, options.json_path)) return false;
        } else if (arg == "--dump") {
            options.dump = true;
        } else if (arg == "--telemetry") {
            if (!intArg(i, options.telemetry)) return false;
        } else if (arg == "--trace-out") {
            if (!strArg(i, options.trace_path)) return false;
        } else if (arg == "--stats-json") {
            if (!strArg(i, options.stats_json_path)) return false;
        } else if (arg == "--cache-dir") {
            if (!strArg(i, options.cache_dir)) return false;
        } else if (arg == "--persist-load-model") {
            if (!intArg(i, options.persist_load_model)) return false;
        } else if (arg == "--hot-factor") {
            if (!doubleArg(i, options.hot_factor)) return false;
        } else if (arg == "--hot-slack-ms") {
            if (!doubleArg(i, options.hot_slack_ms)) return false;
        } else if (arg == "--help" || arg == "-h") {
            return false;
        } else {
            options.files.push_back(arg);
        }
    }
    return true;
}

std::string
jsonEscape(const std::string& text)
{
    std::string out;
    for (char c : text) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buffer[8];
                std::snprintf(buffer, sizeof(buffer), "\\u%04x", c);
                out += buffer;
            } else {
                out += c;
            }
        }
    }
    return out;
}

struct NamedKernel
{
    std::string name;
    ir::ExprPtr source;
};

/// --stats-json: one service-wide snapshot — run configuration,
/// throughput over the requests the service ran, the failed requests
/// (`rejected` counts the input files the parser refused; `failures`
/// includes them), every ServiceStats counter (merged across shards), the
/// router's routing decisions, a per-shard counter breakdown, and the
/// per-phase latency histograms. The flat qwait_p50/exec_p99-style
/// keys at the end duplicate the nested phase table for one-liner
/// extraction (jq, spreadsheet joins); the CSV carries the same
/// columns.
void
writeStatsJson(std::ostream& out, const Options& options,
               const service::ShardedService& sharded,
               const service::ServiceStats& stats, std::size_t requests,
               std::size_t rejected, int failures, double jobs_per_s,
               double wall_seconds, const std::string& invariant_error)
{
    const telemetry::TelemetrySnapshot& tel = stats.telemetry;
    auto phaseJson = [&](telemetry::Phase phase) {
        const telemetry::LatencyHistogram& hist = tel.phase(phase);
        out << "\"" << telemetry::phaseName(phase)
            << "\": {\"count\": " << hist.count()
            << ", \"mean_s\": " << hist.mean()
            << ", \"min_s\": " << hist.min()
            << ", \"max_s\": " << hist.max()
            << ", \"p50_s\": " << hist.percentile(50.0)
            << ", \"p90_s\": " << hist.percentile(90.0)
            << ", \"p99_s\": " << hist.percentile(99.0) << "}";
    };
    // Generic lambda: CompileCache::Stats and RunCache::Stats are
    // distinct nested types with the same shape.
    auto cacheJson = [&](const char* key, const auto& cache) {
        out << "  \"" << key << "\": {\"hits\": " << cache.hits
            << ", \"misses\": " << cache.misses
            << ", \"inflight_joins\": " << cache.inflight_joins
            << ", \"entries\": " << cache.entries
            << ", \"evictions\": " << cache.evictions
            << ", \"resident\": " << cache.resident << "},\n";
    };
    out << "{\n";
    out << "  \"workers\": " << options.workers << ",\n";
    out << "  \"shards\": " << sharded.shards() << ",\n";
    out << "  \"mode\": \"" << service::optModeName(options.mode)
        << "\",\n";
    out << "  \"run\": " << (options.run ? "true" : "false") << ",\n";
    out << "  \"simd\": " << (fhe::simdEnabled() ? "true" : "false")
        << ",\n";
    out << "  \"batch_lanes\": " << options.batch_lanes << ",\n";
    out << "  \"cache_dir\": \"" << jsonEscape(options.cache_dir)
        << "\",\n";
    out << "  \"requests\": " << requests << ",\n";
    out << "  \"rejected\": " << rejected << ",\n";
    out << "  \"failures\": " << failures << ",\n";
    out << "  \"wall_s\": " << wall_seconds << ",\n";
    out << "  \"jobs_per_s\": " << jobs_per_s << ",\n";
    // Empty string = every cross-counter invariant held on this
    // (quiescent) snapshot.
    out << "  \"invariants\": \"" << jsonEscape(invariant_error)
        << "\",\n";
    out << "  \"counters\": {\"submitted\": " << stats.submitted
        << ", \"compiled\": " << stats.compiled
        << ", \"failed\": " << stats.failed
        << ", \"total_compile_s\": " << stats.total_compile_seconds
        << ", \"run_submitted\": " << stats.run_submitted
        << ", \"executed\": " << stats.executed
        << ", \"run_failed\": " << stats.run_failed
        << ", \"total_exec_s\": " << stats.total_exec_seconds
        << ", \"runtimes_created\": " << stats.runtimes_created
        << ", \"arena_allocs\": " << stats.arena_allocs
        << ", \"arena_reuse\": " << stats.arena_reuses
        << ", \"arena_bytes\": " << stats.arena_bytes
        << ", \"packed_groups\": " << stats.packed_groups
        << ", \"packed_lanes\": " << stats.packed_lanes
        << ", \"solo_runs\": " << stats.solo_runs
        << ", \"full_flushes\": " << stats.full_flushes
        << ", \"window_flushes\": " << stats.window_flushes
        << ", \"packed_fallbacks\": " << stats.packed_fallbacks
        << ", \"composite_groups\": " << stats.composite_groups
        << ", \"composite_members\": " << stats.composite_members
        << ", \"mod_switch_drops\": " << stats.mod_switch_drops
        << ", \"persist_hits\": " << stats.persist.hits
        << ", \"persist_misses\": " << stats.persist.misses
        << ", \"persist_corrupt\": " << stats.persist.corrupt
        << ", \"persist_writes\": " << stats.persist.writes
        << "},\n";
    cacheJson("compile_cache", stats.cache);
    cacheJson("run_cache", stats.run_cache);
    out << "  \"load_model\": {\"warm_predictions\": "
        << stats.load_model.warm_predictions
        << ", \"cold_predictions\": "
        << stats.load_model.cold_predictions
        << ", \"compile_observations\": "
        << stats.load_model.compile_observations
        << ", \"run_observations\": "
        << stats.load_model.run_observations
        << ", \"window_shrinks\": " << stats.load_model.window_shrinks
        << ", \"window_ceilings\": " << stats.load_model.window_ceilings
        << ", \"share_preferred\": " << stats.load_model.share_preferred
        << ", \"solo_preferred\": " << stats.load_model.solo_preferred
        << "},\n";
    // Process-wide, so once here rather than per shard: every shard's
    // runtimes share the same registry entries.
    const fhe::KeyMaterialCacheStats keys = fhe::keyMaterialCacheStats();
    out << "  \"key_material\": {\"live_entries\": " << keys.live_entries
        << ", \"hits\": " << keys.hits << ", \"misses\": " << keys.misses
        << "},\n";
    out << "  \"pool\": {\"tasks_run\": " << stats.pool.tasks_run
        << ", \"busy_s\": " << stats.pool.busy_seconds << "},\n";
    const service::RouterStats router = sharded.routerStats();
    out << "  \"router\": {\"compile_routed\": " << router.compile_routed
        << ", \"run_affinity\": " << router.run_affinity
        << ", \"run_rerouted\": " << router.run_rerouted << "},\n";
    // Per-shard breakdown next to the merged "counters" above: the
    // routing skew (who compiled what, who executed what, how busy
    // each pool ran) is only visible unmerged.
    out << "  \"per_shard\": [";
    for (int s = 0; s < sharded.shards(); ++s) {
        const service::ServiceStats shard = sharded.shardStats(s);
        if (s > 0) out << ", ";
        out << "{\"shard\": " << s << ", \"submitted\": "
            << shard.submitted
            << ", \"run_submitted\": " << shard.run_submitted
            << ", \"compiled\": " << shard.compiled
            << ", \"executed\": " << shard.executed
            << ", \"cache_hits\": " << shard.cache.hits
            << ", \"run_cache_hits\": " << shard.run_cache.hits
            << ", \"tasks_run\": " << shard.pool.tasks_run
            << ", \"busy_s\": " << shard.pool.busy_seconds << "}";
    }
    out << "],\n";
    out << "  \"telemetry\": {\"enabled\": "
        << (tel.enabled ? "true" : "false")
        << ", \"events\": " << tel.events
        << ", \"dropped\": " << tel.dropped << ", \"phases\": {";
    for (int p = 0; p < telemetry::kPhaseCount; ++p) {
        if (p > 0) out << ", ";
        phaseJson(static_cast<telemetry::Phase>(p));
    }
    out << "}},\n";
    out << "  \"qwait_p50\": "
        << tel.phase(telemetry::Phase::QueueWait).percentile(50.0)
        << ",\n";
    out << "  \"qwait_p99\": "
        << tel.phase(telemetry::Phase::QueueWait).percentile(99.0)
        << ",\n";
    out << "  \"compile_p50\": "
        << tel.phase(telemetry::Phase::Compile).percentile(50.0) << ",\n";
    out << "  \"compile_p99\": "
        << tel.phase(telemetry::Phase::Compile).percentile(99.0) << ",\n";
    out << "  \"exec_p50\": "
        << tel.phase(telemetry::Phase::Execute).percentile(50.0) << ",\n";
    out << "  \"exec_p99\": "
        << tel.phase(telemetry::Phase::Execute).percentile(99.0) << ",\n";
    out << "  \"window_wait_p99\": "
        << tel.phase(telemetry::Phase::WindowWait).percentile(99.0)
        << "\n";
    out << "}\n";
}

} // namespace

int
main(int argc, char** argv)
{
    Options options;
    if (!parseArgs(argc, argv, options)) {
        usage(argv[0]);
        return 2;
    }
    if (options.files.empty() && options.suite_n == 0) {
        usage(argv[0]);
        std::fprintf(stderr, "\nno kernels given; try --suite 8\n");
        return 2;
    }
    // SealLite needs a power-of-two degree with t = 65537 ≡ 1 (mod 2n);
    // reject bad values here rather than aborting inside a worker.
    if (options.run &&
        (options.poly_n < 8 || options.poly_n > 32768 ||
         (options.poly_n & (options.poly_n - 1)) != 0)) {
        std::fprintf(stderr,
                     "chehabd: --poly-n must be a power of two in "
                     "[8, 32768], got %d\n",
                     options.poly_n);
        return 2;
    }
    if (options.batch_lanes < 0 || options.batch_window_us < 0) {
        std::fprintf(stderr,
                     "chehabd: --batch-lanes and --batch-window-us must "
                     "be non-negative\n");
        return 2;
    }
    if (options.persist_load_model < 0 ||
        options.persist_load_model > 1) {
        std::fprintf(stderr,
                     "chehabd: --persist-load-model must be 0 or 1\n");
        return 2;
    }
    if (options.hot_factor <= 0.0) {
        std::fprintf(stderr, "chehabd: --hot-factor must be > 0\n");
        return 2;
    }
    if (options.hot_slack_ms < 0.0) {
        std::fprintf(stderr,
                     "chehabd: --hot-slack-ms must be non-negative\n");
        return 2;
    }
    if (options.telemetry < -1 || options.telemetry > 1) {
        std::fprintf(stderr, "chehabd: --telemetry must be 0 or 1\n");
        return 2;
    }
    if (options.mod_switch < 0 || options.mod_switch > 1) {
        std::fprintf(stderr, "chehabd: --mod-switch must be 0 or 1\n");
        return 2;
    }
    if (options.adaptive_window < 0 || options.adaptive_window > 1) {
        std::fprintf(stderr,
                     "chehabd: --adaptive-window must be 0 or 1\n");
        return 2;
    }
    if (options.simd < -1 || options.simd > 1) {
        std::fprintf(stderr, "chehabd: --simd must be 0 or 1\n");
        return 2;
    }
    if (options.simd != -1) {
        fhe::setSimdEnabled(options.simd != 0);
    }
    // Telemetry defaults to on exactly when an exporter needs it; an
    // explicit --telemetry wins in either direction (0 with --trace-out
    // yields an empty trace).
    const bool telemetry_on =
        options.telemetry == -1
            ? !options.trace_path.empty() ||
                  !options.stats_json_path.empty()
            : options.telemetry != 0;

    // ---- assemble the kernel list -------------------------------------
    std::vector<NamedKernel> kernels;
    // A file that does not parse is one failed request of the batch;
    // the other kernels still run.
    std::vector<service::RunResponse> rejected;
    for (const std::string& path : options.files) {
        std::string text;
        if (path == "-") {
            std::ostringstream buffer;
            buffer << std::cin.rdbuf();
            text = buffer.str();
        } else {
            std::ifstream in(path);
            if (!in) {
                std::fprintf(stderr, "chehabd: cannot read %s\n",
                             path.c_str());
                return 1;
            }
            std::ostringstream buffer;
            buffer << in.rdbuf();
            text = buffer.str();
        }
        NamedKernel kernel;
        kernel.name = path == "-" ? "<stdin>" : path;
        try {
            kernel.source = ir::parse(text);
        } catch (const std::exception& e) {
            std::fprintf(stderr, "chehabd: %s: %s\n", kernel.name.c_str(),
                         e.what());
            service::RunResponse failed;
            failed.name = kernel.name;
            failed.error = e.what();
            rejected.push_back(std::move(failed));
            continue;
        }
        kernels.push_back(std::move(kernel));
    }
    if (options.suite_n > 0) {
        for (benchsuite::Kernel& kernel :
             benchsuite::porcupineSuite(options.suite_n)) {
            kernels.push_back({kernel.name, kernel.program});
        }
    }

    compiler::DriverConfig pipeline =
        service::makePipeline(options.mode, {}, options.max_steps);
    // The mod-switch pass rides after whatever the mode picked; it is
    // part of the pipeline fingerprint, so --mod-switch runs get their
    // own kernel/run cache entries and never collide with plain ones.
    if (options.mod_switch != 0) pipeline.passes.push_back("mod-switch");

    // ---- optional RL agent --------------------------------------------
    std::unique_ptr<rl::RlAgent> agent;
    service::ServiceConfig config;
    // --workers is the fleet total; each shard runs its own pool of
    // max(1, total/shards) workers so adding shards redistributes
    // rather than multiplies threads.
    config.shards = options.shards;
    config.num_workers =
        options.shards > 0
            ? std::max(1, options.workers / options.shards)
            : options.workers;
    config.kernel_cache_capacity =
        static_cast<std::size_t>(options.cache_cap);
    config.run_cache_capacity =
        static_cast<std::size_t>(options.cache_cap);
    config.max_lanes = options.batch_lanes;
    config.batch_window_seconds = options.batch_window_us * 1e-6;
    config.adaptive_window = options.adaptive_window != 0;
    config.cross_kernel = options.cross_kernel;
    config.telemetry = telemetry_on;
    config.cache_dir = options.cache_dir;
    config.persist_load_model = options.persist_load_model != 0;
    // Reject nonsense configurations here, where the error reads as a
    // usage problem, instead of letting the service constructor throw.
    if (const std::string problem = config.validate(); !problem.empty()) {
        std::fprintf(stderr, "chehabd: %s\n", problem.c_str());
        usage(argv[0]);
        return 2;
    }
    trs::Ruleset ruleset = trs::buildChehabRuleset();
    if (options.mode == service::OptMode::Rl) {
        std::fprintf(stderr,
                     "chehabd: training RL agent (%d PPO steps)...\n",
                     options.train_steps);
        rl::AgentConfig agent_config;
        agent_config.ppo.total_timesteps = options.train_steps;
        agent_config.ppo.steps_per_update = 128;
        agent_config.compile_rollouts = 2;
        agent = std::make_unique<rl::RlAgent>(ruleset, agent_config);
        dataset::MotifSynthesizer synth(1234, {});
        agent->train(dataset::buildDataset(
            [&synth] { return synth.generate(); }, 128, {}));
        config.agent = agent.get();
    }

    fhe::SealLiteParams run_params;
    run_params.n = options.poly_n;
    run_params.prime_count = 4;
    run_params.seed = 17;

    // ---- run ----------------------------------------------------------
    // With --run every response is a RunResponse; otherwise compile-only
    // responses are adapted into the same reporting shape. Always the
    // sharded front end: at --shards 1 it routes everything to its
    // single shard and behaves exactly like a plain CompileService.
    service::RouterConfig router_config;
    router_config.hot_factor = options.hot_factor;
    router_config.hot_slack_seconds = options.hot_slack_ms * 1e-3;
    // An unusable --cache-dir (permission denied, path is a file)
    // surfaces as std::invalid_argument from the shard constructors;
    // report it as the usage error it is instead of terminating.
    std::unique_ptr<service::ShardedService> service_holder;
    try {
        service_holder = std::make_unique<service::ShardedService>(
            config, router_config);
    } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "chehabd: %s\n", e.what());
        return 2;
    }
    service::ShardedService& compile_service = *service_holder;
    const Stopwatch wall;
    std::vector<service::RunResponse> responses;
    if (options.run) {
        std::vector<service::RunRequest> batch;
        for (int r = 0; r < options.repeat; ++r) {
            for (const NamedKernel& kernel : kernels) {
                service::RunRequest request;
                request.name = kernel.name;
                request.source = kernel.source;
                request.pipeline = pipeline;
                request.inputs = benchsuite::syntheticInputs(kernel.source);
                if (options.distinct_inputs && r > 0) {
                    // Jitter per repeat: the copies stop colliding in
                    // the run cache and instead coalesce into packed
                    // rows (when --batch-lanes allows).
                    for (auto& [name, value] : request.inputs) {
                        value += r;
                    }
                }
                request.key_budget = options.key_budget;
                request.params = run_params;
                batch.push_back(std::move(request));
            }
        }
        responses = compile_service.runBatch(std::move(batch));
    } else {
        std::vector<service::CompileRequest> batch;
        for (int r = 0; r < options.repeat; ++r) {
            for (const NamedKernel& kernel : kernels) {
                service::CompileRequest request;
                request.name = kernel.name;
                request.source = kernel.source;
                request.pipeline = pipeline;
                batch.push_back(std::move(request));
            }
        }
        for (service::CompileResponse& response :
             compile_service.compileBatch(std::move(batch))) {
            service::RunResponse adapted;
            adapted.name = std::move(response.name);
            adapted.ok = response.ok;
            adapted.error = std::move(response.error);
            adapted.compiled = std::move(response.compiled);
            adapted.compile_cache_hit = response.cache_hit;
            adapted.compile_deduplicated = response.deduplicated;
            adapted.queue_seconds = response.queue_seconds;
            adapted.compile_seconds = response.compile_seconds;
            adapted.estimated_cost = response.estimated_cost;
            adapted.predicted_seconds = response.predicted_seconds;
            adapted.worker_id = response.worker_id;
            responses.push_back(std::move(adapted));
        }
    }
    const double wall_seconds = wall.elapsedSeconds();
    // Rows [serviced, end) are the parser's rejections: counted as
    // failures, but never submitted, so they are not part of jobs/s.
    const std::size_t serviced = responses.size();
    responses.insert(responses.end(),
                     std::make_move_iterator(rejected.begin()),
                     std::make_move_iterator(rejected.end()));
    // The last future resolves from inside its worker task; wait for
    // the task epilogues too so the stats snapshot and the exported
    // trace carry every span (wall_seconds above intentionally stops
    // at response availability).
    compile_service.drain();

    // ---- report -------------------------------------------------------
    if (options.run) {
        std::printf("%-24s %-7s %-3s %-5s %-5s %9s %9s %8s %8s %9s %5s "
                    "%6s %6s %5s %5s %6s\n",
                    "kernel", "mode", "ok", "csrc", "rsrc", "queue_ms",
                    "comp_ms", "pred_ms", "meas_ms", "amort_ms", "lanes",
                    "noise", "final", "keys", "drops", "worker");
    } else {
        std::printf("%-24s %-7s %-3s %-5s %9s %8s %8s %7s %6s\n",
                    "kernel", "mode", "ok", "src", "queue_ms", "pred_ms",
                    "meas_ms", "cost", "worker");
    }
    int failures = 0;
    // Mean relative prediction error of the load model over the batch:
    // |pred - meas| / meas, averaged over requests with a measurement.
    double error_sum = 0.0;
    int error_count = 0;
    for (std::size_t i = 0; i < responses.size(); ++i) {
        const service::RunResponse& response = responses[i];
        if (!response.ok) ++failures;
        // A rejected file never reached a cache.
        const bool rejected_row = i >= serviced;
        const char* compile_src =
            rejected_row ? "-"
            : response.compile_cache_hit
                ? "hit"
                : (response.compile_deduplicated ? "join" : "miss");
        // pred vs meas: the wall time the scheduler dispatched on
        // against the wall time actually measured — the execution for
        // --run, the compile otherwise.
        const double pred_s = response.predicted_seconds;
        const double meas_s =
            options.run ? response.exec_seconds : response.compile_seconds;
        if (response.ok && meas_s > 0.0) {
            error_sum += std::abs(pred_s - meas_s) / meas_s;
            ++error_count;
        }
        if (options.run) {
            const char* run_src =
                rejected_row ? "-"
                : response.run_cache_hit
                    ? "hit"
                    : (response.run_deduplicated ? "join" : "miss");
            // Packed-vs-solo latency: meas_ms is the (shared) execution
            // wall time; amort_ms divides it across the lanes that rode
            // the row — for solo runs the two columns are equal.
            const double amort_ms =
                response.exec_seconds * 1e3 /
                (response.packed_lanes > 0 ? response.packed_lanes : 1);
            std::printf("%-24s %-7s %-3s %-5s %-5s %9.2f %9.2f %8.2f "
                        "%8.2f %9.2f %5d %6d %6d %5d %5d %6d\n",
                        response.name.c_str(),
                        service::optModeName(options.mode),
                        response.ok ? "y" : "N", compile_src, run_src,
                        response.queue_seconds * 1e3,
                        response.compile_seconds * 1e3, pred_s * 1e3,
                        meas_s * 1e3, amort_ms,
                        response.packed_lanes,
                        response.result.consumed_noise,
                        response.result.final_noise_budget,
                        response.result.rotation_keys,
                        response.result.mod_switch_drops,
                        response.worker_id);
        } else {
            std::printf("%-24s %-7s %-3s %-5s %9.2f %8.2f %8.2f %7.0f "
                        "%6d\n",
                        response.name.c_str(),
                        service::optModeName(options.mode),
                        response.ok ? "y" : "N", compile_src,
                        response.queue_seconds * 1e3, pred_s * 1e3,
                        meas_s * 1e3, response.estimated_cost,
                        response.worker_id);
        }
        if (!response.ok) {
            std::printf("  error: %s\n", response.error.c_str());
        }
    }

    const service::ServiceStats stats = compile_service.stats();
    const std::size_t rejected_count = responses.size() - serviced;
    const double jobs_per_s =
        wall_seconds > 0 ? static_cast<double>(serviced) / wall_seconds
                         : 0.0;
    std::printf("\n%zu requests in %.3f s (%.1f jobs/s) on %d workers: "
                "%llu compiled, %llu cache hits, %llu in-flight joins, "
                "%llu evicted, %llu failed\n",
                responses.size(), wall_seconds, jobs_per_s,
                compile_service.numWorkers(),
                static_cast<unsigned long long>(stats.compiled),
                static_cast<unsigned long long>(stats.cache.hits),
                static_cast<unsigned long long>(stats.cache.inflight_joins),
                static_cast<unsigned long long>(stats.cache.evictions),
                static_cast<unsigned long long>(stats.failed +
                                                rejected_count));
    if (!options.cache_dir.empty()) {
        std::printf("persist: %llu warm hits, %llu misses, %llu corrupt "
                    "entries skipped, %llu writes (%s)\n",
                    static_cast<unsigned long long>(stats.persist.hits),
                    static_cast<unsigned long long>(stats.persist.misses),
                    static_cast<unsigned long long>(stats.persist.corrupt),
                    static_cast<unsigned long long>(stats.persist.writes),
                    options.cache_dir.c_str());
    }
    if (options.shards > 1) {
        const service::RouterStats router = compile_service.routerStats();
        std::printf("router: %d shards, %llu compiles routed by "
                    "affinity, %llu runs kept on their affinity shard, "
                    "%llu re-routed to a cooler one\n",
                    compile_service.shards(),
                    static_cast<unsigned long long>(router.compile_routed),
                    static_cast<unsigned long long>(router.run_affinity),
                    static_cast<unsigned long long>(router.run_rerouted));
    }
    std::printf("load model: %llu warm / %llu cold predictions, "
                "%llu compile + %llu run observations",
                static_cast<unsigned long long>(
                    stats.load_model.warm_predictions),
                static_cast<unsigned long long>(
                    stats.load_model.cold_predictions),
                static_cast<unsigned long long>(
                    stats.load_model.compile_observations),
                static_cast<unsigned long long>(
                    stats.load_model.run_observations));
    if (error_count > 0) {
        std::printf(", %.1f%% mean |pred-meas|/meas error",
                    100.0 * error_sum / error_count);
    }
    std::printf("\n");
    if (options.run && options.batch_lanes != 1) {
        std::printf("adaptive window: %llu shrunk / %llu ceiling "
                    "deadlines\n",
                    static_cast<unsigned long long>(
                        stats.load_model.window_shrinks),
                    static_cast<unsigned long long>(
                        stats.load_model.window_ceilings));
    }
    if (options.run) {
        std::printf("run path: %llu executed, %llu run-cache hits, "
                    "%llu run joins, %llu runtimes pooled, %llu failed\n",
                    static_cast<unsigned long long>(stats.executed),
                    static_cast<unsigned long long>(stats.run_cache.hits),
                    static_cast<unsigned long long>(
                        stats.run_cache.inflight_joins),
                    static_cast<unsigned long long>(stats.runtimes_created),
                    static_cast<unsigned long long>(stats.run_failed));
        std::printf("fhe backend: AVX2 NTT %s (compiled-in %s, cpu %s); "
                    "poly arena %llu reuses / %llu allocs, %.1f MiB "
                    "minted\n",
                    fhe::simdEnabled() ? "on" : "off",
                    fhe::simdCompiledIn() ? "yes" : "no",
                    fhe::simdSupported() ? "avx2" : "scalar",
                    static_cast<unsigned long long>(stats.arena_reuses),
                    static_cast<unsigned long long>(stats.arena_allocs),
                    static_cast<double>(stats.arena_bytes) /
                        (1024.0 * 1024.0));
        if (options.batch_lanes != 1) {
            std::printf(
                "slot batching: %llu packed groups carrying %llu lanes "
                "(%llu cross-kernel rows spanning %llu kernels), "
                "%llu solo runs, %llu full flushes, %llu window flushes, "
                "%llu fallbacks\n",
                static_cast<unsigned long long>(stats.packed_groups),
                static_cast<unsigned long long>(stats.packed_lanes),
                static_cast<unsigned long long>(stats.composite_groups),
                static_cast<unsigned long long>(stats.composite_members),
                static_cast<unsigned long long>(stats.solo_runs),
                static_cast<unsigned long long>(stats.full_flushes),
                static_cast<unsigned long long>(stats.window_flushes),
                static_cast<unsigned long long>(stats.packed_fallbacks));
        }
        if (options.mod_switch != 0) {
            // Post-switch headroom: the smallest noise budget any
            // request finished with after its modulus drops. With the
            // gate working, this stays positive — drops spend budget
            // the circuit was never going to use.
            int min_final = 0;
            bool have_final = false;
            for (const service::RunResponse& response : responses) {
                if (!response.ok) continue;
                if (!have_final ||
                    response.result.final_noise_budget < min_final) {
                    min_final = response.result.final_noise_budget;
                    have_final = true;
                }
            }
            std::printf("mod-switch: %llu modulus drops across executed "
                        "rows; min noise budget after switching: %d bits\n",
                        static_cast<unsigned long long>(
                            stats.mod_switch_drops),
                        have_final ? min_final : 0);
        }
    }
    if (telemetry_on) {
        std::printf("\ntelemetry: %llu trace events (%llu dropped)\n",
                    static_cast<unsigned long long>(
                        stats.telemetry.events),
                    static_cast<unsigned long long>(
                        stats.telemetry.dropped));
        benchcommon::printPhaseTable(stats.telemetry);
    }
    // Every request has resolved by now, so the strict (quiescent)
    // accounting equalities must hold; a non-empty result is a service
    // bookkeeping bug worth surfacing even in a reporting tool.
    const std::string invariant_error =
        service::checkStatsInvariants(stats, /*quiescent=*/true);
    if (!invariant_error.empty()) {
        std::fprintf(stderr, "chehabd: WARNING: %s\n",
                     invariant_error.c_str());
    }

    if (options.dump) {
        std::map<std::string, const service::RunResponse*> distinct;
        for (const service::RunResponse& response : responses) {
            if (response.ok) distinct.emplace(response.name, &response);
        }
        for (const auto& [name, response] : distinct) {
            std::printf("\n-- %s (%s) --\n", name.c_str(),
                        response->compiled.stats.passes.empty()
                            ? "no pass breakdown"
                            : "per-pass breakdown");
            for (const compiler::PassStats& pass :
                 response->compiled.stats.passes) {
                std::printf("  %-14s %9.3f ms   cost %8.1f -> %-8.1f "
                            "%4d rewrites\n",
                            pass.name.c_str(), pass.seconds * 1e3,
                            pass.cost_before, pass.cost_after,
                            pass.rewrite_steps);
            }
            std::printf("%s",
                        response->compiled.program.disassemble().c_str());
        }
    }

    if (!options.csv_path.empty()) {
        std::vector<std::string> header = {
            "kernel", "mode", "ok", "cache_hit", "deduplicated", "queue_s",
            "compile_s", "pred_s", "meas_s", "estimated_cost", "worker",
            "instrs", "final_cost", "mult_depth", "error"};
        if (options.run) {
            for (const char* column :
                 {"run_cache_hit", "run_deduplicated", "exec_s",
                  "eval_s", "setup_s", "decode_s", "window_s",
                  "fresh_noise", "final_noise", "consumed_noise",
                  "rotation_keys", "mod_switch_drops", "packed_lanes",
                  "lane", "output0"}) {
                header.push_back(column);
            }
        }
        // Batch-wide latency percentiles (seconds), repeated on every
        // row so a single CSV joins per-request and aggregate views;
        // all 0 when telemetry is off. Shared columns + extraction:
        // bench/common.h keeps every results CSV's percentile schema
        // identical.
        benchcommon::appendLatencyColumns(header);
        const benchcommon::LatencySummary lat =
            benchcommon::latencySummary(stats.telemetry);
        CsvWriter csv(options.csv_path, header);
        for (const service::RunResponse& response : responses) {
            // pred_s/meas_s mirror the table columns: the scheduler's
            // predicted wall time vs. what the measured stage actually
            // took (execution with --run, compile otherwise).
            const double meas_s = options.run ? response.exec_seconds
                                              : response.compile_seconds;
            if (options.run) {
                csv.writeRow(
                    response.name, service::optModeName(options.mode),
                    response.ok ? 1 : 0,
                    response.compile_cache_hit ? 1 : 0,
                    response.compile_deduplicated ? 1 : 0,
                    response.queue_seconds, response.compile_seconds,
                    response.predicted_seconds, meas_s,
                    response.estimated_cost, response.worker_id,
                    response.compiled.program.instrs.size(),
                    response.compiled.stats.final_cost,
                    response.compiled.stats.mult_depth, response.error,
                    response.run_cache_hit ? 1 : 0,
                    response.run_deduplicated ? 1 : 0,
                    response.exec_seconds, response.result.exec_seconds,
                    response.result.setup_seconds,
                    response.result.decode_seconds,
                    response.window_wait_seconds,
                    response.result.fresh_noise_budget,
                    response.result.final_noise_budget,
                    response.result.consumed_noise,
                    response.result.rotation_keys,
                    response.result.mod_switch_drops,
                    response.packed_lanes, response.lane,
                    response.result.output.empty()
                        ? 0
                        : response.result.output.front(),
                    lat.qwait_p50, lat.qwait_p99, lat.compile_p50,
                    lat.compile_p99, lat.exec_p50, lat.exec_p99,
                    lat.window_wait_p99);
            } else {
                csv.writeRow(
                    response.name, service::optModeName(options.mode),
                    response.ok ? 1 : 0,
                    response.compile_cache_hit ? 1 : 0,
                    response.compile_deduplicated ? 1 : 0,
                    response.queue_seconds, response.compile_seconds,
                    response.predicted_seconds, meas_s,
                    response.estimated_cost, response.worker_id,
                    response.compiled.program.instrs.size(),
                    response.compiled.stats.final_cost,
                    response.compiled.stats.mult_depth, response.error,
                    lat.qwait_p50, lat.qwait_p99, lat.compile_p50,
                    lat.compile_p99, lat.exec_p50, lat.exec_p99,
                    lat.window_wait_p99);
            }
        }
        std::printf("wrote %s\n", options.csv_path.c_str());
    }

    if (!options.json_path.empty()) {
        std::ofstream json(options.json_path);
        json << "[\n";
        for (std::size_t i = 0; i < responses.size(); ++i) {
            const service::RunResponse& response = responses[i];
            json << "  {\"kernel\": \"" << jsonEscape(response.name)
                 << "\", \"mode\": \""
                 << service::optModeName(options.mode)
                 << "\", \"ok\": " << (response.ok ? "true" : "false")
                 << ", \"cache_hit\": "
                 << (response.compile_cache_hit ? "true" : "false")
                 << ", \"deduplicated\": "
                 << (response.compile_deduplicated ? "true" : "false")
                 << ", \"queue_s\": " << response.queue_seconds
                 << ", \"compile_s\": " << response.compile_seconds
                 << ", \"pred_s\": " << response.predicted_seconds
                 << ", \"meas_s\": "
                 << (options.run ? response.exec_seconds
                                 : response.compile_seconds);
            if (options.run) {
                json << ", \"run_cache_hit\": "
                     << (response.run_cache_hit ? "true" : "false")
                     << ", \"run_deduplicated\": "
                     << (response.run_deduplicated ? "true" : "false")
                     << ", \"exec_s\": " << response.exec_seconds
                     << ", \"eval_s\": " << response.result.exec_seconds
                     << ", \"setup_s\": "
                     << response.result.setup_seconds
                     << ", \"decode_s\": "
                     << response.result.decode_seconds
                     << ", \"window_s\": "
                     << response.window_wait_seconds
                     << ", \"fresh_noise\": "
                     << response.result.fresh_noise_budget
                     << ", \"final_noise\": "
                     << response.result.final_noise_budget
                     << ", \"consumed_noise\": "
                     << response.result.consumed_noise
                     << ", \"rotation_keys\": "
                     << response.result.rotation_keys
                     << ", \"mod_switch_drops\": "
                     << response.result.mod_switch_drops
                     << ", \"packed_lanes\": " << response.packed_lanes
                     << ", \"lane\": " << response.lane
                     << ", \"output\": [";
                for (std::size_t slot = 0;
                     slot < response.result.output.size(); ++slot) {
                    if (slot > 0) json << ", ";
                    json << response.result.output[slot];
                }
                json << "]";
            }
            json << ", \"estimated_cost\": " << response.estimated_cost
                 << ", \"worker\": " << response.worker_id
                 << ", \"error\": \"" << jsonEscape(response.error)
                 << "\"}" << (i + 1 < responses.size() ? "," : "") << "\n";
        }
        json << "]\n";
        std::printf("wrote %s\n", options.json_path.c_str());
    }

    if (!options.trace_path.empty()) {
        std::ofstream trace(options.trace_path);
        if (!trace) {
            std::fprintf(stderr, "chehabd: cannot write %s\n",
                         options.trace_path.c_str());
            return 1;
        }
        // Merged export: one Perfetto track group (pid) per shard, all
        // aligned onto the earliest shard's clock epoch.
        compile_service.writeChromeTrace(trace);
        std::printf("wrote %s (load in chrome://tracing or Perfetto)\n",
                    options.trace_path.c_str());
    }

    if (!options.stats_json_path.empty()) {
        std::ofstream stats_json(options.stats_json_path);
        if (!stats_json) {
            std::fprintf(stderr, "chehabd: cannot write %s\n",
                         options.stats_json_path.c_str());
            return 1;
        }
        writeStatsJson(stats_json, options, compile_service, stats,
                       responses.size(), rejected_count, failures,
                       jobs_per_s, wall_seconds, invariant_error);
        std::printf("wrote %s\n", options.stats_json_path.c_str());
    }

    return failures == 0 ? 0 : 1;
}
