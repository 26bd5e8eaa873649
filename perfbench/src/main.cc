/// \file
/// perfbench: one run of one workload.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--out-dir DIR]
///
/// Prints the environment stamp, a human-readable metric table, the
/// deterministic counts (a `DETERMINISM {...}` line that run.py
/// compares across runs), and as the last line the result object:
///   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
/// With --trace 0 the metrics are the end-to-end set; with --trace 1
/// the per-layer set of a traced run, whose spans go to
/// DIR/trace-<workload>-seed<N>.json. Exits 1 when any output or
/// deterministic count is wrong, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "support/parse_int.h"
#include "workloads.h"

namespace {

int
usage(const char* argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload compile_rl|execute_solo|service_packed"
                 " --seed N --seconds S --trace 0|1 [--out-dir DIR]\n",
                 argv0);
    return 2;
}

} // namespace

int
main(int argc, char** argv)
{
    perfbench::Options options;
    std::int64_t seed = -1;
    std::int64_t seconds = 0;
    std::int64_t trace = -1;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        bool ok = true;
        if (flag == "--workload") {
            options.workload = value;
        } else if (flag == "--seed") {
            ok = chehab::parseInt64(value.c_str(), seed) && seed >= 0;
        } else if (flag == "--seconds") {
            ok = chehab::parseInt64(value.c_str(), seconds) && seconds > 0 &&
                 seconds <= 600;
        } else if (flag == "--trace") {
            ok = chehab::parseInt64(value.c_str(), trace) && (trace == 0 || trace == 1);
        } else if (flag == "--out-dir") {
            options.out_dir = value;
        } else {
            ok = false;
        }
        if (!ok) return usage(argv[0]);
    }
    if (argc % 2 == 0 || options.workload.empty() || seed < 0 ||
        seconds <= 0 || trace < 0) {
        return usage(argv[0]);
    }
    options.seed = static_cast<std::uint64_t>(seed);
    options.seconds = static_cast<double>(seconds);
    options.trace = trace == 1;

    std::printf("ENV %s\n", perfbench::environmentJson(4096, options.seed)
                                .c_str());
    std::fflush(stdout);
    perfbench::Outcome outcome;
    try {
        outcome = perfbench::runWorkload(options);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    }

    const perfbench::Metrics& metrics =
        options.trace ? outcome.per_layer : outcome.end_to_end;
    std::printf("%s metrics (%s):\n%s", options.workload.c_str(),
                options.trace ? "per-layer, traced" : "end-to-end",
                metrics.table().c_str());
    std::string det = "{";
    for (const auto& [name, value] : outcome.deterministic) {
        det += (det.size() > 1 ? ", " : "") + perfbench::jsonString(name) +
               ": " + perfbench::jsonNumber(value);
    }
    std::printf("DETERMINISM %s}\n", det.c_str());
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                outcome.correct ? "true" : "false",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed),
                metrics.json().c_str());
    return outcome.correct ? 0 : 1;
}
