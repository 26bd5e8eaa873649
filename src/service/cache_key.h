/// \file
/// Content-addressed cache keys for compiled kernels and run results.
///
/// Two compile requests map to the same key — and therefore to the same
/// cache entry — exactly when they would produce the same Compiled
/// artifact: same canonicalized IR (ir::Fingerprint over the
/// *canonicalized* tree, so syntactically different sources that
/// canonicalize identically share an entry) and same driver pass
/// configuration (compiler::DriverConfig::fingerprint(): the pass-name
/// sequence plus the parameters of the passes actually present, with
/// cost weights compared by exact bit pattern — a weight nudge is a
/// different compilation, and a NoOpt pipeline ignores greedy-only
/// parameters because the greedy pass is absent).
///
/// A run key extends the compile key with everything execution depends
/// on: the input bindings, the runtime key budget, and the SealLite
/// parameters.
///
/// This header also instantiates the generic single-flight cache
/// (service/single_flight.h) for both stages: CompileCache maps compile
/// keys to Compiled artifacts, RunCache maps run keys to executed
/// RunArtifacts, each with LRU bounding and hit/miss/join/eviction
/// accounting.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "compiler/driver.h"
#include "compiler/pipeline.h"
#include "compiler/runtime.h"
#include "fhe/sealite.h"
#include "ir/evaluator.h"
#include "ir/expr.h"
#include "service/request.h"
#include "service/single_flight.h"

namespace chehab::service {

namespace detail {

/// Golden-ratio hash combine shared by the key hashers.
inline void
mix(std::size_t& h, std::uint64_t v)
{
    h ^= static_cast<std::size_t>(v) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
}

} // namespace detail

/// Cache identity of one compile job.
struct CacheKey
{
    ir::Fingerprint source;      ///< Fingerprint of the canonical IR.
    std::uint64_t pipeline = 0;  ///< DriverConfig::fingerprint().

    friend bool
    operator==(const CacheKey& a, const CacheKey& b)
    {
        return a.source == b.source && a.pipeline == b.pipeline;
    }
};

/// Build the key for a request whose source canonicalized to
/// \p canonical.
inline CacheKey
makeCacheKey(const ir::ExprPtr& canonical,
             const compiler::DriverConfig& pipeline)
{
    CacheKey key;
    key.source = ir::fingerprint(canonical);
    key.pipeline = pipeline.fingerprint();
    return key;
}

struct CacheKeyHash
{
    std::size_t
    operator()(const CacheKey& key) const
    {
        // The fingerprint is already uniformly mixed; fold in the
        // pipeline hash with the usual golden-ratio combine.
        std::size_t h = static_cast<std::size_t>(key.source.hi ^
                                                 (key.source.lo << 1));
        detail::mix(h, key.pipeline);
        return h;
    }
};

/// Order-independent content hash of an input environment.
inline std::uint64_t
envFingerprint(const ir::Env& env)
{
    std::vector<std::pair<std::string, std::int64_t>> entries(env.begin(),
                                                              env.end());
    std::sort(entries.begin(), entries.end());
    std::size_t h = 0x243f6a8885a308d3ULL; // pi digits: arbitrary seed.
    for (const auto& [name, value] : entries) {
        for (char c : name) {
            detail::mix(h, static_cast<unsigned char>(c));
        }
        detail::mix(h, 0xffu); // Name/value separator.
        detail::mix(h, static_cast<std::uint64_t>(value));
    }
    return static_cast<std::uint64_t>(h);
}

/// Content hash of the SealLite parameter set (every field: equal
/// hashes are intended to mean interchangeable runtimes).
inline std::uint64_t
paramsFingerprint(const fhe::SealLiteParams& params)
{
    std::size_t h = 0x13198a2e03707344ULL;
    detail::mix(h, static_cast<std::uint64_t>(params.n));
    detail::mix(h, static_cast<std::uint64_t>(params.prime_bits));
    detail::mix(h, static_cast<std::uint64_t>(params.prime_count));
    detail::mix(h, params.plain_modulus);
    detail::mix(h, params.seed);
    detail::mix(h, static_cast<std::uint64_t>(params.error_stddev_x10));
    detail::mix(h, static_cast<std::uint64_t>(params.decomp_bits));
    return static_cast<std::uint64_t>(h);
}

/// Cache identity of one run job: compile identity + execution inputs.
struct RunKey
{
    CacheKey compile;
    std::uint64_t env_hash = 0;
    int key_budget = 0;
    std::uint64_t params_hash = 0;

    friend bool
    operator==(const RunKey& a, const RunKey& b)
    {
        return a.compile == b.compile && a.env_hash == b.env_hash &&
               a.key_budget == b.key_budget &&
               a.params_hash == b.params_hash;
    }
};

/// Build the run key for a request whose source canonicalized to
/// \p canonical.
inline RunKey
makeRunKey(const ir::ExprPtr& canonical, const RunRequest& request)
{
    RunKey key;
    key.compile = makeCacheKey(canonical, request.pipeline);
    key.env_hash = envFingerprint(request.inputs);
    // The budget only matters when the compiled artifact carries no key
    // plan (the plan wins otherwise) — but whether it will is a
    // pipeline property, so folding the budget in unconditionally can
    // only split entries that would have been shared, never alias
    // distinct executions.
    key.key_budget = request.pipeline.hasPass("key-select")
                         ? 0
                         : request.key_budget;
    key.params_hash = paramsFingerprint(request.params);
    return key;
}

struct RunKeyHash
{
    std::size_t
    operator()(const RunKey& key) const
    {
        std::size_t h = CacheKeyHash{}(key.compile);
        detail::mix(h, key.env_hash);
        detail::mix(h, static_cast<std::uint64_t>(key.key_budget));
        detail::mix(h, key.params_hash);
        return h;
    }
};

/// \name Cache instantiations
/// @{
using CacheEntry = SettleEntry<compiler::Compiled>;
using CompileCache =
    SingleFlightCache<CacheKey, CacheKeyHash, compiler::Compiled>;

/// What the run cache stores per entry: the executed program's compile
/// artifact plus the execution outcome. For a request served from a
/// packed (slot-coalesced) row, packed_lanes records how many requests
/// shared that row and lane which region this request occupied.
struct RunArtifact
{
    /// Aliases the compile-cache entry that produced the program (one
    /// shared copy for every run of it); holding it keeps that entry
    /// alive after the kernel cache evicts it.
    std::shared_ptr<const compiler::Compiled> compiled;
    compiler::RunResult result;
    double compile_seconds = 0.0; ///< Wall time of the producing compile.
    /// Load-model predicted wall seconds of the execution that
    /// produced this artifact (the row's prediction for packed runs);
    /// feeds the pred-vs-measured error reporting in chehabd.
    double predicted_seconds = 0.0;
    /// Seconds this request waited in the slot-batching coalescer for
    /// row-mates before its group flushed (0 for solo-path runs);
    /// completes the queue/window/compile/setup/evaluate/decode phase
    /// breakdown every RunResponse carries.
    double window_wait_seconds = 0.0;
    int packed_lanes = 1;         ///< Requests sharing the executed row.
    int lane = 0;                 ///< This request's lane index.
};

using RunEntry = SettleEntry<RunArtifact>;
using RunCache = SingleFlightCache<RunKey, RunKeyHash, RunArtifact>;
/// @}

} // namespace chehab::service
