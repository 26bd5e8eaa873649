/// \file
/// Multi-threaded compile-and-run front end over the unified
/// CompilerDriver (compiler/driver.h).
///
/// Compile path:
///
///     submit(request)
///        |  canonicalize on the caller, derive CacheKey + cost estimate
///        v
///     CompileCache::acquire -- owner --> ThreadPool (priority = cost)
///        |                                  | CompilerDriver::compile
///        |  hit / in-flight join            v
///        +-----------------------> CacheEntry settles -> futures resolve
///
/// Run path (submitRun) reuses the compile path end to end — run
/// requests and plain compile requests dedupe against the same kernel
/// cache — then chains execution onto the settled compile:
///
///     submitRun(request)
///        |  admit compile (above) + RunCache::acquire (single-flight)
///        v
///     compile settles -- run owner --> slot-batching coalescer:
///        |                             lane-safe kernels wait up to
///        |  run hit / join             batch_window for peers, then a
///        |                             packed group (or a solo run)
///        |                             executes on a pooled FheRuntime
///        +--------------------> RunEntry settles -> futures resolve
///
/// Slot batching: SealLite exposes n/2 SIMD lanes per ciphertext row,
/// but a small kernel touches only a handful of them. When max_lanes
/// allows it, run requests that share a compiled artifact and SealLite
/// parameters are coalesced: each request's inputs are packed into its
/// own lane-stride-aligned region of one shared row, the kernel
/// executes once, and per-lane output slices are scattered back into
/// individual responses (see service/batch_planner.h for the
/// lane-safety analysis that gates this). With cross_kernel on,
/// requests running *different* artifacts on the same parameters and
/// effective key budget share rows too: their programs are
/// concatenated onto disjoint lane blocks (registers renamed, key
/// plans merged) and the composite executes once. A group flushes when
/// it reaches its lane capacity or when the oldest member has waited
/// batch_window seconds.
///
/// Expensive work dispatches first: compile tasks and run tasks ride
/// one two-level priority queue ranked by the timer-augmented load
/// model's *predicted seconds* (service/load_model.h — measured EWMA
/// profiles when warm, the §5.3.1 static estimate scaled into seconds
/// when cold), which minimizes batch makespan when job costs are
/// heterogeneous. The same model drives cost-based consolidation of
/// window-flushed groups and arrival-rate-adaptive batch windows
/// (ServiceConfig::adaptive_window). Identical concurrent requests
/// compile (and execute) once: single-flight on both caches. Both
/// caches take an optional LRU capacity so long-running processes stay
/// bounded.
///
/// Thread-safety contract: every public member function may be called
/// concurrently from any thread. Determinism: the driver pipelines are
/// deterministic and the runtime pool reseeds per request (see
/// service/runtime_pool.h), so for a fixed request the service returns
/// a byte-identical instruction stream — and for run requests,
/// bit-identical outputs and noise accounting — regardless of worker
/// count or submission order. Packed runs keep the output side of that
/// guarantee unconditionally (a lane's outputs are bit-identical to its
/// solo run); their noise accounting is that of the shared row, which
/// is deterministic for a fixed group composition (see README,
/// "determinism contract for packed runs").
#pragma once

#include <atomic>
#include <condition_variable>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "compiler/driver.h"
#include "compiler/pipeline.h"
#include "rl/agent.h"
#include "service/batch_planner.h"
#include "service/cache_key.h"
#include "service/load_model.h"
#include "service/request.h"
#include "service/runtime_pool.h"
#include "service/service_api.h"
#include "service/service_stats.h"
#include "support/telemetry.h"
#include "support/thread_pool.h"
#include "trs/ruleset.h"

namespace chehab::service {

/// Service construction knobs.
struct ServiceConfig
{
    int num_workers = 4;
    /// Agent for rl-trs pipelines; not owned, must outlive the service.
    /// Pipelines naming "rl-trs" fail with a CompileError message when
    /// null.
    const rl::RlAgent* agent = nullptr;
    /// LRU capacity of the kernel (compile) cache; 0 = unbounded.
    std::size_t kernel_cache_capacity = 0;
    /// LRU capacity of the run-result cache; 0 = unbounded.
    std::size_t run_cache_capacity = 0;
    /// Slot-batching lane cap: 1 disables coalescing (default), 0 means
    /// "as many lanes as the row and the lane-safety analysis allow",
    /// any other value caps the lanes packed into one row.
    int max_lanes = 1;
    /// How long a pending coalescible run waits for peers before its
    /// (possibly partial) group flushes. Groups that reach their lane
    /// capacity flush immediately.
    double batch_window_seconds = 0.0005;
    /// Cross-kernel packing: when true (and max_lanes allows packing),
    /// runs of *different* compiled artifacts that share SealLite
    /// parameters and an effective key budget may ride one ciphertext
    /// row — the planner concatenates their programs onto disjoint lane
    /// blocks and executes the composite once (see batch_planner.h).
    /// When false (default) only runs of the same artifact coalesce.
    bool cross_kernel = false;
    /// Adaptive batch windows: when true (default) a pending group's
    /// flush deadline is derived from the load model's arrival-rate
    /// estimate for its group key — the expected time for the
    /// remaining lanes to arrive — bounded by batch_window_seconds as
    /// a ceiling, and recomputed (only ever earlier) on each arrival.
    /// Until the estimator has confidence (min_arrival_samples) the
    /// fixed window applies unchanged. False opts out: fixed windows
    /// always.
    bool adaptive_window = true;
    /// Timer-augmented load model knobs; load_model.enabled = false
    /// restores the fully static scheduler (static-cost LPT dispatch,
    /// stride-FFD consolidation, fixed windows) for A/B comparison.
    LoadModelConfig load_model;
    /// Request-lifecycle telemetry (support/telemetry.h): spans for
    /// enqueue/dispatch/compile/execute (with setup/evaluate/decode
    /// sub-phases), per-phase latency histograms, cache-hit and
    /// fallback instants. Always compiled in; when false (default) the
    /// recorder is a near-zero-cost no-op. Never affects scheduling or
    /// outputs — see the determinism contract above.
    bool telemetry = false;
    /// On-disk persistence root (service/persist.h). Empty (default) =
    /// no persistence. When set, each shard opens a PersistStore on
    /// this directory: cache-miss compiles first try a warm artifact
    /// load from disk, fresh compiles are stored back
    /// (content-addressed, crash-safe temp-file + rename, so the
    /// directory is safely shared by every shard and by concurrent
    /// service *processes*), and the load model snapshots/restores its
    /// measured profiles across restarts. Construction throws
    /// std::invalid_argument when the directory cannot be created.
    std::string cache_dir;
    /// When persistence is on, also snapshot the load model's EWMA
    /// profiles at shutdown and re-import them as priors at boot (the
    /// warm-scheduling half of a warm start). No effect with an empty
    /// cache_dir.
    bool persist_load_model = true;
    /// Shard count for ShardedService (service/shard_router.h): the
    /// fleet builds this many CompileService shards, each with this
    /// config (num_workers is *per shard*). A plain CompileService
    /// ignores it beyond validation. 1 = unsharded.
    int shards = 1;
    /// Which shard a CompileService instance is (set by ShardedService,
    /// 0 for a standalone service). Only affects telemetry track
    /// grouping — Chrome traces show one "shard N" track group per
    /// shard — never scheduling or outputs.
    int shard_id = 0;

    /// Reject nonsense configurations before they turn into deadlocks
    /// or silent misbehavior deep inside the service. Returns an empty
    /// string when the config is usable, else a one-line description of
    /// the first problem. CompileService and ShardedService construction
    /// call this and throw std::invalid_argument on failure; chehabd
    /// calls it right after flag parsing so the error surfaces as a
    /// usage message instead of an exception.
    ///
    /// Deliberately *valid* edge cases: kernel/run cache capacity 0
    /// (means unbounded, the default) and max_lanes 0 (means "as many
    /// lanes as the row allows") — both are long-standing semantics
    /// with in-tree users, so validate() only rejects values that no
    /// semantics is assigned to (negative counts, non-finite windows,
    /// out-of-range model fractions).
    std::string validate() const;
};

// ServiceStats (the aggregate counter snapshot, mergeable across
// shards) and checkStatsInvariants live in service/service_stats.h;
// the abstract caller-facing interface in service/service_api.h.

/// One service shard: the complete compile-and-run engine described at
/// the top of this file. ShardedService (service/shard_router.h) runs N
/// of these behind a router; both implement ServiceApi so every caller
/// is agnostic to the difference.
class CompileService final : public ServiceApi
{
  public:
    /// Throws std::invalid_argument when config.validate() rejects the
    /// configuration.
    explicit CompileService(ServiceConfig config = {});
    ~CompileService() override;

    CompileService(const CompileService&) = delete;
    CompileService& operator=(const CompileService&) = delete;

    /// Enqueue one compile; the future resolves when the artifact is
    /// available (immediately on a cache hit). Never throws on compile
    /// failure — inspect CompileResponse::ok.
    std::future<CompileResponse> submit(CompileRequest request) override;

    /// Enqueue one compile-then-execute job; the future resolves when
    /// the outputs are available. Never throws on compile or execution
    /// failure — inspect RunResponse::ok.
    std::future<RunResponse> submitRun(RunRequest request) override;

    ServiceStats stats() const override;
    int numWorkers() const override;
    const trs::Ruleset& ruleset() const { return ruleset_; }

    /// The shard load signal the router balances run traffic on: the
    /// load model's sum of predicted seconds over queued + in-flight
    /// work (see LoadModel::noteEnqueued). Instantaneous; exactly zero
    /// at quiescence.
    double predictedLoadSeconds() const
    {
        return load_model_.inflightPredictedSeconds();
    }

    /// Block until every task submitted so far has fully finished.
    /// Futures resolve from *inside* worker tasks, so a caller that was
    /// just unblocked can observe the pool mid-epilogue — in particular
    /// before the final task's dispatch span reached the trace
    /// recorder. Call this before exporting traces or asserting on
    /// span counts; responses themselves never need it.
    void drain() override;

    /// The service's trace recorder (always present; a no-op unless
    /// ServiceConfig::telemetry enabled it). Exposes the recorded
    /// events and the Chrome trace exporter.
    const telemetry::TraceRecorder& telemetry() const { return telemetry_; }

  private:
    /// Admit \p key into the kernel cache; when this caller becomes the
    /// owner, dispatch the compile of \p canonical under \p pipeline
    /// onto the pool at \p predicted (load-model seconds) priority.
    /// \p estimate is the static cost the model calibrates against;
    /// \p request_id tags the dispatch/compile telemetry spans.
    CompileCache::Admission admitCompile(const ir::ExprPtr& canonical,
                                         const compiler::DriverConfig& pipeline,
                                         const CacheKey& key,
                                         double estimate,
                                         double predicted,
                                         std::uint64_t request_id);

    /// The per-params runtime pool (created on first use).
    RuntimePool& poolFor(const fhe::SealLiteParams& params);

    CompileResponse makeResponse(const CompileRequest& request,
                                 const CacheEntry::Settled& settled,
                                 bool cache_hit, bool deduplicated,
                                 double queue_seconds,
                                 double estimated_cost,
                                 double predicted_seconds) const;

    /// Try to enqueue a settled-compile run job into the coalescer
    /// (its group identity travels in lane.group_key). Returns false —
    /// leaving \p lane untouched — when batching is off or the program
    /// is not lane-safe for these parameters; the caller must then
    /// execute solo. On success \p lane has been moved into the
    /// planner.
    bool tryCoalesce(BatchLane& lane);

    /// The consolidation policy the load model prescribes (cost-driven
    /// when enabled, legacy stride FFD otherwise).
    ConsolidatePolicy consolidatePolicy();

    /// Dispatch one flushed group onto the worker pool (solo execution
    /// for single-lane groups).
    void dispatchGroup(BatchPlanner::Group group, bool window_flush);

    /// Submit a solo execution task for \p lane onto the pool.
    void submitSoloRun(BatchLane lane);

    /// Record the "execute" span plus its setup/evaluate/decode
    /// sub-spans (offsets derived from the RunResult's measured phase
    /// split) and the phase histogram samples for one owner execution
    /// — solo or packed row. No-op when telemetry is disabled.
    void recordExecutePhases(int worker, std::int64_t start_ns,
                             std::uint64_t request_id,
                             const compiler::RunResult& result,
                             double seconds, int lanes);

    /// Execute \p lane solo on \p runtime and publish its entry
    /// (success or failure). The one solo-execution body: the pool task
    /// and the packed-row fallback both run through here, so their
    /// semantics (reseed scheme, stats, artifact fields, timing) cannot
    /// diverge.
    void runSoloLane(const BatchLane& lane, compiler::FheRuntime& runtime,
                     int worker);

    /// Execute a >= 2 lane group as one packed row (worker context):
    /// one FheRuntime::runRow call — a single-member group as one
    /// whole-program member under its own key plan, a multi-member
    /// group as its cross-kernel composite under the merged plan.
    void executePacked(BatchPlanner::Group& group, int worker);

    /// The composite program for a canonicalized multi-member group,
    /// served from the content-addressed composite cache or freshly
    /// composed.
    std::shared_ptr<const compiler::CompositeProgram>
    compositeFor(const BatchPlanner::Group& group);

    /// Background loop flushing window-expired groups.
    void flusherLoop();

    ServiceConfig config_;
    trs::Ruleset ruleset_; ///< Owned, immutable after construction.
    CompileCache cache_;
    RunCache run_cache_;
    /// On-disk persistence tier; null when config_.cache_dir is empty.
    /// Declared before pool_ so workers may touch it until they drain.
    std::unique_ptr<PersistStore> persist_;
    /// Timer-augmented cost model behind dispatch priorities, adaptive
    /// windows and cost-driven consolidation. Internally synchronized;
    /// may be queried under batch_mutex_ (it never calls back out).
    LoadModel load_model_;

    mutable std::mutex pools_mutex_;
    std::unordered_map<std::uint64_t, std::unique_ptr<RuntimePool>> pools_;

    /// Guards stats_ — and, in stats(), is held across the cache /
    /// load-model / pool sub-snapshot reads so one snapshot is
    /// mutually consistent. Lock ordering: stats_mutex_ is a leaf for
    /// writers (never held while taking another service lock except
    /// inside stats(), which takes only the sub-stats' own leaf
    /// mutexes); batch_mutex_ -> stats_mutex_ is the one nesting.
    mutable std::mutex stats_mutex_;
    ServiceStats stats_;

    /// Request-lifecycle recorder (see ServiceConfig::telemetry).
    /// Declared before pool_ so it outlives the worker drain.
    telemetry::TraceRecorder telemetry_;
    /// Telemetry correlation ids, shared by compile and run requests
    /// (ids are process-unique, 1-based; 0 means "no request").
    std::atomic<std::uint64_t> next_request_id_{0};

    /// Memoized lane-safety verdict for one group identity: the
    /// analysis depends only on (compiled program, effective budget,
    /// row size), all captured by the BatchGroupKey, so the hot path —
    /// thousands of requests for the same small kernel — computes it
    /// once per kernel instead of once per request.
    struct GroupFit
    {
        LaneFit fit;
        compiler::RotationKeyPlan plan;
    };

    /// Coalescer state: planner, fit memo and composite cache guarded
    /// by batch_mutex_; the flusher thread sleeps on batch_cv_ until
    /// the earliest group deadline.
    std::mutex batch_mutex_;
    std::condition_variable batch_cv_;
    BatchPlanner planner_;
    std::unordered_map<BatchGroupKey, GroupFit, BatchGroupKeyHash>
        fit_cache_;
    /// Content-addressed composite cache: compositeFingerprint of the
    /// canonicalized group -> composed program, so a recurring mix of
    /// kernels composes (and renames) once. Same crude churn bound as
    /// the fit memo.
    std::unordered_map<std::uint64_t,
                       std::shared_ptr<const compiler::CompositeProgram>>
        composite_cache_;
    bool batch_stop_ = false;
    std::thread flusher_;

    /// Declared last so it destructs first: worker tasks touch the
    /// cache, pool and stats members above, which must outlive the
    /// drain.
    std::unique_ptr<ThreadPool> pool_;
};

} // namespace chehab::service
