/// \file
/// Slot-batching coalescer: packs concurrent run requests into shared
/// ciphertext rows.
///
/// SealLite batches n/2 SIMD slots per ciphertext, but a small kernel
/// (a dot-8, a 3x3 blur) occupies a handful of them — the rest of every
/// row the service encrypts, evaluates and decrypts is wasted work. The
/// BatchPlanner groups pending run jobs that share SealLite parameters
/// and an effective rotation-key budget, assigns each a contiguous
/// *lane* (a lane_stride-slot region of the row), and hands full or
/// window-expired groups back to the service, which executes each group
/// once through FheRuntime::runRow — as one whole-program member when
/// every lane runs the same compiled artifact, as the composeGroup()
/// composite's members when the group mixes artifacts (cross-kernel
/// packing) — and scatters per-lane output slices into the individual
/// responses.
///
/// Cross-kernel packing. With ServiceConfig::cross_kernel on, a row
/// may be shared by requests running *different* compiled programs:
/// the group then holds one member per distinct artifact, each member
/// owning a disjoint block of composite lanes, and composeGroup()
/// concatenates the members' scheduled instruction streams into one
/// composite program (per-member register renaming keeps their
/// ciphertexts disjoint; a merged union key plan covers every member's
/// decomposed rotations). Placement policy: lanes always accumulate
/// per artifact — same-kernel lanes ride one member and therefore one
/// program execution, which is where packing's compute saving lives —
/// and only at *flush* time are window-expired partial groups that
/// share a row identity consolidated (consolidateGroups — cost-driven
/// row assignment under the load model) into composite rows, so a
/// mixed workload of small distinct kernels shares the runtime lease,
/// the merged Galois keygen and the dispatch instead of paying them
/// once per kernel. Groups that fill on their own dispatch untouched:
/// consolidating full rows could only multiply program executions.
/// Each member must be lane-safe at the composite's common stride —
/// the maximum of the members' smallest certified strides, sound
/// because certification is monotone in the stride — and members whose
/// key plans decompose a shared rotation step differently never share
/// a row (their certificates would disagree with the merged plan's
/// physical rotation sequences).
///
/// Lane safety. Packing is only sound when the program's whole-row
/// rotations cannot leak one lane's data into the slots another lane
/// reads. analyzeLaneFit() proves this statically with a per-register
/// dataflow over the instruction stream (using the *decomposed*
/// rotation sequences of the key plan, since those are the physical
/// rotations; a decomposed sequence is exactly the whole-row rotation
/// by its net sum, so the dataflow applies the net displacement — which
/// is what certifies NAF decompositions with negative components).
/// Each register carries a conservative lane state:
///
///   - uniform: the value is identical in every lane (constant masks
///     and anything derived only from them) — exact under any op;
///   - dirty_bot / dirty_top: slots at the bottom/top of each lane's
///     region that may differ from what a solo run of that lane would
///     hold (rotations grow these margins as they drag neighbouring
///     lanes' slots across region boundaries);
///   - zero_from: region offset past which the value is zero in solo
///     semantics (non-replicated packs zero-fill their region), which
///     lets mask multiplies *clean* dirty margins and right rotations
///     pull in provable zeros instead of neighbour data.
///
/// A stride S certifies the program when the output register's bottom
/// margin is zero and its top margin leaves output_width clean slots.
/// Safety is monotone in S (every rule's S-dependence is of the form
/// "x <= S - y"), so the planner picks the smallest certified
/// power-of-two stride — maximizing lanes per row — and a certified
/// packed run equals the same lanes' solo runs bit-for-bit.
///
/// Thread-safety: BatchPlanner is NOT internally synchronized; the
/// CompileService wraps it with its coalescer mutex. analyzeLaneFit,
/// mergeKeyPlans, composeGroup and compositeFingerprint are pure
/// functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "compiler/keyselect.h"
#include "compiler/runtime.h"
#include "compiler/schedule.h"
#include "service/cache_key.h"

namespace chehab::service {

/// Outcome of the static lane-safety analysis for one (program, key
/// plan, row) combination.
struct LaneFit
{
    bool safe = false; ///< Certified at stride for >= 2 lanes.
    int stride = 0;    ///< Slots per lane (power of two).
    int max_lanes = 1; ///< row_slots / stride when safe.
    std::string reason; ///< Why coalescing was refused (diagnostics).
};

/// Prove (or refuse) lane-packed execution of \p program under the
/// decomposed rotation sequences of \p plan on a \p row_slots-slot row.
/// Returns the smallest certified power-of-two stride; a result with
/// max_lanes < 2 means packing buys nothing and the caller should run
/// solo.
LaneFit analyzeLaneFit(const compiler::FheProgram& program,
                       const compiler::RotationKeyPlan& plan,
                       int row_slots);

/// Identity of one coalescible member: requests of one member run the
/// same compiled artifact on the same SealLite parameters under the
/// same effective key budget (0 when the artifact carries a compiler
/// key plan — the plan wins, so the request budget is irrelevant,
/// mirroring makeRunKey). Also the memo key of the service's
/// lane-safety fit cache.
struct BatchGroupKey
{
    CacheKey compile;
    std::uint64_t params_hash = 0;
    int key_budget = 0;

    friend bool
    operator==(const BatchGroupKey& a, const BatchGroupKey& b)
    {
        return a.compile == b.compile && a.params_hash == b.params_hash &&
               a.key_budget == b.key_budget;
    }
};

struct BatchGroupKeyHash
{
    std::size_t
    operator()(const BatchGroupKey& key) const
    {
        std::size_t h = CacheKeyHash{}(key.compile);
        detail::mix(h, key.params_hash);
        detail::mix(h, static_cast<std::uint64_t>(key.key_budget));
        return h;
    }
};

/// Identity of one shareable *row*: requests may ride the same
/// ciphertext row exactly when they run on the same SealLite parameters
/// under the same effective key budget (the artifact tier lives below
/// this, in the group's members).
struct RowKey
{
    std::uint64_t params_hash = 0;
    int key_budget = 0;

    friend bool
    operator==(const RowKey& a, const RowKey& b)
    {
        return a.params_hash == b.params_hash &&
               a.key_budget == b.key_budget;
    }
};

/// One pending run job awaiting a lane: everything the service needs to
/// execute it (solo or packed) and publish its entry once done. The
/// compile entry shared_ptr keeps \c compiled alive until publication;
/// the published RunArtifact then shares that entry.
struct BatchLane
{
    std::shared_ptr<RunEntry> entry;
    std::shared_ptr<CacheEntry> compile_entry;
    const compiler::Compiled* compiled = nullptr;
    double compile_seconds = 0.0;
    RunRequest request;
    RunKey run_key;
    /// Coalescer group identity (artifact x params x effective budget);
    /// also the load model's run-profile and arrival-estimator key.
    BatchGroupKey group_key;
    double estimate = 0.0;  ///< Static ir::cost() estimate.
    /// Load-model predicted seconds of executing this lane's program
    /// once (measured EWMA when warm, scaled static estimate when
    /// cold); drives dispatch priority and consolidation.
    double predicted = 0.0;
    /// Telemetry correlation id of the originating run request (0 when
    /// telemetry is off).
    std::uint64_t request_id = 0;
    /// Recorder timestamp when the lane entered the coalescer (0 =
    /// never coalesced or telemetry off); the dispatch path turns it
    /// into the window-wait measurement below.
    std::int64_t coalesce_ns = 0;
    /// Seconds this lane waited in the coalescer before its group
    /// dispatched; 0 for solo-path lanes. Copied into RunArtifact so
    /// every response carries its phase breakdown.
    double window_wait_seconds = 0.0;
};

/// Union of two rotation-key plans, or nullopt when they disagree on
/// the decomposition of a shared step (the merged plan could then not
/// preserve both members' certified physical rotation sequences).
/// Merged keys are sorted, so the plan — and the Galois keygen it
/// drives — is a pure function of the member set.
std::optional<compiler::RotationKeyPlan>
mergeKeyPlans(const compiler::RotationKeyPlan& a,
              const compiler::RotationKeyPlan& b);

struct ConsolidatePolicy;

/// Groups pending coalescible runs and decides when each group is ready
/// to execute. Window semantics: a group's *hard* deadline is fixed
/// when its first lane arrives (first arrival + window); the adaptive
/// window may pull the effective deadline earlier — never later — on
/// each arrival, and the group flushes early the moment it reaches
/// capacity. Pending groups are strictly per artifact (one open group
/// per BatchGroupKey); cross-kernel rows only form when the service
/// consolidates window-flushed partial groups (consolidateGroups).
class BatchPlanner
{
  public:
    using Clock = std::chrono::steady_clock;

    /// What the service knows about one compiled artifact when it
    /// hands a lane to the planner.
    struct MemberSpec
    {
        CacheKey compile;
        const compiler::Compiled* compiled = nullptr;
        /// The member's effective rotation-key plan (compiler plan when
        /// key_planned, budget-derived otherwise). Not owned; must
        /// outlive the add() call (the planner copies it).
        const compiler::RotationKeyPlan* plan = nullptr;
        int min_stride = 0; ///< Smallest certified power-of-two stride.
    };

    /// One distinct artifact inside a group, carrying its lanes.
    struct GroupMember
    {
        CacheKey compile;
        const compiler::Compiled* compiled = nullptr;
        compiler::RotationKeyPlan plan; ///< Member's own effective plan.
        int min_stride = 0;
        int lane_base = 0; ///< Assigned by canonicalizeAndSeed.
        std::vector<BatchLane> lanes;
    };

    struct Group
    {
        RowKey key;
        int row_slots = 0;
        int lanes_cap = 0; ///< Config lane cap (0 = row-bound only).
        int stride = 0;    ///< Common stride: max member min_stride.
        int total_lanes = 0;
        std::vector<GroupMember> members;
        compiler::RotationKeyPlan merged_plan; ///< Union over members.
        double estimate_sum = 0.0; ///< Static-cost sum over lanes.
        /// Predicted seconds of executing this group once: the sum of
        /// its members' per-execution predictions (a member's program
        /// runs once however many lanes it carries). Dispatch priority
        /// and the consolidation makespan objective both read this.
        double predicted_sum = 0.0;
        /// Effective flush deadline (what the flusher sleeps on). The
        /// adaptive window may move it earlier than hard_deadline and
        /// recomputes it on every arrival; it never passes the ceiling.
        Clock::time_point deadline;
        /// First arrival + the configured batch window: the ceiling.
        Clock::time_point hard_deadline;

        /// Lanes the row can hold at \p stride (row bound under the
        /// configured lane cap) — the one source of truth for both
        /// capacity-triggered flushing and consolidation-time packing.
        int capacityAt(int stride) const;
        /// Lanes the row can hold at the current stride.
        int capacity() const { return capacityAt(stride); }
        bool full() const { return total_lanes >= capacity(); }
    };

    explicit BatchPlanner(std::chrono::nanoseconds window =
                              std::chrono::nanoseconds{0})
        : window_(window)
    {}

    /// Append \p lane to the pending group for \p key (creating it from
    /// \p member, \p row_slots and \p lanes_cap when absent). Returns
    /// the full group — removed from the pending map — once it reaches
    /// capacity, nullopt otherwise. Precondition: min_stride divides
    /// row_slots and allows >= 2 lanes under \p lanes_cap (the service
    /// refuses such lanes upstream).
    ///
    /// \p adaptive_wait_seconds, when non-negative, is the load model's
    /// estimate of how long the remaining lanes will take to arrive:
    /// the group's effective deadline becomes min(hard ceiling, now +
    /// wait), recomputed on every arrival. Negative means fixed-window
    /// semantics (deadline = hard ceiling). Whenever the effective
    /// deadline may have moved earlier, the caller must notify its
    /// flusher so it re-derives its wait_until target instead of
    /// sleeping out the stale deadline.
    std::optional<Group> add(const BatchGroupKey& key,
                             const MemberSpec& member, BatchLane lane,
                             int row_slots, int lanes_cap,
                             Clock::time_point now,
                             double adaptive_wait_seconds = -1.0);

    /// Deadline of the oldest pending group, if any.
    std::optional<Clock::time_point> earliestDeadline() const;

    /// Lanes currently pending for \p key (0 when no open group).
    std::size_t pendingLanesFor(const BatchGroupKey& key) const;

    /// Remove and return every group whose deadline has passed.
    std::vector<Group> takeDue(Clock::time_point now);

    /// Cross-kernel flush: consolidate the window-expired groups in
    /// \p due among themselves (consolidateGroups), then offer every
    /// still-pending row-mate a seat on the resulting rows. A pending
    /// group is removed ONLY when it actually joins a row — a mate the
    /// rows cannot take (stride, lane cap, key-plan conflict, or the
    /// policy's cost rule) keeps its place and its batch window, so an
    /// incompatible neighbour's flush never degrades it to an early
    /// solo dispatch.
    std::vector<Group> consolidateDue(std::vector<Group> due,
                                      const ConsolidatePolicy& policy);

    /// Remove and return every pending group (service shutdown).
    std::vector<Group> takeAll();

    std::size_t pendingLanes() const;

    /// Order \p group deterministically — members by compile-key
    /// content, lanes within a member by the full run-key contents —
    /// and assign each member its contiguous composite lane block, so
    /// neither the lane layout nor the packed noise accounting depends
    /// on the arrival interleaving. Returns the group's packing seed: a
    /// content hash of the ordered lane identities that reseeds the
    /// runtime's encryption randomness exactly like the solo path's
    /// per-request seed does.
    static std::uint64_t canonicalizeAndSeed(Group& group);

  private:
    std::chrono::nanoseconds window_;
    std::unordered_map<BatchGroupKey, Group, BatchGroupKeyHash> pending_;
};

/// How consolidateGroups assigns flushed groups to rows. Groups are
/// placed heaviest-predicted first onto the feasible row that minimizes
/// the resulting predicted row seconds, then wasted lanes (best-fit by
/// makespan); execution-dominated groups (the \c shareable callback
/// answers false) seed their own rows while fewer than \c parallelism
/// rows exist, so a few heavy kernels spread across workers instead of
/// serializing on one shared row.
struct ConsolidatePolicy
{
    /// Worker parallelism available to execute rows; 0 disables the
    /// own-row rule (always pack as tightly as rows allow).
    int parallelism = 0;
    /// Cost advice for one group: true = overhead-dominated, share a
    /// row whenever one fits; false = execution-dominated, prefer an
    /// own row (see LoadModel::preferRowShare). Null = always share.
    std::function<bool(const BatchPlanner::Group&)> shareable;
};

/// Consolidate flushed groups that share a row identity (RowKey) into
/// cross-kernel composite rows, growing each row's common stride as
/// members join and respecting its lane cap and key-plan
/// compatibility. Row assignment follows \p policy: minimize predicted
/// composite makespan, then wasted lanes, ties broken by compile-key
/// content so row composition stays a pure function of the flushed
/// set. Input groups are single-artifact (as the planner produces
/// them); each either seeds a row or joins one, so no program ever
/// executes more than once per flush. Deterministic for a
/// fixed input set and fixed predictions — independent of input order,
/// worker count and arrival interleaving.
std::vector<BatchPlanner::Group>
consolidateGroups(std::vector<BatchPlanner::Group> groups,
                  const ConsolidatePolicy& policy);

/// Content hash of a canonicalized group's composite identity: the
/// member artifact fingerprints, their lane assignment and the common
/// stride — everything the composite program is a function of. The
/// service's composite cache keys on this.
std::uint64_t compositeFingerprint(const BatchPlanner::Group& group);

/// Concatenate a canonicalized (>= 1 member) group's programs into one
/// composite: registers renamed to disjoint ranges, one CompositeMember
/// per group member mirroring its lane block, and the group's merged
/// key plan. Pure; the result owns copies of everything it needs.
compiler::CompositeProgram composeGroup(const BatchPlanner::Group& group);

} // namespace chehab::service
