/// \file
/// Execution of scheduled FHE programs on the SealLite backend, plus the
/// calibrated latency estimator used when a circuit is too large to run
/// end-to-end on a toy machine.
#pragma once

#include <unordered_map>
#include <vector>

#include "compiler/keyselect.h"
#include "compiler/schedule.h"
#include "fhe/sealite.h"
#include "ir/evaluator.h"

namespace chehab::compiler {

/// Outcome of executing one program.
struct RunResult
{
    std::vector<std::int64_t> output; ///< First output_width slots.
    double exec_seconds = 0.0;        ///< Server-side evaluation only.
    /// Wall time of everything before the server-side evaluation:
    /// Galois key generation, packing, encoding and encryption. This is
    /// the fixed per-row cost that slot batching amortizes across
    /// lanes; the service's load model reads it to price row sharing
    /// (see service/load_model.h).
    double setup_seconds = 0.0;
    /// Wall time of everything after the server-side evaluation:
    /// decryption, decoding and the per-lane output scatter. Completes
    /// the setup/evaluate/decode phase split that the telemetry layer
    /// (support/telemetry.h) exports per request.
    double decode_seconds = 0.0;
    int fresh_noise_budget = 0;
    int final_noise_budget = 0;       ///< <= 0 means budget exhausted.
    int consumed_noise = 0;           ///< CN of Table 6.
    FheProgram::Counts counts;
    int rotation_keys = 0;            ///< Keys generated (after App. B).
    /// Modulus drops the mod-switch gate actually took during the
    /// server phase (0 when the pass did not run or no point passed the
    /// noise simulation). Deterministic per (program, plan, params).
    int mod_switch_drops = 0;
};

/// One member of a ciphertext row: a contiguous slice of the row's
/// instruction stream (one whole source program; in a cross-kernel
/// composite its registers are renamed to a disjoint range) that owns a
/// contiguous block of the row's lanes. The member's real request lanes
/// occupy lane indices [lane_base, lane_base + lane_count); every other
/// lane of the member's *own* ciphertexts is phantom-padded with a copy
/// of its first lane, so each member's rows are fully laned and the
/// per-member lane-safety certification carries over unchanged.
struct CompositeMember
{
    int instr_begin = 0; ///< First instruction of this member's slice.
    int instr_end = 0;   ///< One past the last instruction.
    int lane_base = 0;   ///< First lane this member owns.
    int lane_count = 0;  ///< Request lanes this member carries.
    int output_reg = -1; ///< Output register (renamed in a composite).
    int output_width = 1;
};

/// The layout of a row that runs \p program alone: one member spanning
/// every instruction, with \p lane_count lanes from lane 0.
CompositeMember wholeProgramMember(const FheProgram& program,
                                   int lane_count = 1);

/// A cross-kernel composite program: the concatenation of several
/// members' scheduled instruction streams over one shared register
/// space, executed as a single stream on one runtime with a merged
/// rotation-key plan. Members never share registers (renaming keeps
/// their ciphertexts disjoint), so the composite shares the runtime
/// lease, Galois keygen and dispatch across kernels while each
/// member's values stay exactly its own.
struct CompositeProgram
{
    FheProgram program; ///< Concatenated, renamed instruction stream.
    std::vector<CompositeMember> members;
    RotationKeyPlan plan; ///< Merged (union) key plan, sorted keys.
    int lane_stride = 0;  ///< Common power-of-two stride of all lanes.
};

/// Outcome of executing one row (FheRuntime::runRow): shared
/// accounting (the reported final budget is the minimum over the
/// members' output ciphertexts) plus, per member, its own final noise
/// budget and its lanes' output slices.
struct RowRunResult
{
    RunResult shared; ///< output left empty; per-member slices below.
    /// Final noise budget of each member's output ciphertext (<= 0
    /// means that member's outputs are not trustworthy and its lanes
    /// must fall back to solo execution).
    std::vector<int> member_final_budgets;
    /// member_outputs[m][l] = member m's lane l output slice.
    std::vector<std::vector<std::vector<std::int64_t>>> member_outputs;
};

/// Counters for the destructive (in-place) evaluator.
struct InPlaceStats
{
    /// Operands destructively consumed at their last use (no copy).
    std::uint64_t consumed = 0;
    /// Clone fallbacks taken because the operand stayed live.
    std::uint64_t copies = 0;
    /// Dead ciphertexts returned to the scheme's arena.
    std::uint64_t recycled = 0;
};

/// Per-operation latencies measured on the backend (seconds).
struct OpLatencies
{
    double ct_add = 0.0;
    double ct_ct_mul = 0.0;
    double ct_pt_mul = 0.0;
    double rotation = 0.0;
};

/// The rotation-key plan run() uses for \p key_budget: the App. B NAF
/// selection when the budget is positive, otherwise one dedicated key
/// per distinct step. Exposed so the service's batch planner can
/// analyze the exact decomposed rotation sequence a run will execute.
RotationKeyPlan effectiveKeyPlan(const FheProgram& program, int key_budget);

/// Same, over an explicit step set (the cross-kernel composer feeds the
/// union of its members' rotation steps through this).
RotationKeyPlan effectiveKeyPlanFor(const std::vector<int>& steps,
                                    int key_budget);

/// Runs FheProgram instruction streams against one SealLite instance.
class FheRuntime
{
  public:
    explicit FheRuntime(fhe::SealLiteParams params = {});

    /// Execute \p program with inputs from \p env: a one-lane row at
    /// lane stride slots(). When \p key_budget > 0, rotation keys are
    /// selected with the App. B NAF pass under that budget and
    /// decomposed rotations run as sequences; otherwise one key per
    /// distinct step is generated.
    RunResult run(const FheProgram& program, const ir::Env& env,
                  int key_budget = 0);

    /// Execute \p program under a precomputed rotation-key plan (e.g.
    /// the compiler's key-select pass output). The plan must cover every
    /// rotation step the program uses.
    RunResult run(const FheProgram& program, const ir::Env& env,
                  const RotationKeyPlan& plan);

    /// Execute one ciphertext row: the single execution core behind
    /// solo runs, packed rows and cross-kernel composites. The row is
    /// cut into slots() / \p lane_stride lanes. Member m of \p members
    /// owns an instruction slice of \p program (the slices tile the
    /// program in order) and a lane block; its pack instructions load
    /// \p member_lanes[m]'s environments into that block and copies of
    /// its first lane everywhere else. The whole program then runs once
    /// under \p plan, and each member's output register is read out per
    /// lane. A solo run is one member with one lane at lane_stride =
    /// slots(); a single-kernel packed row is one member from lane 0
    /// (wholeProgramMember); a cross-kernel row is a CompositeProgram's
    /// members under its merged plan. Within a lane, replicated packs
    /// replicate across the lane's region, non-replicated packs load at
    /// the region base with the rest zeroed, and plaintext masks repeat
    /// per region, so every lane sees what the solo program would. The
    /// caller (the service's batch planner) must have certified every
    /// member lane-safe at \p lane_stride; this function validates the
    /// layout and throws CompileError for a bad one before it indexes
    /// a member slice or lane, or runs anything on the scheme.
    RowRunResult runRow(
        const FheProgram& program, const RotationKeyPlan& plan,
        int lane_stride, const std::vector<CompositeMember>& members,
        const std::vector<std::vector<const ir::Env*>>& member_lanes);

    /// Microbenchmark the four op classes (median of \p reps).
    OpLatencies calibrate(int reps = 3);

    /// Estimated runtime of \p program from calibrated op latencies
    /// (for circuits too big to execute end-to-end).
    double estimate(const FheProgram& program, const OpLatencies& lat) const;

    fhe::SealLite& scheme() { return scheme_; }
    int slots() const { return scheme_.slots(); }

    /// \name Destructive evaluation control and observability
    /// The server-side evaluator consumes a register's last use
    /// destructively (last-use liveness over the linear program),
    /// cutting the per-op c0/c1 copies the copying forms pay. Output
    /// registers are protected. Disabled = every op clones (the
    /// in-place-vs-copying differential tests run both ways; results
    /// are bit-identical either way).
    /// @{
    void setInPlaceEnabled(bool enabled) { in_place_enabled_ = enabled; }
    bool inPlaceEnabled() const { return in_place_enabled_; }
    InPlaceStats inPlaceStats() const
    {
        return {inplace_consumed_, inplace_copies_, recycled_cts_};
    }
    /// The backing scheme's arena counters (see fhe::PolyArena).
    fhe::PolyArena::Stats arenaStats() const { return scheme_.arenaStats(); }
    /// @}

  private:
    /// Lane l's region (length \p lane_stride) for \p instr. The
    /// row-layout check has already bounded the pack width by the
    /// stride.
    std::vector<std::int64_t> packLaneRegion(const FheInstr& instr,
                                             const ir::Env& env,
                                             int lane_stride) const;
    /// Hand every ciphertext still alive after readout back to the
    /// scheme's arena. Without this the map's destructor frees the
    /// arena-born buffers and the next run on this runtime mints
    /// replacements, so steady state never reaches zero allocations.
    void recycleCiphertexts(std::unordered_map<int, fhe::Ciphertext>& cts);
    /// The timed server-side phase of runRow(). When the program
    /// carries a mod-switch plan, each marked point runs the
    /// deterministic noise gate (compiler/modswitch.h) against
    /// \p fresh_noise_budget and, on success, switches EVERY live
    /// ciphertext down one level in lockstep (so binary ops always see
    /// equal levels — in a composite this includes other members'
    /// ciphertexts, which is sound because switching is exact per
    /// ciphertext). Drops taken are added to \p mod_switch_drops.
    /// Registers in \p protected_regs (the members' output
    /// registers) are never consumed destructively;
    /// everything else is consumed at its last use and dead values are
    /// recycled eagerly (which also shrinks the mod-switch lockstep
    /// loop — sound, since switching is per-ciphertext independent and
    /// dead values are never read again).
    double evaluateServer(
        const FheProgram& program, const RotationKeyPlan& plan,
        std::unordered_map<int, fhe::Ciphertext>& cts,
        const std::unordered_map<int, fhe::Plaintext>& plains,
        const std::vector<int>& protected_regs, int fresh_noise_budget,
        int* mod_switch_drops) const;

    fhe::SealLite scheme_;
    ir::Evaluator plain_eval_;
    bool in_place_enabled_ = true;
    mutable std::uint64_t inplace_consumed_ = 0;
    mutable std::uint64_t inplace_copies_ = 0;
    mutable std::uint64_t recycled_cts_ = 0;
};

} // namespace chehab::compiler
