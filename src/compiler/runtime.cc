#include "compiler/runtime.h"

#include <algorithm>
#include <unordered_set>

#include "compiler/modswitch.h"
#include "support/error.h"
#include "support/stopwatch.h"

namespace chehab::compiler {

FheRuntime::FheRuntime(fhe::SealLiteParams params)
    : scheme_(params),
      plain_eval_(static_cast<std::int64_t>(params.plain_modulus))
{}

std::vector<std::int64_t>
FheRuntime::packLaneRegion(const FheInstr& instr, const ir::Env& env,
                           int lane_stride) const
{
    const int width = static_cast<int>(instr.slots.size());
    std::vector<std::int64_t> region(static_cast<std::size_t>(lane_stride),
                                     0);
    for (int i = 0; i < width; ++i) {
        const PackSlot& slot = instr.slots[static_cast<std::size_t>(i)];
        std::int64_t& value = region[static_cast<std::size_t>(i)];
        switch (slot.kind) {
          case PackSlot::Kind::CtVar:
          case PackSlot::Kind::PtVar: {
            auto it = env.find(slot.name);
            if (it == env.end()) {
                throw CompileError("unbound input '" + slot.name + "'");
            }
            value = it->second;
            break;
          }
          case PackSlot::Kind::Const:
            value = slot.value;
            break;
          case PackSlot::Kind::PlainExpr:
            value = plain_eval_.evaluate(slot.expr, env).scalar();
            break;
        }
    }
    if (instr.replicate) {
        // Period-w replication *within the lane's region*: the stride
        // is a power-of-two multiple of the (power-of-two) pack width,
        // so a whole-row rotation still realizes the width-w cyclic
        // rotation inside every lane (at stride slots(), across the
        // whole row).
        for (int i = width; i < lane_stride; ++i) {
            region[static_cast<std::size_t>(i)] =
                region[static_cast<std::size_t>(i - width)];
        }
    }
    return region;
}

CompositeMember
wholeProgramMember(const FheProgram& program, int lane_count)
{
    CompositeMember member;
    member.instr_end = static_cast<int>(program.instrs.size());
    member.lane_count = lane_count;
    member.output_reg = program.output_reg;
    member.output_width = program.output_width;
    return member;
}

RotationKeyPlan
effectiveKeyPlanFor(const std::vector<int>& steps, int key_budget)
{
    // Rotation-key selection (App. B): under a budget, rotations execute
    // as NAF-component sequences.
    if (key_budget > 0) return selectRotationKeys(steps, key_budget);
    RotationKeyPlan plan;
    plan.keys = steps;
    for (int s : steps) plan.decomposition[s] = {s};
    return plan;
}

RotationKeyPlan
effectiveKeyPlan(const FheProgram& program, int key_budget)
{
    return effectiveKeyPlanFor(program.rotationSteps(), key_budget);
}

RunResult
FheRuntime::run(const FheProgram& program, const ir::Env& env,
                int key_budget)
{
    return run(program, env, effectiveKeyPlan(program, key_budget));
}

void
FheRuntime::recycleCiphertexts(
    std::unordered_map<int, fhe::Ciphertext>& cts)
{
    for (auto& entry : cts) {
        scheme_.recycle(std::move(entry.second));
        ++recycled_cts_;
    }
    cts.clear();
}

double
FheRuntime::evaluateServer(
    const FheProgram& program, const RotationKeyPlan& plan,
    std::unordered_map<int, fhe::Ciphertext>& cts,
    const std::unordered_map<int, fhe::Plaintext>& plains,
    const std::vector<int>& protected_regs, int fresh_noise_budget,
    int* mod_switch_drops) const
{
    const ModSwitchPlan& ms = program.mod_switch;
    const bool gated = !ms.empty();
    modswitch::NoiseParams np;
    modswitch::NoiseState noise;
    std::size_t next_point = 0;
    if (gated) {
        np = modswitch::noiseParamsFor(scheme_, fresh_noise_budget);
        noise = modswitch::initialState(program, np);
    }

    // Last-use liveness over the linear instruction stream: a ciphertext
    // register whose final reader is instruction idx can be consumed
    // destructively there (AddPlain/MulPlain's b names a plaintext
    // register, so only a counts as a ciphertext read).
    std::unordered_map<int, std::size_t> last_use;
    for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
        const FheInstr& instr = program.instrs[idx];
        switch (instr.op) {
          case FheOpcode::Add:
          case FheOpcode::Sub:
          case FheOpcode::Mul:
            last_use[instr.a] = idx;
            last_use[instr.b] = idx;
            break;
          case FheOpcode::AddPlain:
          case FheOpcode::MulPlain:
          case FheOpcode::Negate:
          case FheOpcode::Rotate:
            last_use[instr.a] = idx;
            break;
          case FheOpcode::PackCipher:
          case FheOpcode::PackPlain:
            break;
        }
    }
    const std::unordered_set<int> protected_set(protected_regs.begin(),
                                                protected_regs.end());
    auto dies = [&](int reg, std::size_t idx) {
        if (protected_set.count(reg)) return false;
        auto it = last_use.find(reg);
        return it != last_use.end() && it->second == idx;
    };
    auto consume = [&](int reg) {
        auto node = cts.extract(reg);
        ++inplace_consumed_;
        return std::move(node.mapped());
    };
    auto discard = [&](int reg) {
        auto node = cts.extract(reg);
        scheme_.recycle(std::move(node.mapped()));
        ++recycled_cts_;
    };

    Stopwatch watch;
    for (std::size_t idx = 0; idx < program.instrs.size(); ++idx) {
        const FheInstr& instr = program.instrs[idx];
        if (gated) {
            while (next_point < ms.points.size() &&
                   ms.points[next_point] < static_cast<int>(idx)) {
                ++next_point;
            }
            if (next_point < ms.points.size() &&
                ms.points[next_point] == static_cast<int>(idx)) {
                // Multi-prime drops are possible when the noise demand
                // collapsed far below the chain (each iteration re-runs
                // the full suffix simulation one level lower).
                while (modswitch::canDropBefore(
                    program, static_cast<int>(idx), noise, np, plan,
                    ms.margin_bits, ms.min_level)) {
                    const int new_level = noise.level - 1;
                    for (auto& [reg, ct] : cts) {
                        scheme_.modSwitchTo(ct, new_level);
                    }
                    modswitch::applyDrop(noise, np);
                    if (mod_switch_drops) ++*mod_switch_drops;
                }
                ++next_point;
            }
        }
        switch (instr.op) {
          case FheOpcode::PackCipher:
          case FheOpcode::PackPlain:
            break;
          case FheOpcode::Add: {
            const bool a_dies = dies(instr.a, idx);
            const bool b_dies = dies(instr.b, idx) && instr.b != instr.a;
            if (a_dies) {
                fhe::Ciphertext value = consume(instr.a);
                scheme_.addInPlace(
                    value, instr.b == instr.a ? value : cts.at(instr.b));
                if (b_dies) discard(instr.b);
                cts.emplace(instr.dst, std::move(value));
            } else if (b_dies) {
                // Add is commutative: consume b instead.
                fhe::Ciphertext value = consume(instr.b);
                scheme_.addInPlace(value, cts.at(instr.a));
                cts.emplace(instr.dst, std::move(value));
            } else {
                ++inplace_copies_;
                cts.emplace(instr.dst,
                            scheme_.add(cts.at(instr.a), cts.at(instr.b)));
            }
            break;
          }
          case FheOpcode::Sub: {
            const bool a_dies = dies(instr.a, idx);
            const bool b_dies = dies(instr.b, idx) && instr.b != instr.a;
            if (a_dies) {
                fhe::Ciphertext value = consume(instr.a);
                scheme_.subInPlace(
                    value, instr.b == instr.a ? value : cts.at(instr.b));
                if (b_dies) discard(instr.b);
                cts.emplace(instr.dst, std::move(value));
            } else {
                ++inplace_copies_;
                cts.emplace(instr.dst,
                            scheme_.sub(cts.at(instr.a), cts.at(instr.b)));
                if (b_dies) discard(instr.b);
            }
            break;
          }
          case FheOpcode::Mul: {
            // multiply() builds its result from the tensor product — no
            // copy to elide — but dying operands still recycle.
            fhe::Ciphertext value =
                scheme_.multiply(cts.at(instr.a), cts.at(instr.b));
            if (dies(instr.b, idx) && instr.b != instr.a) {
                discard(instr.b);
            }
            if (dies(instr.a, idx)) discard(instr.a);
            cts.emplace(instr.dst, std::move(value));
            break;
          }
          case FheOpcode::AddPlain:
            if (dies(instr.a, idx)) {
                fhe::Ciphertext value = consume(instr.a);
                scheme_.addPlainInPlace(value, plains.at(instr.b));
                cts.emplace(instr.dst, std::move(value));
            } else {
                ++inplace_copies_;
                cts.emplace(instr.dst, scheme_.addPlain(cts.at(instr.a),
                                                        plains.at(instr.b)));
            }
            break;
          case FheOpcode::MulPlain:
            if (dies(instr.a, idx)) {
                fhe::Ciphertext value = consume(instr.a);
                scheme_.mulPlainInPlace(value, plains.at(instr.b));
                cts.emplace(instr.dst, std::move(value));
            } else {
                ++inplace_copies_;
                cts.emplace(instr.dst, scheme_.mulPlain(cts.at(instr.a),
                                                        plains.at(instr.b)));
            }
            break;
          case FheOpcode::Negate:
            if (dies(instr.a, idx)) {
                fhe::Ciphertext value = consume(instr.a);
                scheme_.negateInPlace(value);
                cts.emplace(instr.dst, std::move(value));
            } else {
                ++inplace_copies_;
                cts.emplace(instr.dst, scheme_.negate(cts.at(instr.a)));
            }
            break;
          case FheOpcode::Rotate: {
            fhe::Ciphertext value;
            if (dies(instr.a, idx)) {
                value = consume(instr.a);
            } else {
                ++inplace_copies_;
                value = scheme_.clone(cts.at(instr.a));
            }
            for (int component : plan.decomposition.at(instr.step)) {
                fhe::Ciphertext next = scheme_.rotate(value, component);
                scheme_.recycle(std::move(value));
                ++recycled_cts_;
                value = std::move(next);
            }
            cts.emplace(instr.dst, std::move(value));
            break;
          }
        }
        if (gated) modswitch::applyInstr(noise, instr, np, plan);
    }
    return watch.elapsedSeconds();
}

RunResult
FheRuntime::run(const FheProgram& program, const ir::Env& env,
                const RotationKeyPlan& plan)
{
    RowRunResult row =
        runRow(program, plan, scheme_.slots(), {wholeProgramMember(program)},
               {{&env}});
    row.shared.output = std::move(row.member_outputs.front().front());
    return std::move(row.shared);
}

namespace {

/// Reject a row layout runRow() cannot execute, before anything indexes
/// the program or the lane environments.
void
validateRowLayout(const FheProgram& program, int row_slots, int lane_stride,
                  const std::vector<CompositeMember>& members,
                  const std::vector<std::vector<const ir::Env*>>& member_lanes)
{
    if (lane_stride <= 0 || row_slots % lane_stride != 0) {
        throw CompileError("lane stride " + std::to_string(lane_stride) +
                           " does not tile the " +
                           std::to_string(row_slots) + "-slot row");
    }
    for (const FheInstr& instr : program.instrs) {
        const int width = static_cast<int>(instr.slots.size());
        if (width > row_slots) {
            throw CompileError(
                "pack wider than the batching row (" +
                std::to_string(width) + " > " + std::to_string(row_slots) +
                "); raise the polynomial modulus degree");
        }
        if (width > lane_stride) {
            throw CompileError("pack wider than the lane stride (" +
                               std::to_string(width) + " > " +
                               std::to_string(lane_stride) + ")");
        }
    }
    if (members.empty() || member_lanes.size() != members.size()) {
        throw CompileError("row member/lane-set mismatch");
    }
    const int num_lanes = row_slots / lane_stride;
    int next_instr = 0;
    for (std::size_t m = 0; m < members.size(); ++m) {
        const CompositeMember& member = members[m];
        if (member.instr_begin != next_instr ||
            member.instr_end <= member.instr_begin ||
            member.instr_end > static_cast<int>(program.instrs.size())) {
            throw CompileError(
                "row member slices must tile the program in order");
        }
        next_instr = member.instr_end;
        if (member.output_reg < 0 || member.output_reg >= program.num_regs) {
            throw CompileError("row member output register out of range");
        }
        if (member.lane_count <= 0 || member.lane_base < 0 ||
            member.lane_base > num_lanes - member.lane_count) {
            throw CompileError("row lane layout exceeds the batching row");
        }
        const std::vector<const ir::Env*>& lanes = member_lanes[m];
        if (static_cast<int>(lanes.size()) != member.lane_count ||
            std::find(lanes.begin(), lanes.end(), nullptr) != lanes.end()) {
            throw CompileError("row member lane-count mismatch");
        }
        if (member.output_width < 0 || member.output_width > lane_stride) {
            throw CompileError("output wider than the lane stride");
        }
    }
    if (next_instr != static_cast<int>(program.instrs.size())) {
        throw CompileError(
            "row member slices must tile the program in order");
    }
}

} // namespace

RowRunResult
FheRuntime::runRow(
    const FheProgram& program, const RotationKeyPlan& plan, int lane_stride,
    const std::vector<CompositeMember>& members,
    const std::vector<std::vector<const ir::Env*>>& member_lanes)
{
    validateRowLayout(program, scheme_.slots(), lane_stride, members,
                      member_lanes);
    const int num_lanes = scheme_.slots() / lane_stride;

    const Stopwatch setup_watch;
    RowRunResult row;
    RunResult& result = row.shared;
    result.counts = program.counts();
    result.fresh_noise_budget = scheme_.freshNoiseBudget();

    scheme_.makeGaloisKeys(plan.keys);
    result.rotation_keys = static_cast<int>(plan.keys.size());

    // Client-side phase: every pack instruction belongs to exactly one
    // member slice; its lanes carry that member's request lanes at the
    // member's lane block and phantom copies of the member's first lane
    // everywhere else, so each member's rows are fully laned (the shape
    // its lane-safety certificate assumes). One encode per pack, one
    // encrypt per PackCipher.
    std::unordered_map<int, fhe::Ciphertext> cts;
    std::unordered_map<int, fhe::Plaintext> plains;
    std::vector<std::vector<std::int64_t>> regions(
        static_cast<std::size_t>(num_lanes));
    std::vector<int> protected_regs;
    for (std::size_t m = 0; m < members.size(); ++m) {
        const CompositeMember& member = members[m];
        const std::vector<const ir::Env*>& lanes = member_lanes[m];
        for (int i = member.instr_begin; i < member.instr_end; ++i) {
            const FheInstr& instr =
                program.instrs[static_cast<std::size_t>(i)];
            if (instr.op != FheOpcode::PackCipher &&
                instr.op != FheOpcode::PackPlain) {
                continue;
            }
            for (int r = 0; r < num_lanes; ++r) {
                const int lane = r - member.lane_base;
                const ir::Env& env =
                    (lane >= 0 && lane < member.lane_count)
                        ? *lanes[static_cast<std::size_t>(lane)]
                        : *lanes.front();
                regions[static_cast<std::size_t>(r)] =
                    packLaneRegion(instr, env, lane_stride);
            }
            fhe::Plaintext plain = scheme_.encodeLanes(regions, lane_stride);
            if (instr.op == FheOpcode::PackCipher) {
                cts.emplace(instr.dst, scheme_.encrypt(plain));
            } else {
                plains.emplace(instr.dst, std::move(plain));
            }
        }
        // Every member's output register must survive to the readout.
        protected_regs.push_back(member.output_reg);
    }

    result.setup_seconds = setup_watch.elapsedSeconds();
    result.exec_seconds =
        evaluateServer(program, plan, cts, plains, protected_regs,
                       result.fresh_noise_budget, &result.mod_switch_drops);
    const Stopwatch decode_watch;

    // Per-member readout: each member's output lives in its own
    // register, so noise accounting is per member; the shared result
    // reports the minimum so the caller's exhausted-budget fallback
    // stays conservative.
    for (const CompositeMember& member : members) {
        if (cts.count(member.output_reg)) {
            const fhe::Ciphertext& out = cts.at(member.output_reg);
            row.member_final_budgets.push_back(scheme_.noiseBudgetBits(out));
            row.member_outputs.push_back(scheme_.decryptLanes(
                out, lane_stride, member.output_width, member.lane_count,
                member.lane_base));
        } else {
            // All-plaintext member: nothing homomorphic ran for it.
            row.member_final_budgets.push_back(result.fresh_noise_budget);
            row.member_outputs.push_back(scheme_.decodeLanes(
                plains.at(member.output_reg), lane_stride,
                member.output_width, member.lane_count, member.lane_base));
        }
    }
    result.final_noise_budget = *std::min_element(
        row.member_final_budgets.begin(), row.member_final_budgets.end());
    result.consumed_noise =
        result.fresh_noise_budget - result.final_noise_budget;
    result.decode_seconds = decode_watch.elapsedSeconds();
    recycleCiphertexts(cts);
    return row;
}

OpLatencies
FheRuntime::calibrate(int reps)
{
    OpLatencies lat;
    scheme_.makeGaloisKeys({1});
    const fhe::Plaintext plain = scheme_.encode({1, 2, 3, 4});
    const fhe::Ciphertext ct = scheme_.encrypt(plain);

    auto median_time = [&](auto&& fn) {
        std::vector<double> times;
        for (int i = 0; i < reps; ++i) {
            Stopwatch watch;
            fn();
            times.push_back(watch.elapsedSeconds());
        }
        std::sort(times.begin(), times.end());
        return times[times.size() / 2];
    };

    lat.ct_add = median_time([&] { (void)scheme_.add(ct, ct); });
    lat.ct_ct_mul = median_time([&] { (void)scheme_.multiply(ct, ct); });
    lat.ct_pt_mul = median_time([&] { (void)scheme_.mulPlain(ct, plain); });
    lat.rotation = median_time([&] { (void)scheme_.rotate(ct, 1); });
    return lat;
}

double
FheRuntime::estimate(const FheProgram& program,
                     const OpLatencies& lat) const
{
    const FheProgram::Counts counts = program.counts();
    return counts.ct_add * lat.ct_add + counts.ct_ct_mul * lat.ct_ct_mul +
           counts.ct_pt_mul * lat.ct_pt_mul +
           counts.rotations * lat.rotation;
}

} // namespace chehab::compiler
