/// \file
/// SealLite: a from-scratch RLWE homomorphic encryption backend standing
/// in for Microsoft SEAL (§4.4, §7.4).
///
/// It implements the exact integer BGV formulation of the
/// Brakerski-Gentry-Vaikuntanathan family in full-RNS form: an RNS
/// coefficient modulus q = Π qᵢ of NTT-friendly primes, ternary secrets,
/// symmetric RLWE encryption (c₀ = −a·s + t·e + m, c₁ = a), ciphertext
/// add/sub/negate, plaintext add/multiply, ciphertext multiply with
/// RNS-basis relinearization, Galois-automorphism slot rotations with key
/// switching, CRT batching over the plaintext modulus t, SEAL-style
/// invariant-noise-budget measurement, and BGV modulus switching
/// (modSwitchTo: drop trailing RNS primes mid-circuit once the noise
/// demand fits the smaller chain — the runtime support behind the
/// compiler's mod-switch pass).
///
/// Modulus switching (exactness contract): dropping the last prime q_l
/// rescales every component by q_l^{-1} using a correction δ with
/// δ ≡ c (mod q_l) and δ ≡ 0 (mod t), which multiplies the encoded
/// plaintext by q_l^{-1} mod t; the implementation immediately undoes
/// that by folding the centered scalar φ ≡ q_l (mod t) into the same
/// per-coefficient multiply, so ciphertexts never carry a correction
/// factor and decoded outputs are bit-identical with or without drops
/// (while noise bounds hold — the compiler pass gates drops on a
/// deterministic noise simulation with margin).
///
/// Substitution note: the paper evaluates on
/// BFV; we implement its sibling exact scheme BGV because BGV's multiply
/// is computable entirely in 64-bit RNS arithmetic (BFV's t/q scaled
/// multiply needs multi-precision polynomial arithmetic on the hot path).
/// Both schemes expose the same operation set (SEAL ships both), have the
/// same batching/rotation semantics, and the same noise-consumption shape
/// the evaluation measures: multiplications consume budget multiplicatively,
/// additions additively, rotations a key-switch constant.
///
/// SECURITY: parameters default to toy sizes for test speed; nothing here
/// is hardened (no constant-time code, reduced n). Do not reuse for real
/// deployments.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "fhe/bigint.h"
#include "fhe/ntt.h"
#include "fhe/poly_arena.h"
#include "support/rng.h"

namespace chehab::fhe {

/// Encryption parameters. Every field is part of the key-material
/// registry key (sealite.cc) and of service::paramsFingerprint: a new
/// field must join both.
struct SealLiteParams
{
    int n = 1024;                     ///< Polynomial modulus degree.
    int prime_bits = 30;              ///< Bits per RNS prime.
    int prime_count = 6;              ///< q = product of this many primes.
    std::uint64_t plain_modulus = 65537; ///< t, prime, t ≡ 1 (mod 2n).
    std::uint64_t seed = 0x5ea11e;    ///< Key/encryption randomness seed.
    int error_stddev_x10 = 32;        ///< σ = 3.2 (x10 to stay integral).
    int decomp_bits = 15;             ///< Key-switch digit width 2^w within
                                      ///  each RNS residue (noise/size
                                      ///  trade-off, as in SEAL).
};

/// Polynomial in RNS form: prime-major layout, `k * n` words. k is the
/// poly's *level* — the number of leading chain primes it still carries
/// (modulus switching truncates trailing components).
struct RnsPoly
{
    std::vector<std::uint64_t> data;
    int k = 0; ///< Number of primes (current level).
    int n = 0;

    std::uint64_t* component(int i) { return data.data() + static_cast<std::size_t>(i) * n; }
    const std::uint64_t* component(int i) const
    {
        return data.data() + static_cast<std::size_t>(i) * n;
    }
};

/// A polynomial cached in per-prime NTT (evaluation) form with a Shoup
/// companion per slot: multiplying a variable coefficient-form operand
/// against a cached form costs one forward + pointwise Shoup multiplies
/// + one inverse (key-switch keys, the secret, and repeated plaintext
/// constants all qualify). Always built at the full level; a level-k
/// consumer reads the first k components (RNS primes are independent).
struct NttForm
{
    std::vector<std::uint64_t> values; ///< Prime-major, k * n words.
    std::vector<std::uint64_t> shoup;  ///< Shoup companions, same layout.
    int k = 0;
    int n = 0;

    const std::uint64_t* component(int i) const
    {
        return values.data() + static_cast<std::size_t>(i) * n;
    }
    const std::uint64_t* shoupComponent(int i) const
    {
        return shoup.data() + static_cast<std::size_t>(i) * n;
    }
};

/// Plaintext polynomial mod t (coefficient form).
struct Plaintext
{
    std::vector<std::uint64_t> coeffs;
};

/// Degree-1 RLWE ciphertext.
struct Ciphertext
{
    RnsPoly c0;
    RnsPoly c1;
};

/// Context + key material + evaluator in one object (SealLite is small
/// enough that SEAL's context/keygen/encryptor/evaluator split would be
/// ceremony; the method names mirror SEAL's). The key material is not
/// per object: every live instance of one parameter set shares a
/// single copy (see keyMaterialCacheStats).
class SealLite
{
  public:
    explicit SealLite(SealLiteParams params = {});

    const SealLiteParams& params() const { return params_; }

    /// Usable SIMD slots (one batching row = n/2).
    int slots() const { return params_.n / 2; }

    /// log2 of the full coefficient modulus (total budget headroom).
    int coeffModulusBits() const { return coeffModulusBitsAt(levels()); }

    /// \name Modulus chain levels
    /// @{
    /// Number of primes in the full chain.
    int levels() const { return static_cast<int>(primes_.size()); }
    /// log2 of the coefficient modulus at \p level primes (1..levels()).
    int coeffModulusBitsAt(int level) const;
    /// The chain primes, in order (index < level participates).
    const std::vector<std::uint64_t>& primeChain() const { return primes_; }
    /// Current level of a ciphertext.
    int level(const Ciphertext& ct) const { return ct.c0.k; }
    /// Switch \p ct down to \p level primes (1 <= level <= current),
    /// dropping trailing chain primes one at a time. Exact: the decoded
    /// plaintext is unchanged (see the header notes); noise shrinks by
    /// roughly prime_bits and grows by ~log2(t) per drop, and the
    /// budget is thereafter measured against the smaller modulus.
    void modSwitchTo(Ciphertext& ct, int level) const;
    /// @}

    /// \name Batching
    /// Slot j of row 0 is the plaintext polynomial evaluated at
    /// zeta^(3^j mod 2n), zeta the primitive 2n-th root of unity mod t;
    /// row 1 (the conjugate points) is always encoded as zero. Both
    /// directions are one NTT over Z_t plus a slot permutation, as in
    /// SEAL's BatchEncoder. Exact: interpolation at the n roots of
    /// x^n + 1 mod the prime t is unique, so the coefficients equal the
    /// O(n^2) inverse-CRT sum's bit for bit (the ReferenceCodec oracle
    /// in tests/test_fhe_sealite.cc).
    /// @{
    /// Encode up to slots() integers (each reduced mod t) into a
    /// plaintext: scatter to the slots' transform indices, one inverse
    /// NTT.
    Plaintext encode(const std::vector<std::int64_t>& values) const;
    /// Decode all slots() row-0 slot values, each in [0, t): one forward
    /// NTT of a copy, gathered at the slots' transform indices.
    std::vector<std::int64_t> decode(const Plaintext& plain) const;
    /// @}

    /// \name Lane-sliced batching (slot coalescing)
    /// The service's batch planner packs several logical requests into
    /// one ciphertext row by giving each a contiguous region ("lane")
    /// of \p lane_stride slots. These helpers encode/decode at lane
    /// granularity; the stride must be positive and
    /// lanes.size() * lane_stride must fit in the row.
    /// @{
    /// Encode one region per lane: lane l's values land at slot offset
    /// l * lane_stride (each lane vector must be at most lane_stride
    /// wide; shorter vectors are zero-padded to the stride). Slots past
    /// the last lane stay zero.
    Plaintext encodeLanes(const std::vector<std::vector<std::int64_t>>& lanes,
                          int lane_stride) const;
    /// Decode the first \p width slots of each of \p num_lanes lanes,
    /// starting at lane index \p first_lane (the cross-kernel composite
    /// places a member's lanes at an arbitrary lane-aligned offset of
    /// the shared row, not necessarily at lane 0).
    std::vector<std::vector<std::int64_t>>
    decodeLanes(const Plaintext& plain, int lane_stride, int width,
                int num_lanes, int first_lane = 0) const;
    /// Decrypt, then decodeLanes.
    std::vector<std::vector<std::int64_t>>
    decryptLanes(const Ciphertext& ct, int lane_stride, int width,
                 int num_lanes, int first_lane = 0) const;
    /// @}

    /// \name Encryption
    /// @{
    Ciphertext encrypt(const Plaintext& plain);
    Plaintext decryptPlain(const Ciphertext& ct) const;
    std::vector<std::int64_t> decrypt(const Ciphertext& ct) const;
    /// @}

    /// \name Homomorphic evaluation
    /// Binary ciphertext operations require both operands at the same
    /// level (the runtime's drop points switch every live ciphertext in
    /// lockstep, so this holds by construction).
    /// @{
    Ciphertext add(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext sub(const Ciphertext& a, const Ciphertext& b) const;
    Ciphertext negate(const Ciphertext& a) const;
    Ciphertext addPlain(const Ciphertext& a, const Plaintext& plain) const;
    Ciphertext mulPlain(const Ciphertext& a, const Plaintext& plain) const;
    /// Ciphertext-ciphertext multiply with relinearization.
    Ciphertext multiply(const Ciphertext& a, const Ciphertext& b) const;
    /// Cyclic left rotation of the batching row by \p step slots
    /// (negative = right). Requires the matching Galois key.
    Ciphertext rotate(const Ciphertext& a, int step) const;
    /// @}

    /// \name Destructive (in-place) evaluation forms
    /// Bit-identical results to the copying forms above, mutating \p a
    /// instead of copying both component polys. The runtime's in-place
    /// evaluator consumes a register's last use through these; the
    /// copying forms themselves are implemented as clone() + in-place,
    /// so every evaluator allocation flows through the arena either
    /// way.
    /// @{
    void addInPlace(Ciphertext& a, const Ciphertext& b) const;
    void subInPlace(Ciphertext& a, const Ciphertext& b) const;
    void negateInPlace(Ciphertext& a) const;
    void addPlainInPlace(Ciphertext& a, const Plaintext& plain) const;
    void mulPlainInPlace(Ciphertext& a, const Plaintext& plain) const;
    /// Arena-backed deep copy of a ciphertext.
    Ciphertext clone(const Ciphertext& a) const;
    /// Return a dead ciphertext's / poly's buffers to the arena for
    /// reuse by later ops (steady-state evaluation reaches zero fresh
    /// allocations once every op's dead values are recycled).
    void recycle(Ciphertext&& ct) const;
    void recycle(RnsPoly&& poly) const;
    /// @}

    /// Arena observability (see PolyArena).
    PolyArena::Stats arenaStats() const { return arena_.stats(); }

    /// Re-seed the encryption/error randomness stream. Key material
    /// (secret, relinearization and Galois keys) is unaffected: it is
    /// a pure function of the params (Galois keys of (params, step)),
    /// shared process-wide through the key-material registry (see
    /// keyMaterialCacheStats), and never drawn from this stream after
    /// construction. Construction leaves the stream in the same
    /// post-keygen state whether it generated the keys or found them in
    /// the registry. The service's runtime pool reseeds per request so
    /// a pooled, reused scheme produces bit-identical noise accounting
    /// regardless of which requests ran on it before.
    void reseedRandomness(std::uint64_t seed) { rng_.reseed(seed); }

    /// \name Rotation (Galois) keys — App. B's χ set feeds this.
    /// @{
    /// Make keys for \p steps available to this instance
    /// (already-present steps are skipped). Each key's randomness is
    /// derived deterministically from the params seed and the step, so
    /// the key for a given step is bit-identical no matter when, in
    /// what order, or on which instance it is generated. Keys live in
    /// the process-wide registry entry for these params: a step some
    /// live instance already built is shared, not regenerated, and each
    /// (params, step) key is generated once per entry lifetime under
    /// the entry's lock. hasGaloisKey/numGaloisKeys still report only
    /// the steps requested on this instance.
    void makeGaloisKeys(const std::vector<int>& steps);
    bool hasGaloisKey(int step) const;
    int numGaloisKeys() const { return static_cast<int>(galois_keys_.size()); }
    /// @}

    /// \name Noise measurement (App. H.1)
    /// @{
    /// Remaining invariant noise budget in bits, measured against the
    /// ciphertext's *current* coefficient modulus (<= 0 means
    /// decryption is no longer guaranteed).
    int noiseBudgetBits(const Ciphertext& ct) const;
    /// Budget of a fresh encryption under these parameters.
    int freshNoiseBudget();
    /// @}

  private:
    /// Registry entry: the immutable key material of one parameter
    /// set, shared by every live instance with those params (defined in
    /// sealite.cc).
    struct KeyMaterial;

    struct KeySwitchKey
    {
        // One (b, a) pair per (RNS prime, base-2^w digit) combination:
        // entry i*digits+d encrypts T_i * B^d * target. Stored in NTT
        // form (with Shoup companions) — key switching only ever
        // multiplies them against freshly decomposed digit polynomials.
        std::vector<NttForm> b;
        std::vector<NttForm> a;
    };

    /// Per-level CRT recomposition tables (level = index + 1 primes).
    struct LevelTables
    {
        BigInt q;
        BigInt half_q;
        std::uint64_t q_mod_t = 0;
        std::vector<BigInt> q_hat;            ///< q / q_i.
        std::vector<std::uint64_t> q_hat_inv; ///< (q/q_i)^-1 mod q_i.
    };

    RnsPoly zeroPoly(int k = 0) const; ///< k = 0 means full level.
    RnsPoly uniformPoly();
    /// Small (ternary / gaussian) polynomial lifted to RNS.
    RnsPoly liftSmall(const std::vector<int>& coeffs) const;
    std::vector<int> sampleTernary();
    std::vector<int> sampleError();

    void addInPlace(RnsPoly& a, const RnsPoly& b) const;
    void subInPlace(RnsPoly& a, const RnsPoly& b) const;
    void negateInPlace(RnsPoly& a) const;
    /// Arena-backed deep copy of one poly.
    RnsPoly clonePoly(const RnsPoly& a) const;
    /// Negacyclic product via per-prime NTT (operands at equal levels).
    RnsPoly mulPoly(const RnsPoly& a, const RnsPoly& b) const;
    /// Negacyclic product against a cached NTT form: one forward, n
    /// Shoup pointwise multiplies, one inverse per prime. Result at
    /// a's level (the form is full-level).
    RnsPoly mulPolyNtt(const RnsPoly& a, const NttForm& b) const;
    /// mulPolyNtt writing the product back into \p a's own buffer.
    void mulPolyNttInPlace(RnsPoly& a, const NttForm& b) const;
    /// Transform \p a (full level) into cached NTT form.
    NttForm toNttForm(const RnsPoly& a) const;
    /// Apply x -> x^galois_element to every RNS component.
    RnsPoly applyAutomorphism(const RnsPoly& a,
                              std::uint64_t galois_element) const;

    /// Lift a plaintext (mod t) into RNS form at level \p k (0 = full).
    RnsPoly liftPlain(const Plaintext& plain, int k = 0) const;

    /// Cached (lifted + NTT-transformed) form of \p plain for repeated
    /// ciphertext-plaintext multiplies across packed executions.
    std::shared_ptr<const NttForm> plainNttForm(const Plaintext& plain) const;

    /// Drop the last RNS prime of \p poly (the rescale + folded
    /// t-correction described in the header notes).
    void modSwitchPolyDown(RnsPoly& poly) const;

    /// Key-switch digit count per RNS prime.
    int digitsPerPrime() const;

    /// Build a key-switching key for target polynomial \p target (s², or
    /// an automorphism image of s).
    KeySwitchKey makeKeySwitchKey(const RnsPoly& target);
    /// Key-switch \p poly (a component that currently multiplies the key
    /// target) onto (delta_c0, delta_c1). Operates at poly's level: only
    /// the first poly.k primes' digits and key components participate
    /// (valid because the full-level CRT basis T_i reduces to the
    /// level-k basis mod the surviving primes).
    void keySwitch(const RnsPoly& poly, const KeySwitchKey& key,
                   RnsPoly& delta_c0, RnsPoly& delta_c1) const;

    /// Galois element for a left rotation by \p step.
    std::uint64_t galoisElement(int step) const;

    /// CRT-recompose coefficient \p index of \p poly at poly's level.
    BigInt recomposeCoeff(const RnsPoly& poly, int index) const;

    /// The live registry entry for \p params, or a fresh empty one.
    static std::shared_ptr<KeyMaterial>
    acquireKeyMaterial(const SealLiteParams& params);

    SealLiteParams params_;
    std::vector<std::uint64_t> primes_;
    /// Shared process-wide tables (see acquireNttTables).
    std::vector<std::shared_ptr<const NttTables>> ntt_;
    std::vector<LevelTables> level_tables_;    ///< [k-1] = level-k tables.
    /// Modulus-switch precomputation for dropping prime index l
    /// (level l+1 -> l): q_l^{-1} mod t, and per surviving prime i the
    /// folded factor (q_l^{-1} mod q_i) * (φ mod q_i) with φ the
    /// centered representative of q_l mod t.
    std::vector<std::uint64_t> inv_prime_mod_t_;
    std::vector<std::vector<std::uint64_t>> switch_factor_;
    /// Batching codec: the process-wide negacyclic NTT tables over
    /// Z_t (t ≡ 1 mod 2n, so acquireNttTables(n, t) applies), and per
    /// row-0 slot j the transform index holding the evaluation at
    /// zeta^(3^j mod 2n) — derived from the tables themselves, so it
    /// follows their output order (see the constructor).
    std::shared_ptr<const NttTables> plain_ntt_;
    std::vector<std::uint32_t> slot_index_;

    /// Secret, relin key and Galois key store, shared with every other
    /// live instance of the same params.
    std::shared_ptr<KeyMaterial> keys_;
    /// Steps requested on this instance (see makeGaloisKeys).
    std::unordered_map<int, std::shared_ptr<const KeySwitchKey>>
        galois_keys_;
    std::unordered_map<int, std::uint64_t> galois_elements_;
    Rng rng_;
    int fresh_budget_ = -1;

    /// Cache of NTT forms for repeatedly-used plaintext constants
    /// (packed masks are re-multiplied on every run of a cached
    /// program). Keyed by coefficient hash with full-coefficient
    /// verification on hit; cleared wholesale at capacity.
    struct PlainCacheEntry
    {
        std::vector<std::uint64_t> coeffs;
        NttForm form;
    };
    mutable std::mutex plain_cache_mutex_;
    mutable std::unordered_map<std::uint64_t,
                               std::shared_ptr<const PlainCacheEntry>>
        plain_ntt_cache_;

    /// Buffer pool behind every RnsPoly / NTT-scratch allocation this
    /// instance makes (zeroPoly and friends all draw from it). Mutable:
    /// const evaluator methods acquire and release scratch.
    mutable PolyArena arena_;
};

/// Process-wide key-material registry counters. Entries are keyed by
/// every SealLiteParams field and live exactly as long as some SealLite
/// with those params does, so the registry needs no capacity bound.
/// One lookup is one construction (secret + relin key) or one
/// makeGaloisKeys step that this instance did not hold yet.
struct KeyMaterialCacheStats
{
    /// Registered entries: parameter sets with a live instance.
    std::uint64_t live_entries = 0;
    std::uint64_t hits = 0;   ///< Lookups served by a live entry.
    std::uint64_t misses = 0; ///< Lookups that generated the key.
};
KeyMaterialCacheStats keyMaterialCacheStats();

} // namespace chehab::fhe
