/// \file
/// SealLite correctness suite: modular arithmetic, NTT round-trips,
/// BigInt, batching encode/decode, encryption round-trips, every
/// homomorphic operation against plaintext semantics, rotation/Galois
/// behaviour, the process-wide key-material registry, and noise-budget
/// monotonicity (App. H.1). The batching codec is checked against a
/// slow O(n^2) reference kept here as its oracle.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>

#include "fhe/bigint.h"
#include "fhe/modarith.h"
#include "fhe/ntt.h"
#include "fhe/sealite.h"
#include "support/rng.h"

namespace chehab::fhe {
namespace {

SealLiteParams
testParams()
{
    SealLiteParams params;
    params.n = 256;        // Toy degree: fast tests, 128 slots.
    params.prime_bits = 30;
    params.prime_count = 4;
    params.plain_modulus = 65537;
    params.seed = 99;
    return params;
}

SealLite&
scheme()
{
    static SealLite instance(testParams());
    return instance;
}

std::int64_t
tmod(std::int64_t x)
{
    const std::int64_t t = 65537;
    const std::int64_t r = x % t;
    return r < 0 ? r + t : r;
}

// -- modular arithmetic ------------------------------------------------

TEST(ModArithTest, PowAndInv)
{
    EXPECT_EQ(powMod(2, 10, 1000003), 1024u);
    const std::uint64_t p = 998244353;
    const std::uint64_t inv = invMod(12345, p);
    EXPECT_EQ(mulMod(12345, inv, p), 1u);
}

TEST(ModArithTest, PrimalityKnownValues)
{
    EXPECT_TRUE(isPrime(2));
    EXPECT_TRUE(isPrime(65537));
    EXPECT_TRUE(isPrime(998244353));
    EXPECT_FALSE(isPrime(1));
    EXPECT_FALSE(isPrime(65536));
    EXPECT_FALSE(isPrime(3215031751ULL)); // Strong pseudoprime to 2,3,5,7.
}

TEST(ModArithTest, NttPrimesAreFriendly)
{
    const auto primes = findNttPrimes(30, 3, 512);
    ASSERT_EQ(primes.size(), 3u);
    for (std::uint64_t p : primes) {
        EXPECT_TRUE(isPrime(p));
        EXPECT_EQ((p - 1) % 512, 0u);
    }
    EXPECT_NE(primes[0], primes[1]);
}

TEST(ModArithTest, PrimitiveRootHasExactOrder)
{
    const std::uint64_t p = findNttPrimes(30, 1, 512)[0];
    const std::uint64_t psi = findPrimitiveRoot(512, p);
    EXPECT_EQ(powMod(psi, 256, p), p - 1); // psi^(n) = -1.
    EXPECT_EQ(powMod(psi, 512, p), 1u);
}

// -- NTT -----------------------------------------------------------------

TEST(NttTest, RoundTrip)
{
    const int n = 64;
    const std::uint64_t p = findNttPrimes(30, 1, 2 * n)[0];
    const NttTables tables(n, p);
    Rng rng(5);
    std::vector<std::uint64_t> values(n);
    for (auto& v : values) v = rng.uniformInt(p);
    std::vector<std::uint64_t> copy = values;
    tables.forward(copy.data());
    tables.inverse(copy.data());
    EXPECT_EQ(copy, values);
}

TEST(NttTest, MatchesSchoolbookNegacyclic)
{
    const int n = 32;
    const std::uint64_t p = findNttPrimes(30, 1, 2 * n)[0];
    const NttTables tables(n, p);
    Rng rng(6);
    std::vector<std::uint64_t> a(n), b(n);
    for (auto& v : a) v = rng.uniformInt(p);
    for (auto& v : b) v = rng.uniformInt(p);

    // Schoolbook x^n = -1 product.
    std::vector<std::uint64_t> expected(n, 0);
    for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
            const std::uint64_t prod = mulMod(a[i], b[j], p);
            if (i + j < n) {
                expected[i + j] = addMod(expected[i + j], prod, p);
            } else {
                expected[i + j - n] = subMod(expected[i + j - n], prod, p);
            }
        }
    }

    std::vector<std::uint64_t> fa = a, fb = b;
    tables.forward(fa.data());
    tables.forward(fb.data());
    for (int i = 0; i < n; ++i) fa[i] = mulMod(fa[i], fb[i], p);
    tables.inverse(fa.data());
    EXPECT_EQ(fa, expected);
}

// -- BigInt ----------------------------------------------------------------

TEST(BigIntTest, BasicArithmetic)
{
    const BigInt a(0xFFFFFFFFFFFFFFFFULL);
    const BigInt b = a.add(BigInt(1));
    EXPECT_EQ(b.bitLength(), 65);
    EXPECT_EQ(b.subtract(BigInt(1)).compare(a), 0);
    EXPECT_EQ(a.multiplySmall(2).toString(), "36893488147419103230");
}

TEST(BigIntTest, MultiplyAndDivmod)
{
    const BigInt a(1234567890123456789ULL);
    const BigInt sq = a.multiply(a);
    std::uint64_t rem = 0;
    const BigInt back = sq.divmodSmall(1234567890123456789ULL, rem);
    EXPECT_EQ(rem, 0u);
    EXPECT_EQ(back.compare(a), 0);
}

TEST(BigIntTest, ReduceBySubtraction)
{
    const BigInt m(1000000007ULL);
    const BigInt v = m.multiplySmall(3).add(BigInt(42));
    EXPECT_EQ(v.reduceBySubtraction(m).toString(), "42");
}

// -- batching ----------------------------------------------------------------

/// The O(n^2) batching codec, kept as the oracle for SealLite's NTT
/// codec: slot j of row 0 is the plaintext polynomial evaluated at
/// zeta^(3^j mod 2n), zeta the primitive 2n-th root of unity mod t, and
/// row 1 is zero. Zero slots and zero coefficients are skipped, so its
/// cost is n times the nonzeros — sparse inputs keep it cheap at
/// n = 32768.
class ReferenceCodec
{
  public:
    ReferenceCodec(int n, std::uint64_t t)
        : n_(n), t_(t), zeta_powers_(2 * static_cast<std::size_t>(n))
    {
        const auto two_n = static_cast<std::uint64_t>(2 * n);
        const std::uint64_t zeta = findPrimitiveRoot(two_n, t);
        std::uint64_t power = 1;
        for (auto& z : zeta_powers_) {
            z = power;
            power = mulMod(power, zeta, t);
        }
        std::uint64_t e = 1;
        for (int j = 0; j < n / 2; ++j) {
            slot_exponents_.push_back(e);
            e = (e * 3) % two_n;
        }
    }

    /// c_k = n^{-1} * sum_j v_j * zeta^{-e_j * k}.
    std::vector<std::uint64_t>
    encode(const std::vector<std::int64_t>& values) const
    {
        const auto two_n = static_cast<std::uint64_t>(2 * n_);
        const std::uint64_t inv_n = invMod(static_cast<std::uint64_t>(n_), t_);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> terms;
        for (std::size_t j = 0; j < values.size(); ++j) {
            const std::uint64_t v = reduce(values[j]);
            if (v != 0) terms.emplace_back(slot_exponents_[j], v);
        }
        std::vector<std::uint64_t> coeffs(static_cast<std::size_t>(n_), 0);
        for (int k = 0; k < n_; ++k) {
            std::uint64_t acc = 0;
            for (const auto& [e, v] : terms) {
                const std::uint64_t exponent =
                    (two_n - (e * k) % two_n) % two_n;
                acc = addMod(acc, mulMod(v, zeta_powers_[exponent], t_),
                             t_);
            }
            coeffs[static_cast<std::size_t>(k)] = mulMod(acc, inv_n, t_);
        }
        return coeffs;
    }

    /// v_j = sum_k c_k * zeta^{e_j * k}.
    std::vector<std::int64_t>
    decode(const std::vector<std::uint64_t>& coeffs) const
    {
        const auto two_n = static_cast<std::uint64_t>(2 * n_);
        std::vector<std::pair<std::uint64_t, std::uint64_t>> terms;
        for (std::size_t k = 0; k < coeffs.size(); ++k) {
            if (coeffs[k] != 0) terms.emplace_back(k, coeffs[k]);
        }
        std::vector<std::int64_t> values;
        for (const std::uint64_t e : slot_exponents_) {
            std::uint64_t acc = 0;
            for (const auto& [k, c] : terms) {
                acc = addMod(acc, mulMod(c, zeta_powers_[(e * k) % two_n], t_),
                             t_);
            }
            values.push_back(static_cast<std::int64_t>(acc));
        }
        return values;
    }

    std::uint64_t
    reduce(std::int64_t v) const
    {
        const std::int64_t r = v % static_cast<std::int64_t>(t_);
        return static_cast<std::uint64_t>(
            r < 0 ? r + static_cast<std::int64_t>(t_) : r);
    }

  private:
    int n_;
    std::uint64_t t_;
    std::vector<std::uint64_t> zeta_powers_;
    std::vector<std::uint64_t> slot_exponents_;
};

TEST(SealLiteCodecTest, MatchesReferenceAndRoundTrips)
{
    for (const int n : {8, 64, 1024, 4096}) {
        SCOPED_TRACE(n);
        SealLiteParams params = testParams();
        params.n = n;
        params.prime_count = 2; // Keygen stays cheap at n = 4096.
        const SealLite s(params);
        const ReferenceCodec reference(n, params.plain_modulus);
        Rng rng(static_cast<std::uint64_t>(n));
        const auto t = static_cast<std::int64_t>(params.plain_modulus);
        std::vector<std::int64_t> full(static_cast<std::size_t>(s.slots()));
        for (auto& v : full) v = rng.uniformRange(-t + 1, t - 1);
        const std::vector<std::vector<std::int64_t>> rows = {
            full, {}, {5, -1, 65536, 42}};
        for (const std::vector<std::int64_t>& row : rows) {
            SCOPED_TRACE(row.size());
            const Plaintext plain = s.encode(row);
            EXPECT_EQ(plain.coeffs, reference.encode(row));
            const std::vector<std::int64_t> decoded = s.decode(plain);
            EXPECT_EQ(decoded, reference.decode(plain.coeffs));
            // decode∘encode is the identity on rows (mod t, zero-padded)
            // and encode∘decode on encoded plaintexts.
            std::vector<std::int64_t> expected(
                static_cast<std::size_t>(s.slots()), 0);
            for (std::size_t j = 0; j < row.size(); ++j) {
                expected[j] =
                    static_cast<std::int64_t>(reference.reduce(row[j]));
            }
            EXPECT_EQ(decoded, expected);
            EXPECT_EQ(s.encode(decoded).coeffs, plain.coeffs);
        }
    }
}

SealLiteParams
codecParams(int n)
{
    SealLiteParams params = testParams();
    params.n = n;
    params.prime_count = 1; // The codec never touches the RNS chain.
    return params;
}

TEST(SealLiteCodecTest, SmallestDegreeMatchesReference)
{
    // n = 2: one slot, whose transform index is the only odd power.
    const SealLite s(codecParams(2));
    ASSERT_EQ(s.slots(), 1);
    const ReferenceCodec reference(2, 65537);
    for (const std::int64_t v : {0, 1, -1, 42, 65536, 65537, -65538}) {
        SCOPED_TRACE(v);
        const Plaintext plain = s.encode({v});
        EXPECT_EQ(plain.coeffs, reference.encode({v}));
        EXPECT_EQ(s.decode(plain), reference.decode(plain.coeffs));
        EXPECT_EQ(s.decode(plain),
                  std::vector<std::int64_t>{tmod(v)});
    }
    const std::vector<std::vector<std::uint64_t>> plaintexts = {
        {3, 0}, {0, 7}, {65536, 12345}};
    for (const std::vector<std::uint64_t>& coeffs : plaintexts) {
        Plaintext plain;
        plain.coeffs = coeffs;
        EXPECT_EQ(s.decode(plain), reference.decode(coeffs));
    }
}

TEST(SealLiteCodecTest, LargestDegreeSparseMatchesReference)
{
    // n = 32768 is the largest degree t = 65537 batches (2n | t - 1).
    // Sparse rows and plaintexts keep the oracle at n * nonzeros.
    const int n = 32768;
    const SealLite s(codecParams(n));
    const ReferenceCodec reference(n, 65537);
    Rng rng(32768);
    std::vector<std::int64_t> row(static_cast<std::size_t>(s.slots()), 0);
    for (const int slot : {0, 1, 2, 4095, 4096, 12345, 16383}) {
        row[static_cast<std::size_t>(slot)] = rng.uniformRange(-65536, 65536);
    }
    row[7] = 1; // At least one nonzero whatever the draws.
    const Plaintext plain = s.encode(row);
    EXPECT_EQ(plain.coeffs, reference.encode(row));
    std::vector<std::int64_t> expected(row.size());
    for (std::size_t j = 0; j < row.size(); ++j) {
        expected[j] = static_cast<std::int64_t>(reference.reduce(row[j]));
    }
    EXPECT_EQ(s.decode(plain), expected);

    Plaintext sparse;
    sparse.coeffs.assign(static_cast<std::size_t>(n), 0);
    for (const int k : {0, 1, 3, 1000, 16384, 32767}) {
        sparse.coeffs[static_cast<std::size_t>(k)] = rng.uniformInt(65537);
    }
    EXPECT_EQ(s.decode(sparse), reference.decode(sparse.coeffs));
}

TEST(SealLiteCodecTest, LaneSlicesAtNonzeroFirstLaneMatchReference)
{
    const SealLite s(codecParams(256));
    const ReferenceCodec reference(256, 65537);
    const int stride = 16;
    Rng rng(16);
    std::vector<std::vector<std::int64_t>> lanes(6);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        lanes[l].resize(l % 2 == 0 ? 16 : 9); // Short lanes zero-pad.
        for (auto& v : lanes[l]) v = rng.uniformRange(-70000, 70000);
    }
    std::vector<std::int64_t> row(lanes.size() * stride, 0);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        std::copy(lanes[l].begin(), lanes[l].end(),
                  row.begin() + static_cast<std::ptrdiff_t>(l * stride));
    }
    const Plaintext plain = s.encodeLanes(lanes, stride);
    EXPECT_EQ(plain.coeffs, reference.encode(row));

    const std::vector<std::int64_t> slots = reference.decode(plain.coeffs);
    for (const int first_lane : {1, 3, 5}) {
        SCOPED_TRACE(first_lane);
        const int num_lanes = 6 - first_lane;
        const int width = 9;
        const std::vector<std::vector<std::int64_t>> decoded =
            s.decodeLanes(plain, stride, width, num_lanes, first_lane);
        ASSERT_EQ(decoded.size(), static_cast<std::size_t>(num_lanes));
        for (int l = 0; l < num_lanes; ++l) {
            const auto base = static_cast<std::ptrdiff_t>(
                (first_lane + l) * stride);
            EXPECT_EQ(decoded[static_cast<std::size_t>(l)],
                      std::vector<std::int64_t>(
                          slots.begin() + base,
                          slots.begin() + base + width));
        }
    }
}

TEST(SealLiteCodecTest, OutOfRangeInputsReduceLikeReference)
{
    const SealLite s(codecParams(64));
    const ReferenceCodec reference(64, 65537);
    const std::int64_t t = 65537;
    const std::vector<std::int64_t> row = {
        t,      t + 1,   2 * t + 5, 65536 * t + 3,
        -t,     -t - 1,  -3 * t + 2, -65536 * t - 7,
        INT64_MIN, INT64_MAX, INT64_MIN + 1, INT64_MAX - 1,
        0,      -1};
    const Plaintext plain = s.encode(row);
    EXPECT_EQ(plain.coeffs, reference.encode(row));
    const std::vector<std::int64_t> decoded = s.decode(plain);
    EXPECT_EQ(decoded, reference.decode(plain.coeffs));
    for (std::size_t j = 0; j < row.size(); ++j) {
        EXPECT_EQ(decoded[j],
                  static_cast<std::int64_t>(reference.reduce(row[j])))
            << j;
    }
}

TEST(SealLiteCodecTest, DecodeOfDensePlaintextMatchesReference)
{
    // Every coefficient random: row 1 of such a plaintext is nonzero,
    // which no encode() output has.
    for (const int n : {8, 1024}) {
        SCOPED_TRACE(n);
        const SealLite s(codecParams(n));
        const ReferenceCodec reference(n, 65537);
        Rng rng(static_cast<std::uint64_t>(n) + 1);
        Plaintext plain;
        plain.coeffs.resize(static_cast<std::size_t>(n));
        for (auto& c : plain.coeffs) c = rng.uniformInt(65537);
        EXPECT_EQ(s.decode(plain), reference.decode(plain.coeffs));
    }
}

TEST(SealLiteCodecTest, ConstructionSharesTheProcessWideTables)
{
    // The codec's Z_t tables come from the (n, t) entry of the shared
    // NTT table cache, like the chain primes' do: a second instance of
    // live params hits for every modulus and builds nothing, its slot
    // map included.
    const SealLiteParams params = codecParams(512);
    const SealLite first(params);
    const NttTableCacheStats before = nttTableCacheStats();
    const std::uint32_t* map =
        acquireNttTables(params.n, params.plain_modulus)->slotIndex().data();
    const SealLite second(params);
    const NttTableCacheStats after = nttTableCacheStats();
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_EQ(after.slot_maps_built, before.slot_maps_built);
    EXPECT_EQ(
        acquireNttTables(params.n, params.plain_modulus)->slotIndex().data(),
        map);
    EXPECT_EQ(after.hits - before.hits,
              static_cast<std::uint64_t>(params.prime_count) + 2);
    EXPECT_EQ(acquireNttTables(params.n, params.plain_modulus)->modulus(),
              params.plain_modulus);
    EXPECT_EQ(nttTableCacheStats().misses, before.misses);
    EXPECT_EQ(second.encode({5, -5}).coeffs, first.encode({5, -5}).coeffs);
}

TEST(SealLiteTest, EncodeDecodeRoundTrip)
{
    std::vector<std::int64_t> values = {1, 2, 3, 42, 65536, 0, 9999};
    const Plaintext plain = scheme().encode(values);
    const std::vector<std::int64_t> decoded = scheme().decode(plain);
    ASSERT_EQ(decoded.size(), static_cast<std::size_t>(scheme().slots()));
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(decoded[i], values[i]) << i;
    }
    for (std::size_t i = values.size(); i < decoded.size(); ++i) {
        EXPECT_EQ(decoded[i], 0) << i;
    }
}

TEST(SealLiteTest, EncryptDecryptRoundTrip)
{
    std::vector<std::int64_t> values = {7, 0, 123, 65535, 1};
    const Ciphertext ct = scheme().encrypt(scheme().encode(values));
    const std::vector<std::int64_t> decrypted = scheme().decrypt(ct);
    for (std::size_t i = 0; i < values.size(); ++i) {
        EXPECT_EQ(decrypted[i], values[i]) << i;
    }
}

TEST(SealLiteTest, HomomorphicAddSubNegate)
{
    const std::vector<std::int64_t> a = {10, 20, 30};
    const std::vector<std::int64_t> b = {1, 2, 65530};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Ciphertext cb = scheme().encrypt(scheme().encode(b));

    const auto sum = scheme().decrypt(scheme().add(ca, cb));
    const auto diff = scheme().decrypt(scheme().sub(ca, cb));
    const auto negated = scheme().decrypt(scheme().negate(ca));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(sum[static_cast<std::size_t>(i)], tmod(a[static_cast<std::size_t>(i)] + b[static_cast<std::size_t>(i)]));
        EXPECT_EQ(diff[static_cast<std::size_t>(i)], tmod(a[static_cast<std::size_t>(i)] - b[static_cast<std::size_t>(i)]));
        EXPECT_EQ(negated[static_cast<std::size_t>(i)], tmod(-a[static_cast<std::size_t>(i)]));
    }
}

TEST(SealLiteTest, PlainOperations)
{
    const std::vector<std::int64_t> a = {5, 6, 7};
    const std::vector<std::int64_t> w = {2, 3, 4};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Plaintext pw = scheme().encode(w);

    const auto sum = scheme().decrypt(scheme().addPlain(ca, pw));
    const auto prod = scheme().decrypt(scheme().mulPlain(ca, pw));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(sum[static_cast<std::size_t>(i)],
                  tmod(a[static_cast<std::size_t>(i)] + w[static_cast<std::size_t>(i)]));
        EXPECT_EQ(prod[static_cast<std::size_t>(i)],
                  tmod(a[static_cast<std::size_t>(i)] * w[static_cast<std::size_t>(i)]));
    }
}

TEST(SealLiteTest, CiphertextMultiplyWithRelin)
{
    const std::vector<std::int64_t> a = {3, 1000, 65536};
    const std::vector<std::int64_t> b = {9, 7, 2};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Ciphertext cb = scheme().encrypt(scheme().encode(b));
    const auto prod = scheme().decrypt(scheme().multiply(ca, cb));
    for (int i = 0; i < 3; ++i) {
        EXPECT_EQ(prod[static_cast<std::size_t>(i)],
                  tmod(a[static_cast<std::size_t>(i)] * b[static_cast<std::size_t>(i)]));
    }
}

TEST(SealLiteTest, MultiplyDepthTwo)
{
    const std::vector<std::int64_t> a = {2, 3};
    const Ciphertext ca = scheme().encrypt(scheme().encode(a));
    const Ciphertext sq = scheme().multiply(ca, ca);
    const Ciphertext quad = scheme().multiply(sq, sq);
    const auto out = scheme().decrypt(quad);
    EXPECT_EQ(out[0], 16);
    EXPECT_EQ(out[1], 81);
}

TEST(SealLiteTest, RotationMatchesPaperConvention)
{
    SealLite& s = scheme();
    s.makeGaloisKeys({1, 2});
    std::vector<std::int64_t> values(static_cast<std::size_t>(s.slots()), 0);
    for (int i = 0; i < s.slots(); ++i) values[static_cast<std::size_t>(i)] = i + 1;
    const Ciphertext ct = s.encrypt(s.encode(values));

    // v << 1: slot i takes the value of slot i+1 (cyclic), §3.1.
    const auto rotated = s.decrypt(s.rotate(ct, 1));
    for (int i = 0; i < s.slots(); ++i) {
        EXPECT_EQ(rotated[static_cast<std::size_t>(i)],
                  values[static_cast<std::size_t>((i + 1) % s.slots())]);
    }
    const auto rotated2 = s.decrypt(s.rotate(ct, 2));
    EXPECT_EQ(rotated2[0], values[2]);
}

TEST(SealLiteTest, NegativeRotationIsRight)
{
    SealLite& s = scheme();
    s.makeGaloisKeys({-1});
    std::vector<std::int64_t> values = {10, 20, 30};
    const Ciphertext ct = s.encrypt(s.encode(values));
    const auto rotated = s.decrypt(s.rotate(ct, -1));
    // Right rotation: slot 1 receives slot 0.
    EXPECT_EQ(rotated[1], 10);
    EXPECT_EQ(rotated[2], 20);
}

TEST(SealLiteTest, GaloisKeyManagement)
{
    SealLite s(testParams());
    EXPECT_TRUE(s.hasGaloisKey(0)); // Identity needs no key.
    EXPECT_FALSE(s.hasGaloisKey(3));
    s.makeGaloisKeys({3, 3, 3});
    EXPECT_TRUE(s.hasGaloisKey(3));
    EXPECT_EQ(s.numGaloisKeys(), 1); // Deduplicated.

    // A second live instance shares the key from the registry, but
    // reports only the steps requested on it.
    SealLite other(testParams());
    EXPECT_FALSE(other.hasGaloisKey(3));
    EXPECT_EQ(other.numGaloisKeys(), 0);
    const KeyMaterialCacheStats before = keyMaterialCacheStats();
    other.makeGaloisKeys({3, -125}); // -125 ≡ 3 (mod 128 slots).
    const KeyMaterialCacheStats after = keyMaterialCacheStats();
    EXPECT_EQ(after.hits, before.hits + 1);
    EXPECT_EQ(after.misses, before.misses);
    EXPECT_TRUE(other.hasGaloisKey(3));
    EXPECT_EQ(other.numGaloisKeys(), 1);
}

/// Everything an instance's key material and randomness stream
/// determine: the fresh budget and a first encryption come from the
/// post-keygen stream, and the multiply/rotate outputs are linear in
/// the relin/Galois key entries, so equal outputs mean equal keys.
struct KeyFingerprint
{
    int fresh_budget = 0;
    Ciphertext fresh;
    Ciphertext product;
    std::vector<Ciphertext> rotated;
};

const std::vector<int> kFingerprintSteps = {1, 5, 64};

KeyFingerprint
fingerprintKeys(SealLite& s)
{
    KeyFingerprint fp;
    fp.fresh_budget = s.freshNoiseBudget();
    fp.fresh = s.encrypt(s.encode({3, 1, 4, 1, 5, 9, 2, 6}));
    fp.product = s.multiply(fp.fresh, fp.fresh);
    s.makeGaloisKeys(kFingerprintSteps);
    for (const int step : kFingerprintSteps) {
        fp.rotated.push_back(s.rotate(fp.product, step));
    }
    return fp;
}

void
expectSameCiphertext(const Ciphertext& a, const Ciphertext& b)
{
    EXPECT_EQ(a.c0.data, b.c0.data);
    EXPECT_EQ(a.c1.data, b.c1.data);
}

void
expectSameKeys(const KeyFingerprint& a, const KeyFingerprint& b)
{
    EXPECT_EQ(a.fresh_budget, b.fresh_budget);
    expectSameCiphertext(a.fresh, b.fresh);
    expectSameCiphertext(a.product, b.product);
    ASSERT_EQ(a.rotated.size(), b.rotated.size());
    for (std::size_t i = 0; i < a.rotated.size(); ++i) {
        expectSameCiphertext(a.rotated[i], b.rotated[i]);
    }
}

TEST(KeyMaterialRegistryTest, RegistryHitMatchesFreshMiss)
{
    SealLiteParams params = testParams();
    params.seed = 0x4e7; // No other test keeps an instance of these.
    const KeyMaterialCacheStats start = keyMaterialCacheStats();
    KeyFingerprint from_hit;
    {
        SealLite builder(params);
        builder.makeGaloisKeys(kFingerprintSteps);
        SealLite hit(params);
        const KeyMaterialCacheStats shared = keyMaterialCacheStats();
        EXPECT_EQ(shared.live_entries, start.live_entries + 1);
        EXPECT_EQ(shared.misses,
                  start.misses + 1 + kFingerprintSteps.size());
        EXPECT_EQ(shared.hits, start.hits + 1);
        from_hit = fingerprintKeys(hit); // Galois keys: all hits.
        EXPECT_EQ(keyMaterialCacheStats().misses, shared.misses);
    }
    // The entry died with its last instance: this one generates every
    // key again, from scratch.
    EXPECT_EQ(keyMaterialCacheStats().live_entries, start.live_entries);
    const KeyMaterialCacheStats before_miss = keyMaterialCacheStats();
    SealLite miss(params);
    const KeyFingerprint from_miss = fingerprintKeys(miss);
    EXPECT_EQ(keyMaterialCacheStats().misses,
              before_miss.misses + 1 + kFingerprintSteps.size());
    expectSameKeys(from_hit, from_miss);
    EXPECT_EQ(miss.decrypt(from_hit.product)[2], 16);
}

TEST(KeyMaterialRegistryTest, ConcurrentInstancesGenerateEachStepOnce)
{
    SealLiteParams params = testParams();
    params.seed = 0x4e8;
    constexpr int kThreads = 8;
    const std::vector<int> steps = {1, 2, 3, 5, 7, 11};
    const KeyMaterialCacheStats start = keyMaterialCacheStats();
    // Instances outlive every thread, so the entry stays live
    // throughout and no key is generated twice.
    std::vector<std::unique_ptr<SealLite>> instances(kThreads);
    std::vector<KeyFingerprint> prints(kThreads);
    std::atomic<bool> go{false};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            while (!go.load()) std::this_thread::yield();
            instances[static_cast<std::size_t>(i)] =
                std::make_unique<SealLite>(params);
            SealLite& s = *instances[static_cast<std::size_t>(i)];
            // Overlapping requests in a different order per thread.
            std::vector<int> mine;
            for (std::size_t k = 0; k < steps.size(); ++k) {
                mine.push_back(steps[(k + static_cast<std::size_t>(i)) %
                                     steps.size()]);
            }
            s.makeGaloisKeys(mine);
            prints[static_cast<std::size_t>(i)] = fingerprintKeys(s);
        });
    }
    go.store(true);
    for (std::thread& thread : threads) thread.join();

    const KeyMaterialCacheStats end = keyMaterialCacheStats();
    // One secret/relin build plus one key per distinct step (the
    // fingerprint's steps overlap `steps` in 1 and 5).
    const std::uint64_t distinct_steps = steps.size() + 1;
    EXPECT_EQ(end.misses - start.misses, 1 + distinct_steps);
    EXPECT_EQ(end.hits - start.hits,
              static_cast<std::uint64_t>(kThreads) *
                      (1 + steps.size() + kFingerprintSteps.size() - 2) -
                  (1 + distinct_steps));
    EXPECT_EQ(end.live_entries, start.live_entries + 1);
    for (int i = 1; i < kThreads; ++i) {
        SCOPED_TRACE(i);
        expectSameKeys(prints[0], prints[static_cast<std::size_t>(i)]);
    }
    instances.clear();
    EXPECT_EQ(keyMaterialCacheStats().live_entries, start.live_entries);
}

TEST(KeyMaterialRegistryTest, EntryLivesExactlyAsLongAsItsInstances)
{
    SealLiteParams params = testParams();
    params.seed = 0x4e9;
    SealLiteParams other = params;
    other.decomp_bits = 10; // Any field difference is another entry.
    const std::uint64_t live = keyMaterialCacheStats().live_entries;
    {
        auto first = std::make_unique<SealLite>(params);
        {
            const SealLite second(params);
            const SealLite third(other);
            EXPECT_EQ(keyMaterialCacheStats().live_entries, live + 2);
        }
        EXPECT_EQ(keyMaterialCacheStats().live_entries, live + 1);
        first.reset();
        EXPECT_EQ(keyMaterialCacheStats().live_entries, live);
    }
}

TEST(SealLiteTest, RotateAndAddComputesDotProductReduction)
{
    // The rotate-reduce ladder the TRS emits (log-depth partial sums).
    SealLite s(testParams());
    s.makeGaloisKeys({1, 2});
    const std::vector<std::int64_t> a = {1, 2, 3, 4};
    const std::vector<std::int64_t> b = {5, 6, 7, 8};
    Ciphertext v = s.multiply(s.encrypt(s.encode(a)),
                              s.encrypt(s.encode(b)));
    v = s.add(v, s.rotate(v, 2));
    v = s.add(v, s.rotate(v, 1));
    // Slot 0 = 1*5 + 2*6 + 3*7 + 4*8 = 70.
    EXPECT_EQ(s.decrypt(v)[0], 70);
}

// -- noise ----------------------------------------------------------------

TEST(SealLiteNoiseTest, FreshBudgetPositiveAndScalesWithQ)
{
    SealLite small(testParams());
    SealLiteParams bigger = testParams();
    bigger.prime_count = 6;
    SealLite big(bigger);
    EXPECT_GT(small.freshNoiseBudget(), 40);
    EXPECT_GT(big.freshNoiseBudget(), small.freshNoiseBudget() + 30);
}

TEST(SealLiteNoiseTest, AdditionConsumesLittle)
{
    SealLite s(testParams());
    const Ciphertext ct = s.encrypt(s.encode({1, 2, 3}));
    const int before = s.noiseBudgetBits(ct);
    const int after = s.noiseBudgetBits(s.add(ct, ct));
    EXPECT_GE(before, after);
    EXPECT_LE(before - after, 3);
}

TEST(SealLiteNoiseTest, MultiplicationConsumesMuchMore)
{
    SealLite s(testParams());
    const Ciphertext ct = s.encrypt(s.encode({5, 7}));
    const int before = s.noiseBudgetBits(ct);
    const int after_mul = s.noiseBudgetBits(s.multiply(ct, ct));
    const int after_add = s.noiseBudgetBits(s.add(ct, ct));
    EXPECT_GT(before - after_mul, 10);
    EXPECT_GT(before - after_mul, 3 * (before - after_add));
}

TEST(SealLiteNoiseTest, RotationConsumesModestBudget)
{
    SealLite s(testParams());
    s.makeGaloisKeys({1});
    const Ciphertext ct = s.encrypt(s.encode({1, 2, 3, 4}));
    const int before = s.noiseBudgetBits(ct);
    const int after = s.noiseBudgetBits(s.rotate(ct, 1));
    EXPECT_GE(before, after);
    // Key switching adds bounded noise, far below a multiplication.
    const int mul_cost =
        before - s.noiseBudgetBits(s.multiply(ct, ct));
    EXPECT_LT(before - after, mul_cost);
}

TEST(SealLiteNoiseTest, DecryptsAtEveryLevelAfterModSwitch)
{
    for (const int n : {256, 1024}) {
        SCOPED_TRACE(n);
        SealLiteParams params = testParams();
        params.n = n;
        params.prime_count = 5;
        SealLite s(params);
        Rng rng(static_cast<std::uint64_t>(n) + 7);
        std::vector<std::int64_t> values(static_cast<std::size_t>(s.slots()));
        for (auto& v : values) v = rng.uniformRange(0, 65536);
        for (int level = s.levels(); level >= 1; --level) {
            SCOPED_TRACE(level);
            Ciphertext ct = s.encrypt(s.encode(values));
            s.modSwitchTo(ct, level);
            EXPECT_EQ(s.level(ct), level);
            // One 30-bit prime sits below a switched ciphertext's noise
            // floor (the folded φ ≡ q_l (mod t) scales the rounding
            // term by up to t/2): its budget is 0 and decryption is not
            // guaranteed there, so the mod-switch pass never drops to
            // it. Every level with a positive budget must decrypt.
            const int budget = s.noiseBudgetBits(ct);
            if (level >= 2) {
                EXPECT_GT(budget, 0);
            }
            if (budget > 0) {
                EXPECT_EQ(s.decrypt(ct), values);
            }
        }
    }
}

TEST(SealLiteNoiseTest, DeepCircuitExhaustsBudget)
{
    SealLiteParams params = testParams();
    params.prime_count = 3;
    SealLite s(params);
    Ciphertext ct = s.encrypt(s.encode({2}));
    int budget = s.noiseBudgetBits(ct);
    int depth = 0;
    while (budget > 0 && depth < 12) {
        ct = s.multiply(ct, ct);
        budget = s.noiseBudgetBits(ct);
        ++depth;
    }
    // A small modulus must run out within a few squarings — the paper's
    // "Coyote exhausts the entire noise budget" scenario (§7.5).
    EXPECT_LE(depth, 8);
    EXPECT_LE(budget, 0);
}

} // namespace
} // namespace chehab::fhe
