#include "fhe/sealite.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <map>
#include <mutex>
#include <tuple>
#include <utility>

#include "fhe/modarith.h"
#include "support/error.h"

namespace chehab::fhe {

struct SealLite::KeyMaterial
{
    /// Guards the one-time build of the fields below and every access
    /// to `galois`; the rest is immutable once `built` is set.
    std::mutex mutex;
    bool built = false;
    RnsPoly secret_rns;
    NttForm secret_ntt; ///< Cached NTT form of s.
    KeySwitchKey relin;
    /// The randomness stream as keygen left it: a constructor that
    /// finds the keys built starts from here, exactly where one that
    /// built them would.
    Rng rng_after_keygen;
    std::unordered_map<int, std::shared_ptr<const KeySwitchKey>> galois;
};

namespace {

std::atomic<std::uint64_t> key_entries_live{0};
std::atomic<std::uint64_t> key_hits{0};
std::atomic<std::uint64_t> key_misses{0};

void
countKeyLookup(bool hit)
{
    (hit ? key_hits : key_misses).fetch_add(1, std::memory_order_relaxed);
}

} // namespace

KeyMaterialCacheStats
keyMaterialCacheStats()
{
    KeyMaterialCacheStats stats;
    stats.live_entries = key_entries_live.load(std::memory_order_relaxed);
    stats.hits = key_hits.load(std::memory_order_relaxed);
    stats.misses = key_misses.load(std::memory_order_relaxed);
    return stats;
}

std::shared_ptr<SealLite::KeyMaterial>
SealLite::acquireKeyMaterial(const SealLiteParams& params)
{
    // Keyed by every params field: any difference changes the keys.
    using Id = std::tuple<int, int, int, std::uint64_t, std::uint64_t,
                          int, int>;
    static std::mutex mutex;
    static std::map<Id, std::weak_ptr<KeyMaterial>> entries;
    const Id id{params.n,           params.prime_bits,
                params.prime_count, params.plain_modulus,
                params.seed,        params.error_stddev_x10,
                params.decomp_bits};
    std::lock_guard<std::mutex> lock(mutex);
    std::weak_ptr<KeyMaterial>& slot = entries[id];
    if (std::shared_ptr<KeyMaterial> live = slot.lock()) return live;
    // The last instance's release unregisters the entry, so untrusted
    // params cannot grow the registry past the live instances. A
    // successor may already occupy the slot by then; it is not expired
    // and stays.
    const auto release = [id](KeyMaterial* dead) {
        {
            std::lock_guard<std::mutex> unregister(mutex);
            const auto it = entries.find(id);
            if (it != entries.end() && it->second.expired()) {
                entries.erase(it);
            }
            key_entries_live.store(entries.size(), std::memory_order_relaxed);
        }
        delete dead;
    };
    std::shared_ptr<KeyMaterial> entry(new KeyMaterial, release);
    slot = entry;
    key_entries_live.store(entries.size(), std::memory_order_relaxed);
    return entry;
}

SealLite::SealLite(SealLiteParams params)
    : params_(params), rng_(params.seed)
{
    const auto n = static_cast<std::uint64_t>(params_.n);
    const std::uint64_t t = params_.plain_modulus;
    CHEHAB_ASSERT((params_.n & (params_.n - 1)) == 0,
                  "n must be a power of two");
    CHEHAB_ASSERT((t - 1) % (2 * n) == 0,
                  "t must be ≡ 1 (mod 2n) for batching");
    // Pointwise NTT products use single-word Barrett multiplies whose
    // 64-bit product bound needs p^2 < 2^64.
    CHEHAB_ASSERT(params_.prime_bits <= 31,
                  "chain primes must stay below 2^32");

    primes_ = findNttPrimes(params_.prime_bits, params_.prime_count, 2 * n);
    ntt_.reserve(primes_.size());
    for (std::uint64_t p : primes_) {
        ntt_.push_back(acquireNttTables(params_.n, p));
    }

    // Per-level CRT recomposition tables: level k uses the first k chain
    // primes (modulus switching walks down the chain one prime at a time).
    level_tables_.resize(primes_.size());
    for (std::size_t lvl = 1; lvl <= primes_.size(); ++lvl) {
        LevelTables& tab = level_tables_[lvl - 1];
        tab.q = BigInt(1);
        for (std::size_t i = 0; i < lvl; ++i) {
            tab.q = tab.q.multiplySmall(primes_[i]);
        }
        std::uint64_t rem = 0;
        tab.half_q = tab.q.divmodSmall(2, rem);
        tab.q.divmodSmall(t, tab.q_mod_t);
        for (std::size_t i = 0; i < lvl; ++i) {
            BigInt q_hat(1);
            for (std::size_t j = 0; j < lvl; ++j) {
                if (j != i) q_hat = q_hat.multiplySmall(primes_[j]);
            }
            // (q/q_i) mod q_i via divmod on the bignum.
            std::uint64_t q_hat_mod_qi = 0;
            q_hat.divmodSmall(primes_[i], q_hat_mod_qi);
            tab.q_hat_inv.push_back(invMod(q_hat_mod_qi, primes_[i]));
            tab.q_hat.push_back(std::move(q_hat));
        }
    }

    // Modulus-switch constants for dropping prime index l (level l+1
    // -> l): q_l^{-1} mod t for the δ construction, and per surviving
    // prime the rescale factor q_l^{-1} folded with the centered scalar
    // φ ≡ q_l (mod t) that restores the plaintext scaling (see header).
    inv_prime_mod_t_.assign(primes_.size(), 0);
    switch_factor_.resize(primes_.size());
    for (std::size_t l = 1; l < primes_.size(); ++l) {
        const std::uint64_t ql = primes_[l];
        const std::uint64_t ql_mod_t = ql % t;
        CHEHAB_ASSERT(ql_mod_t != 0, "chain prime divisible by t");
        inv_prime_mod_t_[l] = invMod(ql_mod_t, t);
        const bool phi_negative = ql_mod_t > t / 2;
        const std::uint64_t phi_abs = phi_negative ? t - ql_mod_t : ql_mod_t;
        auto& factors = switch_factor_[l];
        factors.resize(l);
        for (std::size_t i = 0; i < l; ++i) {
            const std::uint64_t qi = primes_[i];
            const std::uint64_t inv_ql = invMod(ql % qi, qi);
            std::uint64_t phi_mod = phi_abs % qi;
            if (phi_negative && phi_mod != 0) phi_mod = qi - phi_mod;
            factors[i] = mulMod(inv_ql, phi_mod, qi);
        }
    }

    // Batching codec mod t. Transforming the monomial x puts the
    // evaluation point behind each output index there; slot j of row 0
    // is the evaluation at zeta^(3^j mod 2n), so its index is wherever
    // that point landed. Reading the map off the tables keeps it
    // consistent with whatever output order they use.
    plain_ntt_ = acquireNttTables(params_.n, t);
    if (params_.n >= 2) {
        std::vector<std::uint64_t> x(static_cast<std::size_t>(n), 0);
        x[1] = 1;
        plain_ntt_->forward(x.data());
        std::vector<std::pair<std::uint64_t, std::uint32_t>> point_index;
        point_index.reserve(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            point_index.emplace_back(x[i], static_cast<std::uint32_t>(i));
        }
        std::sort(point_index.begin(), point_index.end());
        // Slot 0's point is zeta itself; zeta^(3^(j+1)) is the cube of
        // zeta^(3^j).
        std::uint64_t point = findPrimitiveRoot(2 * n, t);
        slot_index_.resize(static_cast<std::size_t>(slots()));
        for (std::uint32_t& index : slot_index_) {
            const auto it = std::lower_bound(
                point_index.begin(), point_index.end(),
                std::make_pair(point, std::uint32_t{0}));
            CHEHAB_ASSERT(it != point_index.end() && it->first == point,
                          "slot point missing from the NTT outputs");
            index = it->second;
            point = mulMod(mulMod(point, point, t), point, t);
        }
    }

    // Key material: built by the first live instance of these params,
    // shared by the rest.
    keys_ = acquireKeyMaterial(params_);
    std::lock_guard<std::mutex> lock(keys_->mutex);
    countKeyLookup(keys_->built);
    if (keys_->built) {
        rng_ = keys_->rng_after_keygen;
        return;
    }
    keys_->secret_rns = liftSmall(sampleTernary());
    keys_->secret_ntt = toNttForm(keys_->secret_rns);
    keys_->relin = makeKeySwitchKey(
        mulPoly(keys_->secret_rns, keys_->secret_rns));
    keys_->rng_after_keygen = rng_;
    keys_->built = true;
}

int
SealLite::coeffModulusBitsAt(int level) const
{
    CHEHAB_ASSERT(level >= 1 && level <= levels(), "bad chain level");
    return level_tables_[static_cast<std::size_t>(level) - 1].q.bitLength();
}

// ---------------------------------------------------------------------
// Sampling and RNS helpers.
// ---------------------------------------------------------------------

RnsPoly
SealLite::zeroPoly(int k) const
{
    // Arena-backed: steady-state evaluation recycles every dead poly,
    // so after a priming pass this is a freelist pop + memset, never a
    // heap allocation (the zero-allocs-per-op contract).
    RnsPoly poly;
    poly.k = k == 0 ? static_cast<int>(primes_.size()) : k;
    poly.n = params_.n;
    poly.data =
        arena_.acquireZeroed(static_cast<std::size_t>(poly.k) * poly.n);
    return poly;
}

RnsPoly
SealLite::clonePoly(const RnsPoly& a) const
{
    RnsPoly out;
    out.k = a.k;
    out.n = a.n;
    out.data = arena_.acquire(a.data.size());
    std::copy(a.data.begin(), a.data.end(), out.data.begin());
    return out;
}

RnsPoly
SealLite::uniformPoly()
{
    RnsPoly poly = zeroPoly();
    for (int i = 0; i < poly.k; ++i) {
        std::uint64_t* c = poly.component(i);
        for (int j = 0; j < poly.n; ++j) c[j] = rng_.uniformInt(primes_[static_cast<std::size_t>(i)]);
    }
    return poly;
}

RnsPoly
SealLite::liftSmall(const std::vector<int>& coeffs) const
{
    RnsPoly poly = zeroPoly();
    for (int i = 0; i < poly.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint64_t* c = poly.component(i);
        for (int j = 0; j < poly.n; ++j) {
            const int v = coeffs[static_cast<std::size_t>(j)];
            c[j] = v >= 0 ? static_cast<std::uint64_t>(v)
                          : p - static_cast<std::uint64_t>(-v);
        }
    }
    return poly;
}

std::vector<int>
SealLite::sampleTernary()
{
    std::vector<int> coeffs(static_cast<std::size_t>(params_.n));
    for (auto& c : coeffs) {
        c = static_cast<int>(rng_.uniformInt(3)) - 1;
    }
    return coeffs;
}

std::vector<int>
SealLite::sampleError()
{
    // Rounded gaussian with sigma = error_stddev_x10/10, clipped at 6σ.
    const double sigma = params_.error_stddev_x10 / 10.0;
    std::vector<int> coeffs(static_cast<std::size_t>(params_.n));
    for (auto& c : coeffs) {
        double draw = rng_.normal() * sigma;
        const double bound = 6.0 * sigma;
        if (draw > bound) draw = bound;
        if (draw < -bound) draw = -bound;
        c = static_cast<int>(std::lround(draw));
    }
    return coeffs;
}

void
SealLite::addInPlace(RnsPoly& a, const RnsPoly& b) const
{
    CHEHAB_ASSERT(a.k == b.k, "RNS add across mismatched levels");
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint64_t* x = a.component(i);
        const std::uint64_t* y = b.component(i);
        for (int j = 0; j < a.n; ++j) x[j] = addMod(x[j], y[j], p);
    }
}

void
SealLite::subInPlace(RnsPoly& a, const RnsPoly& b) const
{
    CHEHAB_ASSERT(a.k == b.k, "RNS sub across mismatched levels");
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint64_t* x = a.component(i);
        const std::uint64_t* y = b.component(i);
        for (int j = 0; j < a.n; ++j) x[j] = subMod(x[j], y[j], p);
    }
}

void
SealLite::negateInPlace(RnsPoly& a) const
{
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint64_t* x = a.component(i);
        for (int j = 0; j < a.n; ++j) x[j] = x[j] == 0 ? 0 : p - x[j];
    }
}

RnsPoly
SealLite::mulPoly(const RnsPoly& a, const RnsPoly& b) const
{
    CHEHAB_ASSERT(a.k == b.k, "RNS multiply across mismatched levels");
    RnsPoly result = zeroPoly(a.k);
    std::vector<std::uint64_t> fa =
        arena_.acquire(static_cast<std::size_t>(params_.n));
    std::vector<std::uint64_t> fb =
        arena_.acquire(static_cast<std::size_t>(params_.n));
    for (int i = 0; i < result.k; ++i) {
        const NttTables& tables = *ntt_[static_cast<std::size_t>(i)];
        const Barrett& reducer = tables.reducer();
        const std::uint64_t* x = a.component(i);
        const std::uint64_t* y = b.component(i);
        std::copy(x, x + params_.n, fa.begin());
        std::copy(y, y + params_.n, fb.begin());
        tables.forward(fa.data());
        tables.forward(fb.data());
        for (int j = 0; j < params_.n; ++j) {
            fa[static_cast<std::size_t>(j)] =
                reducer.mulMod(fa[static_cast<std::size_t>(j)],
                               fb[static_cast<std::size_t>(j)]);
        }
        tables.inverse(fa.data());
        std::copy(fa.begin(), fa.end(), result.component(i));
    }
    arena_.release(std::move(fa));
    arena_.release(std::move(fb));
    return result;
}

RnsPoly
SealLite::mulPolyNtt(const RnsPoly& a, const NttForm& b) const
{
    CHEHAB_ASSERT(b.n == a.n && b.k >= a.k,
                  "NTT form shorter than the operand level");
    RnsPoly result = zeroPoly(a.k);
    std::vector<std::uint64_t> fa =
        arena_.acquire(static_cast<std::size_t>(params_.n));
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        const NttTables& tables = *ntt_[static_cast<std::size_t>(i)];
        const std::uint64_t* x = a.component(i);
        std::copy(x, x + params_.n, fa.begin());
        tables.forward(fa.data());
        const std::uint64_t* w = b.component(i);
        const std::uint64_t* ws = b.shoupComponent(i);
        for (int j = 0; j < params_.n; ++j) {
            fa[static_cast<std::size_t>(j)] =
                mulModShoup(fa[static_cast<std::size_t>(j)],
                            w[static_cast<std::size_t>(j)],
                            ws[static_cast<std::size_t>(j)], p);
        }
        tables.inverse(fa.data());
        std::copy(fa.begin(), fa.end(), result.component(i));
    }
    arena_.release(std::move(fa));
    return result;
}

void
SealLite::mulPolyNttInPlace(RnsPoly& a, const NttForm& b) const
{
    CHEHAB_ASSERT(b.n == a.n && b.k >= a.k,
                  "NTT form shorter than the operand level");
    // Transforms run directly on a's components — no scratch at all.
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        const NttTables& tables = *ntt_[static_cast<std::size_t>(i)];
        std::uint64_t* x = a.component(i);
        tables.forward(x);
        const std::uint64_t* w = b.component(i);
        const std::uint64_t* ws = b.shoupComponent(i);
        for (int j = 0; j < params_.n; ++j) {
            x[j] = mulModShoup(x[j], w[static_cast<std::size_t>(j)],
                               ws[static_cast<std::size_t>(j)], p);
        }
        tables.inverse(x);
    }
}

NttForm
SealLite::toNttForm(const RnsPoly& a) const
{
    NttForm form;
    form.k = a.k;
    form.n = a.n;
    form.values = a.data;
    form.shoup.resize(form.values.size());
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint64_t* v = form.values.data() +
                           static_cast<std::size_t>(i) * form.n;
        ntt_[static_cast<std::size_t>(i)]->forward(v);
        std::uint64_t* s = form.shoup.data() +
                           static_cast<std::size_t>(i) * form.n;
        for (int j = 0; j < form.n; ++j) {
            s[j] = shoupPrecompute(v[j], p);
        }
    }
    return form;
}

RnsPoly
SealLite::applyAutomorphism(const RnsPoly& a,
                            std::uint64_t galois_element) const
{
    RnsPoly result = zeroPoly(a.k);
    const auto two_n = static_cast<std::uint64_t>(2 * params_.n);
    for (int i = 0; i < a.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        const std::uint64_t* x = a.component(i);
        std::uint64_t* y = result.component(i);
        for (int j = 0; j < params_.n; ++j) {
            const std::uint64_t raw =
                (static_cast<std::uint64_t>(j) * galois_element) % two_n;
            if (raw < static_cast<std::uint64_t>(params_.n)) {
                y[raw] = x[j];
            } else {
                const std::uint64_t idx = raw - params_.n;
                y[idx] = x[j] == 0 ? 0 : p - x[j];
            }
        }
    }
    return result;
}

RnsPoly
SealLite::liftPlain(const Plaintext& plain, int k) const
{
    RnsPoly poly = zeroPoly(k);
    for (int i = 0; i < poly.k; ++i) {
        const std::uint64_t p = primes_[static_cast<std::size_t>(i)];
        std::uint64_t* c = poly.component(i);
        for (int j = 0; j < poly.n; ++j) {
            c[j] = plain.coeffs[static_cast<std::size_t>(j)] % p;
        }
    }
    return poly;
}

std::shared_ptr<const NttForm>
SealLite::plainNttForm(const Plaintext& plain) const
{
    // FNV-1a over the coefficients; the full vector is stored alongside
    // the form and compared on hit, so a hash collision degrades to a
    // rebuild rather than a wrong product.
    std::uint64_t hash = 1469598103934665603ULL;
    for (std::uint64_t v : plain.coeffs) {
        hash ^= v;
        hash *= 1099511628211ULL;
    }
    {
        std::lock_guard<std::mutex> lock(plain_cache_mutex_);
        auto it = plain_ntt_cache_.find(hash);
        if (it != plain_ntt_cache_.end() &&
            it->second->coeffs == plain.coeffs) {
            return {it->second, &it->second->form};
        }
    }
    auto entry = std::make_shared<PlainCacheEntry>();
    entry->coeffs = plain.coeffs;
    entry->form = toNttForm(liftPlain(plain));
    std::lock_guard<std::mutex> lock(plain_cache_mutex_);
    if (plain_ntt_cache_.size() >= 256) plain_ntt_cache_.clear();
    plain_ntt_cache_[hash] = entry;
    return {entry, &entry->form};
}

void
SealLite::modSwitchPolyDown(RnsPoly& poly) const
{
    CHEHAB_ASSERT(poly.k >= 2, "cannot drop the last chain prime");
    const int l = poly.k - 1;
    const std::uint64_t ql = primes_[static_cast<std::size_t>(l)];
    const std::uint64_t t = params_.plain_modulus;
    const std::uint64_t inv_ql_t = inv_prime_mod_t_[static_cast<std::size_t>(l)];
    const auto& factors = switch_factor_[static_cast<std::size_t>(l)];
    const std::uint64_t* last = poly.component(l);
    const auto half_ql = static_cast<std::int64_t>(ql / 2);

    // δ per coefficient: δ ≡ c (mod q_l) and δ ≡ 0 (mod t), built as the
    // centered residue δ0 of c mod q_l plus q_l times the centered lift
    // of -δ0·q_l^{-1} mod t, so |δ| <= q_l(t+1)/2 (fits int64 for the
    // <= 46-bit products the parameter asserts allow). The signed values
    // ride in an arena buffer as two's-complement bit patterns so drops
    // stay allocation-free too.
    std::vector<std::uint64_t> delta_buf =
        arena_.acquire(static_cast<std::size_t>(poly.n));
    std::int64_t* delta =
        reinterpret_cast<std::int64_t*>(delta_buf.data());
    for (int x = 0; x < poly.n; ++x) {
        const auto r = static_cast<std::int64_t>(last[x]);
        const std::int64_t delta0 =
            r > half_ql ? r - static_cast<std::int64_t>(ql) : r;
        const std::uint64_t d0_mod_t =
            delta0 >= 0
                ? static_cast<std::uint64_t>(delta0) % t
                : (t - static_cast<std::uint64_t>(-delta0) % t) % t;
        const std::uint64_t u = mulMod((t - d0_mod_t) % t, inv_ql_t, t);
        const std::int64_t uc =
            u > t / 2 ? static_cast<std::int64_t>(u - t)
                      : static_cast<std::int64_t>(u);
        delta[static_cast<std::size_t>(x)] =
            delta0 + static_cast<std::int64_t>(ql) * uc;
    }

    // Surviving components: c' = (c - δ) * q_l^{-1} * φ mod q_i with the
    // two scalars folded into one precomputed factor.
    for (int i = 0; i < l; ++i) {
        const std::uint64_t qi = primes_[static_cast<std::size_t>(i)];
        const std::uint64_t factor = factors[static_cast<std::size_t>(i)];
        std::uint64_t* c = poly.component(i);
        for (int x = 0; x < poly.n; ++x) {
            const std::int64_t d = delta[static_cast<std::size_t>(x)];
            const std::uint64_t d_mod =
                d >= 0 ? static_cast<std::uint64_t>(d) % qi
                       : (qi - static_cast<std::uint64_t>(-d) % qi) % qi;
            c[x] = mulMod(subMod(c[x], d_mod, qi), factor, qi);
        }
    }
    arena_.release(std::move(delta_buf));
    poly.k = l;
    poly.data.resize(static_cast<std::size_t>(l) * poly.n);
}

void
SealLite::modSwitchTo(Ciphertext& ct, int level) const
{
    CHEHAB_ASSERT(level >= 1 && level <= ct.c0.k,
                  "mod switch target outside the remaining chain");
    while (ct.c0.k > level) {
        modSwitchPolyDown(ct.c0);
        modSwitchPolyDown(ct.c1);
    }
}

// ---------------------------------------------------------------------
// Batching.
// ---------------------------------------------------------------------

Plaintext
SealLite::encode(const std::vector<std::int64_t>& values) const
{
    CHEHAB_ASSERT(static_cast<int>(values.size()) <= slots(),
                  "too many values for the batching row");
    const std::uint64_t t = params_.plain_modulus;
    // Row-0 slot values at their transform indices, row 1 zero; the
    // inverse NTT interpolates the coefficients.
    Plaintext plain;
    plain.coeffs.assign(static_cast<std::size_t>(params_.n), 0);
    for (std::size_t j = 0; j < values.size(); ++j) {
        const std::int64_t v = values[j] % static_cast<std::int64_t>(t);
        plain.coeffs[slot_index_[j]] =
            v >= 0 ? static_cast<std::uint64_t>(v)
                   : t - static_cast<std::uint64_t>(-v);
    }
    plain_ntt_->inverse(plain.coeffs.data());
    return plain;
}

std::vector<std::int64_t>
SealLite::decode(const Plaintext& plain) const
{
    CHEHAB_ASSERT(static_cast<int>(plain.coeffs.size()) == params_.n,
                  "plaintext degree does not match the parameters");
    std::vector<std::uint64_t> points = plain.coeffs;
    plain_ntt_->forward(points.data());
    std::vector<std::int64_t> values(slot_index_.size());
    for (std::size_t j = 0; j < slot_index_.size(); ++j) {
        values[j] = static_cast<std::int64_t>(points[slot_index_[j]]);
    }
    return values;
}

Plaintext
SealLite::encodeLanes(const std::vector<std::vector<std::int64_t>>& lanes,
                      int lane_stride) const
{
    CHEHAB_ASSERT(lane_stride > 0, "lane stride must be positive");
    CHEHAB_ASSERT(static_cast<int>(lanes.size()) * lane_stride <= slots(),
                  "lanes exceed the batching row");
    std::vector<std::int64_t> row(
        static_cast<std::size_t>(lanes.size()) *
            static_cast<std::size_t>(lane_stride),
        0);
    for (std::size_t l = 0; l < lanes.size(); ++l) {
        CHEHAB_ASSERT(static_cast<int>(lanes[l].size()) <= lane_stride,
                      "lane wider than its stride");
        std::copy(lanes[l].begin(), lanes[l].end(),
                  row.begin() + static_cast<std::ptrdiff_t>(
                                    l * static_cast<std::size_t>(lane_stride)));
    }
    return encode(row);
}

std::vector<std::vector<std::int64_t>>
SealLite::decodeLanes(const Plaintext& plain, int lane_stride, int width,
                      int num_lanes, int first_lane) const
{
    CHEHAB_ASSERT(lane_stride > 0 && width >= 0 && width <= lane_stride,
                  "bad lane slice");
    CHEHAB_ASSERT(first_lane >= 0 && num_lanes >= 0 &&
                      (first_lane + num_lanes) * lane_stride <= slots(),
                  "lanes exceed the batching row");
    const std::vector<std::int64_t> row = decode(plain);
    std::vector<std::vector<std::int64_t>> out(
        static_cast<std::size_t>(num_lanes));
    for (int l = 0; l < num_lanes; ++l) {
        const auto base = static_cast<std::size_t>(first_lane + l) *
                          static_cast<std::size_t>(lane_stride);
        out[static_cast<std::size_t>(l)].assign(
            row.begin() + static_cast<std::ptrdiff_t>(base),
            row.begin() + static_cast<std::ptrdiff_t>(
                              base + static_cast<std::size_t>(width)));
    }
    return out;
}

std::vector<std::vector<std::int64_t>>
SealLite::decryptLanes(const Ciphertext& ct, int lane_stride, int width,
                       int num_lanes, int first_lane) const
{
    return decodeLanes(decryptPlain(ct), lane_stride, width, num_lanes,
                       first_lane);
}

// ---------------------------------------------------------------------
// Encryption / decryption.
// ---------------------------------------------------------------------

Ciphertext
SealLite::encrypt(const Plaintext& plain)
{
    Ciphertext ct;
    ct.c1 = uniformPoly();
    // c0 = -(a*s) + t*e + m.
    ct.c0 = mulPolyNtt(ct.c1, keys_->secret_ntt);
    negateInPlace(ct.c0);
    std::vector<int> error = sampleError();
    const auto t = static_cast<int>(params_.plain_modulus);
    for (auto& e : error) e *= t;
    RnsPoly error_rns = liftSmall(error);
    addInPlace(ct.c0, error_rns);
    recycle(std::move(error_rns));
    RnsPoly plain_rns = liftPlain(plain);
    addInPlace(ct.c0, plain_rns);
    recycle(std::move(plain_rns));
    return ct;
}

BigInt
SealLite::recomposeCoeff(const RnsPoly& poly, int index) const
{
    const LevelTables& tab =
        level_tables_[static_cast<std::size_t>(poly.k) - 1];
    BigInt value;
    for (int i = 0; i < poly.k; ++i) {
        const std::uint64_t scaled =
            mulMod(poly.component(i)[index],
                   tab.q_hat_inv[static_cast<std::size_t>(i)],
                   primes_[static_cast<std::size_t>(i)]);
        value = value.add(
            tab.q_hat[static_cast<std::size_t>(i)].multiplySmall(scaled));
    }
    return value.reduceBySubtraction(tab.q);
}

Plaintext
SealLite::decryptPlain(const Ciphertext& ct) const
{
    // v = c0 + c1*s mod q; m = (centered v) mod t. q here is the
    // ciphertext's *current* chain product — decryption works at every
    // level.
    RnsPoly v = mulPolyNtt(ct.c1, keys_->secret_ntt);
    addInPlace(v, ct.c0);

    const std::uint64_t t = params_.plain_modulus;
    const LevelTables& tab =
        level_tables_[static_cast<std::size_t>(v.k) - 1];

    Plaintext plain;
    plain.coeffs.assign(static_cast<std::size_t>(params_.n), 0);
    for (int j = 0; j < params_.n; ++j) {
        const BigInt value = recomposeCoeff(v, j);
        std::uint64_t value_mod_t = 0;
        value.divmodSmall(t, value_mod_t);
        if (value.compare(tab.half_q) > 0) {
            // True integer is value - q (negative lift).
            value_mod_t = subMod(value_mod_t, tab.q_mod_t, t);
        }
        plain.coeffs[static_cast<std::size_t>(j)] = value_mod_t;
    }
    recycle(std::move(v));
    return plain;
}

std::vector<std::int64_t>
SealLite::decrypt(const Ciphertext& ct) const
{
    return decode(decryptPlain(ct));
}

// ---------------------------------------------------------------------
// Evaluator.
// ---------------------------------------------------------------------

Ciphertext
SealLite::clone(const Ciphertext& a) const
{
    Ciphertext out;
    out.c0 = clonePoly(a.c0);
    out.c1 = clonePoly(a.c1);
    return out;
}

void
SealLite::recycle(RnsPoly&& poly) const
{
    arena_.release(std::move(poly.data));
    poly.k = 0;
}

void
SealLite::recycle(Ciphertext&& ct) const
{
    recycle(std::move(ct.c0));
    recycle(std::move(ct.c1));
}

void
SealLite::addInPlace(Ciphertext& a, const Ciphertext& b) const
{
    addInPlace(a.c0, b.c0);
    addInPlace(a.c1, b.c1);
}

void
SealLite::subInPlace(Ciphertext& a, const Ciphertext& b) const
{
    subInPlace(a.c0, b.c0);
    subInPlace(a.c1, b.c1);
}

void
SealLite::negateInPlace(Ciphertext& a) const
{
    negateInPlace(a.c0);
    negateInPlace(a.c1);
}

void
SealLite::addPlainInPlace(Ciphertext& a, const Plaintext& plain) const
{
    RnsPoly lifted = liftPlain(plain, a.c0.k);
    addInPlace(a.c0, lifted);
    recycle(std::move(lifted));
}

void
SealLite::mulPlainInPlace(Ciphertext& a, const Plaintext& plain) const
{
    const std::shared_ptr<const NttForm> form = plainNttForm(plain);
    mulPolyNttInPlace(a.c0, *form);
    mulPolyNttInPlace(a.c1, *form);
}

Ciphertext
SealLite::add(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = clone(a);
    addInPlace(out, b);
    return out;
}

Ciphertext
SealLite::sub(const Ciphertext& a, const Ciphertext& b) const
{
    Ciphertext out = clone(a);
    subInPlace(out, b);
    return out;
}

Ciphertext
SealLite::negate(const Ciphertext& a) const
{
    Ciphertext out = clone(a);
    negateInPlace(out);
    return out;
}

Ciphertext
SealLite::addPlain(const Ciphertext& a, const Plaintext& plain) const
{
    Ciphertext out = clone(a);
    addPlainInPlace(out, plain);
    return out;
}

Ciphertext
SealLite::mulPlain(const Ciphertext& a, const Plaintext& plain) const
{
    // Packed executions re-multiply the same masks on every run of a
    // cached program; the cached NTT form turns each mulPlain into one
    // forward + pointwise Shoup + one inverse per component.
    const std::shared_ptr<const NttForm> form = plainNttForm(plain);
    Ciphertext out;
    out.c0 = mulPolyNtt(a.c0, *form);
    out.c1 = mulPolyNtt(a.c1, *form);
    return out;
}

int
SealLite::digitsPerPrime() const
{
    return (params_.prime_bits + params_.decomp_bits - 1) /
           params_.decomp_bits;
}

SealLite::KeySwitchKey
SealLite::makeKeySwitchKey(const RnsPoly& target)
{
    KeySwitchKey key;
    const int k = static_cast<int>(primes_.size());
    const int digits = digitsPerPrime();
    const auto t = static_cast<int>(params_.plain_modulus);
    for (int i = 0; i < k; ++i) {
        const std::uint64_t p_i = primes_[static_cast<std::size_t>(i)];
        for (int d = 0; d < digits; ++d) {
            RnsPoly a_id = uniformPoly();
            RnsPoly b_id = mulPolyNtt(a_id, keys_->secret_ntt);
            negateInPlace(b_id);
            std::vector<int> error = sampleError();
            for (auto& e : error) e *= t;
            addInPlace(b_id, liftSmall(error));
            // + T_i * B^d * target: the CRT basis vector T_i is 1 mod q_i
            // and 0 mod q_j, so in RNS this touches component i alone.
            const std::uint64_t base_power = powMod(
                1ULL << params_.decomp_bits,
                static_cast<std::uint64_t>(d), p_i);
            std::uint64_t* dst = b_id.component(i);
            const std::uint64_t* src = target.component(i);
            for (int j = 0; j < params_.n; ++j) {
                dst[j] = addMod(dst[j], mulMod(src[j], base_power, p_i),
                                p_i);
            }
            key.a.push_back(toNttForm(a_id));
            key.b.push_back(toNttForm(b_id));
        }
    }
    return key;
}

void
SealLite::keySwitch(const RnsPoly& poly, const KeySwitchKey& key,
                    RnsPoly& delta_c0, RnsPoly& delta_c1) const
{
    // Operates at poly's level: residues i >= poly.k no longer exist,
    // and for the surviving primes the first poly.k components of the
    // full-level key entries are exactly the level-poly.k key (the CRT
    // basis T_i reduces correctly mod every surviving prime).
    const int k = poly.k;
    const int digits = digitsPerPrime();
    const std::uint64_t mask = (1ULL << params_.decomp_bits) - 1;
    const int n = params_.n;
    std::vector<std::uint64_t> digit =
        arena_.acquire(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> transformed =
        arena_.acquire(static_cast<std::size_t>(n));
    // NTT-domain accumulators: pointwise products are summed (fully
    // reduced) across every (prime, digit) pair, and each prime pays for
    // ONE inverse transform per output component at the end — the
    // inverse NTT is exactly linear mod p, so this is bit-identical to
    // the seed's inverse-per-digit path while doing k inverses instead
    // of k * digits * k.
    std::vector<std::uint64_t> acc0 =
        arena_.acquireZeroed(static_cast<std::size_t>(k) * n);
    std::vector<std::uint64_t> acc1 =
        arena_.acquireZeroed(static_cast<std::size_t>(k) * n);
    bool any_digit = false;
    for (int i = 0; i < k; ++i) {
        const std::uint64_t* residues = poly.component(i);
        for (int d = 0; d < digits; ++d) {
            // Base-2^w digit of the i-th residue polynomial; digit values
            // are < 2^w < every prime, so the RNS lift is a plain copy
            // shared across components.
            const int shift = d * params_.decomp_bits;
            std::uint64_t* dg = digit.data();
            bool nonzero = false;
            for (int x = 0; x < n; ++x) {
                const std::uint64_t v = (residues[x] >> shift) & mask;
                dg[x] = v;
                nonzero = nonzero || v != 0;
            }
            if (!nonzero) continue;
            any_digit = true;
            const std::size_t idx =
                static_cast<std::size_t>(i) * digits + d;
            const NttForm& key_b = key.b[idx];
            const NttForm& key_a = key.a[idx];
            // One forward transform of the digit per prime serves both
            // key components (the seed path re-transformed it for each).
            for (int j = 0; j < k; ++j) {
                const std::uint64_t p = primes_[static_cast<std::size_t>(j)];
                const NttTables& tables = *ntt_[static_cast<std::size_t>(j)];
                std::copy(digit.begin(), digit.end(), transformed.begin());
                tables.forward(transformed.data());
                const std::uint64_t* tx = transformed.data();
                const std::uint64_t* bw = key_b.component(j);
                const std::uint64_t* bs = key_b.shoupComponent(j);
                const std::uint64_t* aw = key_a.component(j);
                const std::uint64_t* as = key_a.shoupComponent(j);
                std::uint64_t* a0 =
                    acc0.data() + static_cast<std::size_t>(j) * n;
                std::uint64_t* a1 =
                    acc1.data() + static_cast<std::size_t>(j) * n;
                for (int x = 0; x < n; ++x) {
                    a0[x] = addMod(
                        a0[x], mulModShoup(tx[x], bw[x], bs[x], p), p);
                    a1[x] = addMod(
                        a1[x], mulModShoup(tx[x], aw[x], as[x], p), p);
                }
            }
        }
    }
    if (any_digit) {
        for (int j = 0; j < k; ++j) {
            const std::uint64_t p = primes_[static_cast<std::size_t>(j)];
            const NttTables& tables = *ntt_[static_cast<std::size_t>(j)];
            std::uint64_t* a0 =
                acc0.data() + static_cast<std::size_t>(j) * n;
            std::uint64_t* a1 =
                acc1.data() + static_cast<std::size_t>(j) * n;
            tables.inverse(a0);
            tables.inverse(a1);
            std::uint64_t* dst0 = delta_c0.component(j);
            std::uint64_t* dst1 = delta_c1.component(j);
            for (int x = 0; x < n; ++x) {
                dst0[x] = addMod(dst0[x], a0[x], p);
                dst1[x] = addMod(dst1[x], a1[x], p);
            }
        }
    }
    arena_.release(std::move(digit));
    arena_.release(std::move(transformed));
    arena_.release(std::move(acc0));
    arena_.release(std::move(acc1));
}

Ciphertext
SealLite::multiply(const Ciphertext& a, const Ciphertext& b) const
{
    // Tensor product (degree 2), then relinearize with the RNS key.
    RnsPoly e0 = mulPoly(a.c0, b.c0);
    RnsPoly e1 = mulPoly(a.c0, b.c1);
    RnsPoly cross = mulPoly(a.c1, b.c0);
    addInPlace(e1, cross);
    recycle(std::move(cross));
    RnsPoly e2 = mulPoly(a.c1, b.c1);

    Ciphertext out;
    out.c0 = std::move(e0);
    out.c1 = std::move(e1);
    keySwitch(e2, keys_->relin, out.c0, out.c1);
    recycle(std::move(e2));
    return out;
}

std::uint64_t
SealLite::galoisElement(int step) const
{
    const int half = params_.n / 2;
    const int normalized = ((step % half) + half) % half;
    return powMod(3, static_cast<std::uint64_t>(normalized),
                  static_cast<std::uint64_t>(2 * params_.n));
}

void
SealLite::makeGaloisKeys(const std::vector<int>& steps)
{
    for (int step : steps) {
        const int half = params_.n / 2;
        const int normalized = ((step % half) + half) % half;
        if (normalized == 0 || galois_keys_.count(normalized)) continue;
        const std::uint64_t g = galoisElement(normalized);
        galois_elements_[normalized] = g;
        std::lock_guard<std::mutex> lock(keys_->mutex);
        std::shared_ptr<const KeySwitchKey>& shared =
            keys_->galois[normalized];
        countKeyLookup(shared != nullptr);
        if (!shared) {
            // Key randomness is a pure function of (params seed, step):
            // park the main stream, generate from a step-derived seed,
            // restore. This keeps a key for step s bit-identical across
            // schemes and generation orders (see the header contract).
            const Rng saved = rng_;
            rng_.reseed(params_.seed ^
                        (0x9e3779b97f4a7c15ULL *
                         static_cast<std::uint64_t>(normalized + 1)));
            shared = std::make_shared<const KeySwitchKey>(makeKeySwitchKey(
                applyAutomorphism(keys_->secret_rns, g)));
            rng_ = saved;
        }
        galois_keys_.emplace(normalized, shared);
    }
}

bool
SealLite::hasGaloisKey(int step) const
{
    const int half = params_.n / 2;
    const int normalized = ((step % half) + half) % half;
    return normalized == 0 || galois_keys_.count(normalized) > 0;
}

Ciphertext
SealLite::rotate(const Ciphertext& a, int step) const
{
    const int half = params_.n / 2;
    const int normalized = ((step % half) + half) % half;
    if (normalized == 0) return clone(a);
    auto key_it = galois_keys_.find(normalized);
    CHEHAB_ASSERT(key_it != galois_keys_.end(),
                  "missing Galois key for rotation step");
    const std::uint64_t g = galois_elements_.at(normalized);

    Ciphertext out;
    out.c0 = applyAutomorphism(a.c0, g);
    out.c1 = zeroPoly(a.c0.k);
    RnsPoly rotated_c1 = applyAutomorphism(a.c1, g);
    keySwitch(rotated_c1, *key_it->second, out.c0, out.c1);
    recycle(std::move(rotated_c1));
    return out;
}

// ---------------------------------------------------------------------
// Noise measurement.
// ---------------------------------------------------------------------

int
SealLite::noiseBudgetBits(const Ciphertext& ct) const
{
    RnsPoly v = mulPolyNtt(ct.c1, keys_->secret_ntt);
    addInPlace(v, ct.c0);
    const LevelTables& tab =
        level_tables_[static_cast<std::size_t>(v.k) - 1];

    BigInt max_magnitude;
    for (int j = 0; j < params_.n; ++j) {
        const BigInt value = recomposeCoeff(v, j);
        const BigInt complement = tab.q.subtract(value);
        const BigInt magnitude =
            value.compare(complement) <= 0 ? value : complement;
        if (magnitude.compare(max_magnitude) > 0) max_magnitude = magnitude;
    }
    recycle(std::move(v));
    const int budget = (tab.q.bitLength() - 1) - max_magnitude.bitLength();
    return budget;
}

int
SealLite::freshNoiseBudget()
{
    if (fresh_budget_ < 0) {
        Plaintext zero;
        zero.coeffs.assign(static_cast<std::size_t>(params_.n), 0);
        fresh_budget_ = noiseBudgetBits(encrypt(zero));
    }
    return fresh_budget_;
}

} // namespace chehab::fhe
