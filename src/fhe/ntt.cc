#include "fhe/ntt.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <utility>

#include "fhe/ntt_simd.h"
#include "support/error.h"

namespace chehab::fhe {

namespace {

/// Reverse the low \p bits bits of \p value.
std::uint32_t
reverseBits(std::uint32_t value, int bits)
{
    std::uint32_t result = 0;
    for (int i = 0; i < bits; ++i) {
        result = (result << 1) | ((value >> i) & 1);
    }
    return result;
}

bool
cpuHasAvx2()
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_cpu_supports("avx2") != 0;
#else
    return false;
#endif
}

/// -1 = unset (resolve to simdSupported()), else 0/1.
std::atomic<int> simd_enabled_override{-1};

} // namespace

bool
simdCompiledIn()
{
    return simd::avx2CompiledIn();
}

bool
simdSupported()
{
    static const bool supported = simdCompiledIn() && cpuHasAvx2();
    return supported;
}

void
setSimdEnabled(bool enabled)
{
    // Clamp to supported: forcing SIMD on a scalar build or non-AVX2
    // CPU must stay a no-op rather than dispatch into stubs.
    simd_enabled_override.store(enabled && simdSupported() ? 1 : 0,
                                std::memory_order_relaxed);
}

bool
simdEnabled()
{
    const int v = simd_enabled_override.load(std::memory_order_relaxed);
    return v < 0 ? simdSupported() : v != 0;
}

NttTables::NttTables(int n, std::uint64_t p)
    : n_(n), p_(p), barrett_(p)
{
    CHEHAB_ASSERT((n & (n - 1)) == 0, "n must be a power of two");
    CHEHAB_ASSERT((p - 1) % (2 * static_cast<std::uint64_t>(n)) == 0,
                  "p must be NTT-friendly");
    // The lazy butterflies keep values in [0, 4p) between stages.
    CHEHAB_ASSERT(p < (1ULL << 62), "lazy reduction needs 4p < 2^64");
    int log_n = 0;
    while ((1 << log_n) < n) ++log_n;

    const std::uint64_t psi =
        findPrimitiveRoot(2 * static_cast<std::uint64_t>(n), p);
    const std::uint64_t psi_inv = invMod(psi, p);

    root_powers_.resize(static_cast<std::size_t>(n));
    inv_root_powers_.resize(static_cast<std::size_t>(n));
    std::uint64_t power = 1;
    std::uint64_t inv_power = 1;
    std::vector<std::uint64_t> natural(static_cast<std::size_t>(n));
    std::vector<std::uint64_t> inv_natural(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        natural[static_cast<std::size_t>(i)] = power;
        inv_natural[static_cast<std::size_t>(i)] = inv_power;
        power = mulMod(power, psi, p);
        inv_power = mulMod(inv_power, psi_inv, p);
    }
    for (int i = 0; i < n; ++i) {
        const std::uint32_t rev =
            reverseBits(static_cast<std::uint32_t>(i), log_n);
        root_powers_[static_cast<std::size_t>(i)] = natural[rev];
        inv_root_powers_[static_cast<std::size_t>(i)] = inv_natural[rev];
    }
    inv_n_ = invMod(static_cast<std::uint64_t>(n), p);

    root_powers_shoup_.resize(static_cast<std::size_t>(n));
    inv_root_powers_shoup_.resize(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) {
        root_powers_shoup_[static_cast<std::size_t>(i)] =
            shoupPrecompute(root_powers_[static_cast<std::size_t>(i)], p);
        inv_root_powers_shoup_[static_cast<std::size_t>(i)] =
            shoupPrecompute(inv_root_powers_[static_cast<std::size_t>(i)],
                            p);
    }
    inv_n_shoup_ = shoupPrecompute(inv_n_, p);
    if (n > 1) {
        inv_n_w_ = mulMod(inv_n_, inv_root_powers_[1], p);
        inv_n_w_shoup_ = shoupPrecompute(inv_n_w_, p);
    }
}

void
NttTables::forward(std::uint64_t* values) const
{
    if (n_ >= 8 && simdEnabled()) {
        simd::forwardAvx2(values, n_, p_, root_powers_.data(),
                          root_powers_shoup_.data());
        return;
    }
    forwardScalar(values);
}

void
NttTables::inverse(std::uint64_t* values) const
{
    if (n_ >= 8 && simdEnabled()) {
        simd::inverseAvx2(values, n_, p_, inv_root_powers_.data(),
                          inv_root_powers_shoup_.data(), inv_n_,
                          inv_n_shoup_, inv_n_w_, inv_n_w_shoup_);
        return;
    }
    inverseScalar(values);
}

void
NttTables::forwardScalar(std::uint64_t* values) const
{
    if (n_ <= 1) return;
    const std::uint64_t p = p_;
    const std::uint64_t two_p = 2 * p;
    // Cooley-Tukey with Harvey lazy reduction: stage inputs are < 4p,
    // the u leg is conditionally reduced to [0, 2p), and the Shoup
    // multiply of the v leg lands in [0, 2p) for any 64-bit input, so
    // both outputs stay < 4p.
    std::size_t t = static_cast<std::size_t>(n_) >> 1;
    for (std::size_t m = 1; m < static_cast<std::size_t>(n_); m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = root_powers_[m + i];
            const std::uint64_t w_shoup = root_powers_shoup_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                std::uint64_t u = values[j];
                if (u >= two_p) u -= two_p;
                const std::uint64_t v =
                    mulModShoupLazy(values[j + t], w, w_shoup, p);
                values[j] = u + v;
                values[j + t] = u + two_p - v;
            }
        }
        t >>= 1;
    }
    // Single normalize pass back to [0, p).
    for (int i = 0; i < n_; ++i) {
        std::uint64_t x = values[i];
        if (x >= two_p) x -= two_p;
        if (x >= p) x -= p;
        values[i] = x;
    }
}

void
NttTables::inverseScalar(std::uint64_t* values) const
{
    if (n_ <= 1) return;
    const std::uint64_t p = p_;
    const std::uint64_t two_p = 2 * p;
    // Gentleman-Sande with lazy reduction: legs stay in [0, 2p)
    // (u + v conditionally reduced, u - v + 2p pushed through the Shoup
    // multiply).
    std::size_t t = 1;
    for (std::size_t m = static_cast<std::size_t>(n_) >> 1; m > 1;
         m >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = inv_root_powers_[m + i];
            const std::uint64_t w_shoup = inv_root_powers_shoup_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                const std::uint64_t u = values[j];
                const std::uint64_t v = values[j + t];
                std::uint64_t s = u + v;
                if (s >= two_p) s -= two_p;
                values[j] = s;
                values[j + t] =
                    mulModShoupLazy(u - v + two_p, w, w_shoup, p);
            }
        }
        t <<= 1;
    }
    // Final stage (m == 1) fused with the n^-1 scaling: the even leg
    // multiplies by inv_n, the odd leg by inv_n * w in one Shoup
    // multiply each, already fully reduced — no separate scaling pass.
    for (std::size_t j = 0; j < t; ++j) {
        const std::uint64_t u = values[j];
        const std::uint64_t v = values[j + t];
        values[j] = mulModShoup(u + v, inv_n_, inv_n_shoup_, p);
        values[j + t] =
            mulModShoup(u - v + two_p, inv_n_w_, inv_n_w_shoup_, p);
    }
}

void
NttTables::forwardBaseline(std::uint64_t* values) const
{
    // Cooley-Tukey, Harvey-style loop structure (SEAL's layout), one
    // 128-by-64 division per butterfly — the seed hot path.
    std::size_t t = static_cast<std::size_t>(n_) >> 1;
    for (std::size_t m = 1; m < static_cast<std::size_t>(n_); m <<= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = root_powers_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                const std::uint64_t u = values[j];
                const std::uint64_t v = mulMod(values[j + t], w, p_);
                values[j] = addMod(u, v, p_);
                values[j + t] = subMod(u, v, p_);
            }
        }
        t >>= 1;
    }
}

void
NttTables::inverseBaseline(std::uint64_t* values) const
{
    // Gentleman-Sande.
    std::size_t t = 1;
    for (std::size_t m = static_cast<std::size_t>(n_) >> 1; m >= 1; m >>= 1) {
        for (std::size_t i = 0; i < m; ++i) {
            const std::size_t j1 = 2 * i * t;
            const std::size_t j2 = j1 + t;
            const std::uint64_t w = inv_root_powers_[m + i];
            for (std::size_t j = j1; j < j2; ++j) {
                const std::uint64_t u = values[j];
                const std::uint64_t v = values[j + t];
                values[j] = addMod(u, v, p_);
                values[j + t] = mulMod(subMod(u, v, p_), w, p_);
            }
        }
        t <<= 1;
    }
    for (int i = 0; i < n_; ++i) {
        values[i] = mulMod(values[i], inv_n_, p_);
    }
}

namespace {

std::mutex&
tableCacheMutex()
{
    static std::mutex mutex;
    return mutex;
}

std::map<std::pair<int, std::uint64_t>,
         std::shared_ptr<const NttTables>>&
tableCache()
{
    static std::map<std::pair<int, std::uint64_t>,
                    std::shared_ptr<const NttTables>>
        cache;
    return cache;
}

NttTableCacheStats table_cache_stats;

} // namespace

std::shared_ptr<const NttTables>
acquireNttTables(int n, std::uint64_t p)
{
    const std::pair<int, std::uint64_t> key{n, p};
    std::unique_lock<std::mutex> lock(tableCacheMutex());
    auto it = tableCache().find(key);
    if (it != tableCache().end()) {
        ++table_cache_stats.hits;
        return it->second;
    }
    ++table_cache_stats.misses;
    auto tables = std::make_shared<const NttTables>(n, p);
    tableCache().emplace(key, tables);
    return tables;
}

const std::vector<std::uint32_t>&
NttTables::slotIndex() const
{
    std::call_once(slot_index_once_, [this] {
        if (n_ < 2) return;
        // Transforming the monomial x puts the evaluation point behind
        // each output index there; slot j's index is wherever
        // psi^(3^j mod 2n) landed.
        std::vector<std::uint64_t> x(static_cast<std::size_t>(n_), 0);
        x[1] = 1;
        forward(x.data());
        std::vector<std::pair<std::uint64_t, std::uint32_t>> point_index;
        point_index.reserve(x.size());
        for (std::size_t i = 0; i < x.size(); ++i) {
            point_index.emplace_back(x[i], static_cast<std::uint32_t>(i));
        }
        std::sort(point_index.begin(), point_index.end());
        // Slot 0's point is psi itself; psi^(3^(j+1)) is the cube of
        // psi^(3^j).
        std::uint64_t point =
            findPrimitiveRoot(2 * static_cast<std::uint64_t>(n_), p_);
        slot_index_.resize(static_cast<std::size_t>(n_ / 2));
        for (std::uint32_t& index : slot_index_) {
            const auto it = std::lower_bound(
                point_index.begin(), point_index.end(),
                std::make_pair(point, std::uint32_t{0}));
            CHEHAB_ASSERT(it != point_index.end() && it->first == point,
                          "slot point missing from the NTT outputs");
            index = it->second;
            point = mulMod(mulMod(point, point, p_), point, p_);
        }
        std::unique_lock<std::mutex> lock(tableCacheMutex());
        ++table_cache_stats.slot_maps_built;
    });
    return slot_index_;
}

NttTableCacheStats
nttTableCacheStats()
{
    std::unique_lock<std::mutex> lock(tableCacheMutex());
    return table_cache_stats;
}

} // namespace chehab::fhe
