/// \file
/// Pooled SealLite runtimes for the execute path.
///
/// An FheRuntime carries NTT/CRT precomputation and per-instance
/// scratch arenas, so the service keeps one RuntimePool per distinct
/// SealLiteParams and leases instances to executing workers. A leased
/// runtime is exclusively owned until the lease is released
/// (FheRuntime is not internally synchronized); the pool grows on
/// demand up to the service's worker concurrency and never shrinks.
///
/// Key material is not per instance: SealLite shares the secret, relin
/// key and Galois keys of one parameter set through a process-wide
/// registry (fhe::keyMaterialCacheStats), so every replica of a pool,
/// every shard's pool with the same params and any standalone runtime
/// hold one copy. Only the first live instance of a parameter set pays
/// secret/relin keygen, and each rotation step is generated once while
/// some instance of the set is alive.
///
/// Determinism contract: key material is a pure function of the params
/// (Galois keys of params seed + step), so it is bit-identical whether
/// an instance generated it or found it in the registry; a
/// constructor leaves the randomness stream in the same post-keygen
/// state either way; and runJob() reseeds the encryption randomness
/// from the run key before executing. A given run request therefore
/// produces bit-identical outputs *and noise accounting* no matter
/// which pooled instance serves it, in what order, or at what worker
/// count — sharing key material costs no reproducibility.
///
/// Thread-safety: acquire()/release() may be called from any thread.
#pragma once

#include <memory>
#include <mutex>
#include <vector>

#include "compiler/runtime.h"
#include "fhe/sealite.h"

namespace chehab::service {

class RuntimePool
{
  public:
    explicit RuntimePool(fhe::SealLiteParams params);

    /// Exclusive RAII lease of one runtime; returns it to the pool on
    /// destruction.
    class Lease
    {
      public:
        Lease(RuntimePool* pool,
              std::unique_ptr<compiler::FheRuntime> runtime)
            : pool_(pool), runtime_(std::move(runtime))
        {}

        ~Lease()
        {
            if (pool_ && runtime_) pool_->release(std::move(runtime_));
        }

        Lease(Lease&& other) noexcept
            : pool_(other.pool_), runtime_(std::move(other.runtime_))
        {
            other.pool_ = nullptr;
        }

        Lease(const Lease&) = delete;
        Lease& operator=(const Lease&) = delete;
        Lease& operator=(Lease&&) = delete;

        compiler::FheRuntime& runtime() { return *runtime_; }
        compiler::FheRuntime* operator->() { return runtime_.get(); }

      private:
        RuntimePool* pool_;
        std::unique_ptr<compiler::FheRuntime> runtime_;
    };

    /// Lease an idle runtime, constructing a fresh one (identical key
    /// material — see the determinism contract) when none is idle.
    Lease acquire();

    /// Total runtimes ever constructed by this pool.
    int created() const;

    /// Arena counters summed over every runtime this pool ever built —
    /// leased instances included (PolyArena is internally locked, so
    /// reading a leased runtime's counters mid-execution is safe; the
    /// snapshot is monotone, not exact).
    fhe::PolyArena::Stats arenaStats() const;

    const fhe::SealLiteParams& params() const { return params_; }

  private:
    friend class Lease;
    void release(std::unique_ptr<compiler::FheRuntime> runtime);

    /// Construct + deterministically warm up one runtime.
    std::unique_ptr<compiler::FheRuntime> createRuntime();

    const fhe::SealLiteParams params_;
    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<compiler::FheRuntime>> idle_;
    /// Every runtime ever constructed, for stats aggregation. Entries
    /// outlive the pool's idle list (runtimes cycle between idle_ and
    /// leases but are never destroyed), so the raw pointers stay valid
    /// for the pool's lifetime.
    std::vector<compiler::FheRuntime*> all_;
    int created_ = 0;
};

} // namespace chehab::service
