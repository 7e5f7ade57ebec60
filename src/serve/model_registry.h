// Multi-tenant model registry: many fitted checkpoints behind one daemon.
//
// Each tenant key maps to a checkpoint path plus (when resident) a live
// ValidationService. The registry bounds how many services are resident at
// once (LRU over last-acquire order), loads checkpoints lazily on first
// use, and hot-swaps re-deployed models atomically:
//
//   * Lazy load: Deploy() only records the path; the expensive checkpoint
//     load happens on the first Acquire(), serialized per tenant so a
//     thundering herd performs exactly one load (the rest wait and share).
//   * LRU residency: loading past `max_resident` evicts the
//     least-recently-acquired tenant's service. Eviction only drops the
//     registry's reference — requests still holding the shared_ptr finish
//     on the old instance; memory is reclaimed when the last one retires.
//   * Hot swap: re-deploying a resident tenant loads the NEW checkpoint
//     first, then swaps the pointer under the registry lock. There is no
//     window where the tenant has no model, so no request is ever dropped;
//     a failed load leaves the old model serving.
//   * Admission control: Admit() hands out a bounded per-tenant ticket
//     (RAII release). When the tenant's in-flight budget is spent it
//     returns ResourceExhausted — the daemon's graceful-overload response.
//
// All entry points are thread-safe; per-tenant serving counters are
// lock-free (serve/serving_stats.h).

#ifndef DQUAG_SERVE_MODEL_REGISTRY_H_
#define DQUAG_SERVE_MODEL_REGISTRY_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/validation_service.h"
#include "serve/serving_stats.h"

namespace dquag {

/// Accepted and ignored: every tenant serves the float engine. The
/// perfbench harness still deploys with it; it goes with ROADMAP item 11.
struct DeployOptions {
  bool quantized = false;
};

struct ModelRegistryOptions {
  /// Resident-set bound: services loaded at once across all tenants.
  int64_t max_resident = 4;
  /// Per-tenant in-flight request budget for Admit().
  int64_t max_inflight_per_tenant = 32;
  /// Options for the ValidationServices the registry constructs.
  ValidationServiceOptions service;
};

class ModelRegistry {
 public:
  explicit ModelRegistry(ModelRegistryOptions options = {});

  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Registers (or re-deploys) `tenant` -> `checkpoint_path`. For a tenant
  /// that is not resident this is O(1) bookkeeping: the load is deferred to
  /// the first Acquire. For a resident tenant the new checkpoint is loaded
  /// here and swapped in atomically; on load failure the old model keeps
  /// serving and the error is returned.
  Status Deploy(const std::string& tenant,
                const std::string& checkpoint_path);

  /// The two-argument Deploy; `deploy` is ignored (see DeployOptions).
  Status Deploy(const std::string& tenant, const std::string& checkpoint_path,
                const DeployOptions& deploy);

  /// Returns the tenant's live service, lazily loading it (and evicting
  /// the LRU resident if over budget). The returned shared_ptr keeps the
  /// service alive across eviction and hot-swap; callers should hold it
  /// only for the duration of one request.
  StatusOr<std::shared_ptr<const ValidationService>> Acquire(
      const std::string& tenant);

  /// RAII admission ticket; destroying it releases the slot.
  class AdmitTicket {
   public:
    AdmitTicket() = default;
    AdmitTicket(AdmitTicket&& other) noexcept
        : slot_(other.slot_) {
      other.slot_ = nullptr;
    }
    AdmitTicket& operator=(AdmitTicket&& other) noexcept {
      Release();
      slot_ = other.slot_;
      other.slot_ = nullptr;
      return *this;
    }
    AdmitTicket(const AdmitTicket&) = delete;
    AdmitTicket& operator=(const AdmitTicket&) = delete;
    ~AdmitTicket() { Release(); }

    bool admitted() const { return slot_ != nullptr; }

   private:
    friend class ModelRegistry;
    explicit AdmitTicket(std::atomic<int64_t>* slot) : slot_(slot) {}
    void Release() {
      if (slot_ != nullptr) {
        slot_->fetch_sub(1, std::memory_order_relaxed);
        slot_ = nullptr;
      }
    }
    std::atomic<int64_t>* slot_ = nullptr;
  };

  /// Bounded admission: ResourceExhausted when the tenant's in-flight
  /// budget is full (the caller should answer "overloaded", not queue),
  /// NotFound for unknown tenants.
  StatusOr<AdmitTicket> Admit(const std::string& tenant);

  /// The tenant's lock-free serving counters (NotFound if unknown). The
  /// pointer stays valid for the registry's lifetime — entries are never
  /// destroyed, only made non-resident.
  StatusOr<TenantCounters*> counters(const std::string& tenant);

  /// The checkpoint path currently deployed for `tenant` (NotFound if
  /// unknown). The retrain loop seeds its fine-tune from this.
  StatusOr<std::string> DeployedPath(const std::string& tenant) const;

  /// Snapshot of every tenant's stats, sorted by tenant key. Resident
  /// entries also report their service's live monitor state (rows folded,
  /// drifting-column count, alarm).
  std::vector<TenantStatsSnapshot> StatsSnapshot() const;

  /// Tenant keys, sorted.
  std::vector<std::string> Tenants() const;

  /// Number of tenants whose service is currently loaded.
  int64_t resident_count() const;

  /// Times `tenant`'s checkpoint has been (re)loaded from disk; 0 for
  /// unknown tenants. Exposed for eviction/lazy-load tests.
  int64_t load_count(const std::string& tenant) const;

  const ModelRegistryOptions& options() const { return options_; }

 private:
  struct Entry {
    std::string path;       // guarded by ModelRegistry::mutex_
    uint64_t deploy_seq = 0;  // bumped per Deploy; guards lazy-load races
    std::shared_ptr<const ValidationService> service;  // guarded by mutex_
    uint64_t last_used = 0;                            // guarded by mutex_
    std::mutex load_mutex;  // serializes lazy loads; never held with mutex_
    std::atomic<int64_t> inflight{0};
    TenantCounters counters;
  };

  /// Loads `path` into a service (no registry lock held) with the
  /// registry-wide service options.
  StatusOr<std::shared_ptr<const ValidationService>> LoadService(
      const std::string& path) const;

  /// Installs `service` for `entry` under mutex_, touches the LRU clock and
  /// evicts the least-recently-used other resident entry while over budget.
  void InstallAndEvict(Entry* entry,
                       std::shared_ptr<const ValidationService> service);

  ModelRegistryOptions options_;
  mutable std::mutex mutex_;
  // std::map: stable Entry addresses and sorted stats for free. Entries are
  // never erased, so raw Entry* remain valid without the lock.
  std::map<std::string, std::unique_ptr<Entry>> entries_;
  uint64_t lru_clock_ = 0;
};

}  // namespace dquag

#endif  // DQUAG_SERVE_MODEL_REGISTRY_H_
