#include "serve/model_registry.h"

#include <algorithm>
#include <utility>

#include "util/failpoint.h"

namespace dquag {

namespace {

/// A checkpoint that cannot be loaded — torn by a crash mid-save,
/// truncated, corrupted, or simply missing — surfaces as kUnavailable:
/// the tenant exists but has no servable model right now. The distinction
/// matters to clients, which retry kUnavailable but not kInvalidArgument.
Status AsUnavailable(const std::string& tenant, const Status& load_status) {
  return Status::Unavailable("tenant '" + tenant +
                             "' has no servable model (checkpoint load "
                             "failed: " +
                             load_status.ToString() + ")");
}

}  // namespace

ModelRegistry::ModelRegistry(ModelRegistryOptions options)
    : options_(std::move(options)) {
  if (options_.max_resident < 1) options_.max_resident = 1;
  if (options_.max_inflight_per_tenant < 1) {
    options_.max_inflight_per_tenant = 1;
  }
}

StatusOr<std::shared_ptr<const ValidationService>>
ModelRegistry::LoadService(const std::string& path) const {
  DQUAG_FAILPOINT(failpoint::kRegistryLoad);
  auto service = ValidationService::FromCheckpoint(path, options_.service);
  if (!service.ok()) return service.status();
  return std::shared_ptr<const ValidationService>(std::move(*service));
}

void ModelRegistry::InstallAndEvict(
    Entry* entry, std::shared_ptr<const ValidationService> service) {
  // Caller holds mutex_.
  entry->service = std::move(service);
  entry->last_used = ++lru_clock_;
  for (;;) {
    int64_t resident = 0;
    Entry* lru = nullptr;
    for (auto& [name, other] : entries_) {
      if (other->service == nullptr) continue;
      ++resident;
      if (other.get() == entry) continue;  // never evict the fresh install
      if (lru == nullptr || other->last_used < lru->last_used) {
        lru = other.get();
      }
    }
    if (resident <= options_.max_resident || lru == nullptr) break;
    // Drop only the registry's reference: requests that already Acquired
    // the service keep it alive until they retire.
    lru->service.reset();
    lru->counters.RecordEviction();
  }
}

Status ModelRegistry::Deploy(const std::string& tenant,
                             const std::string& checkpoint_path,
                             const DeployOptions& /*deploy*/) {
  return Deploy(tenant, checkpoint_path);
}

Status ModelRegistry::Deploy(const std::string& tenant,
                             const std::string& checkpoint_path) {
  if (tenant.empty()) {
    return Status::InvalidArgument("tenant key must be non-empty");
  }
  Entry* entry = nullptr;
  bool resident = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<Entry>& slot = entries_[tenant];
    if (slot == nullptr) slot = std::make_unique<Entry>();
    entry = slot.get();
    resident = entry->service != nullptr;
    if (!resident) {
      // Lazy path: record where the model lives; the first Acquire loads.
      entry->path = checkpoint_path;
      ++entry->deploy_seq;
      return Status::Ok();
    }
  }
  // Hot swap: load the NEW checkpoint before touching the entry, so the
  // old model serves every request until the replacement is ready, and a
  // failed load changes nothing. load_mutex keeps lazy loaders out.
  std::lock_guard<std::mutex> load_lock(entry->load_mutex);
  auto service = LoadService(checkpoint_path);
  if (!service.ok()) return service.status();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    entry->path = checkpoint_path;
    ++entry->deploy_seq;
    entry->counters.RecordLoad();
    entry->counters.RecordSwap();
    InstallAndEvict(entry, std::move(*service));
  }
  return Status::Ok();
}

StatusOr<std::shared_ptr<const ValidationService>> ModelRegistry::Acquire(
    const std::string& tenant) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(tenant);
    if (it == entries_.end()) {
      return Status::NotFound("no model deployed for tenant '" + tenant +
                              "'");
    }
    entry = it->second.get();
    if (entry->service != nullptr) {
      entry->last_used = ++lru_clock_;
      return entry->service;
    }
  }
  // Lazy load, serialized per tenant: one loader does the disk work while
  // the rest of the herd blocks here and then shares the installed service.
  std::lock_guard<std::mutex> load_lock(entry->load_mutex);
  for (;;) {
    std::string path;
    uint64_t seq = 0;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (entry->service != nullptr) {
        entry->last_used = ++lru_clock_;
        return entry->service;
      }
      path = entry->path;
      seq = entry->deploy_seq;
    }
    auto service = LoadService(path);
    // Fail closed: a torn or missing checkpoint never installs a
    // half-initialized service — the entry simply stays non-resident (or,
    // after a failed re-deploy, keeps its old model) and the caller gets a
    // retryable kUnavailable.
    if (!service.ok()) return AsUnavailable(tenant, service.status());
    std::lock_guard<std::mutex> lock(mutex_);
    if (entry->deploy_seq != seq) continue;  // re-deployed mid-load; reload
    entry->counters.RecordLoad();
    InstallAndEvict(entry, std::move(*service));
    return entry->service;
  }
}

StatusOr<ModelRegistry::AdmitTicket> ModelRegistry::Admit(
    const std::string& tenant) {
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(tenant);
    if (it == entries_.end()) {
      return Status::NotFound("no model deployed for tenant '" + tenant +
                              "'");
    }
    entry = it->second.get();
  }
  const int64_t inflight =
      entry->inflight.fetch_add(1, std::memory_order_relaxed) + 1;
  if (inflight > options_.max_inflight_per_tenant) {
    entry->inflight.fetch_sub(1, std::memory_order_relaxed);
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' at its in-flight budget (" +
        std::to_string(options_.max_inflight_per_tenant) + ")");
  }
  return AdmitTicket(&entry->inflight);
}

StatusOr<TenantCounters*> ModelRegistry::counters(
    const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(tenant);
  if (it == entries_.end()) {
    return Status::NotFound("no model deployed for tenant '" + tenant +
                            "'");
  }
  return &it->second->counters;
}

StatusOr<std::string> ModelRegistry::DeployedPath(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(tenant);
  if (it == entries_.end()) {
    return Status::NotFound("no model deployed for tenant '" + tenant +
                            "'");
  }
  return it->second->path;
}

std::vector<TenantStatsSnapshot> ModelRegistry::StatsSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<TenantStatsSnapshot> stats;
  stats.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    TenantStatsSnapshot s =
        entry->counters.Snapshot(name, entry->service != nullptr);
    if (entry->service != nullptr) {
      const auto monitor = entry->service->monitor_snapshot();
      s.monitor_rows = monitor.rows_observed;
      s.drifting_columns =
          static_cast<int64_t>(monitor.drifting_columns.size());
      s.alarming = monitor.alarming;
    }
    stats.push_back(std::move(s));
  }
  return stats;
}

std::vector<std::string> ModelRegistry::Tenants() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> tenants;
  tenants.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) tenants.push_back(name);
  return tenants;
}

int64_t ModelRegistry::resident_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  int64_t resident = 0;
  for (const auto& [name, entry] : entries_) {
    if (entry->service != nullptr) ++resident;
  }
  return resident;
}

int64_t ModelRegistry::load_count(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(tenant);
  if (it == entries_.end()) return 0;
  return it->second->counters.Snapshot(tenant, false).loads;
}

}  // namespace dquag
