#include "engine/adaptive.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace splace::engine {
namespace {

/// FNV-1a over the canonical key. Collisions only blur the working-set
/// *estimate* (two keys counted as one) — correctness never depends on it.
std::uint64_t key_hash(const std::string& key) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<std::uint64_t>(static_cast<unsigned char>(c));
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

AdaptiveCacheController::AdaptiveCacheController(
    bool enabled, std::size_t min_capacity, std::size_t max_capacity,
    std::size_t window, double headroom, std::size_t interval)
    : enabled_(enabled),
      min_capacity_(min_capacity),
      max_capacity_(max_capacity),
      window_(window),
      headroom_(headroom),
      interval_(interval) {
  if (!enabled_) return;
  SPLACE_EXPECTS(min_capacity_ >= 1 && max_capacity_ >= min_capacity_);
  SPLACE_EXPECTS(window_ >= 1 && interval_ >= 1 && headroom_ >= 1.0);
  ring_.assign(window_, 0);
}

void AdaptiveCacheController::observe(const std::string& key,
                                      RequestType type,
                                      const std::string& tenant,
                                      TenantCacheMap& tenants) {
  if (!enabled_) return;
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t hash = key_hash(key);
  ++observed_;

  // Slide the window: the slot we are about to overwrite leaves it.
  if (ring_full_) {
    const auto leaving = in_window_.find(ring_[ring_next_]);
    SPLACE_ENSURES(leaving != in_window_.end());
    if (--leaving->second.count == 0) {
      --distinct_by_type_[static_cast<std::size_t>(leaving->second.type)];
      const auto by_tenant = distinct_by_tenant_.find(leaving->second.tenant);
      if (by_tenant != distinct_by_tenant_.end() &&
          --by_tenant->second == 0) {
        distinct_by_tenant_.erase(by_tenant);
      }
      in_window_.erase(leaving);
    }
  }
  ring_[ring_next_] = hash;
  ring_next_ = (ring_next_ + 1) % window_;
  if (ring_next_ == 0) ring_full_ = true;

  WindowEntry& entry = in_window_[hash];
  if (entry.count == 0) {
    entry.type = type;
    entry.tenant = tenant;
    ++distinct_by_type_[static_cast<std::size_t>(type)];
    ++distinct_by_tenant_[tenant];
  }
  ++entry.count;

  if (observed_ % interval_ != 0) return;

  // Re-target: working set plus headroom, clamped to the configured bounds,
  // applied only past the 1/8 hysteresis band (no flapping on a working set
  // that wobbles by a few keys). Only this method changes the total, under
  // mutex_, which also serializes racing re-target decisions.
  const std::size_t current = tenants.total_capacity();
  const std::size_t working_set = in_window_.size();
  const auto desired = static_cast<std::size_t>(
      std::ceil(static_cast<double>(working_set) * headroom_));
  const std::size_t target =
      std::clamp(desired, min_capacity_, max_capacity_);
  const std::size_t diff =
      target > current ? target - current : current - target;
  if (target == current || diff * 8 < current) return;
  resizes_.push_back(ResizeEvent{observed_, current, target, working_set});
  // Split the new total budget proportionally to each tenant's share of the
  // window's distinct keys — the "capacity split seeded from the working-set
  // signal". Lock order: controller -> tenant map -> partition.
  std::vector<std::pair<std::string, std::size_t>> weights(
      distinct_by_tenant_.begin(), distinct_by_tenant_.end());
  tenants.set_split(weights, target);
}

AdaptiveCacheStats AdaptiveCacheController::stats() const {
  AdaptiveCacheStats stats;
  stats.enabled = enabled_;
  stats.window = window_;
  stats.min_capacity = min_capacity_;
  stats.max_capacity = max_capacity_;
  if (!enabled_) return stats;
  std::unique_lock<std::mutex> lock(mutex_);
  stats.observed = observed_;
  stats.working_set = in_window_.size();
  stats.working_set_by_type = distinct_by_type_;
  stats.resizes = resizes_;
  return stats;
}

}  // namespace splace::engine
