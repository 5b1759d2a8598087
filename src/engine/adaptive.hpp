// Adaptive result-cache capacity driven by the observed working set.
//
// The engine's result cache is only useful when it holds roughly one entry
// per *distinct* request the traffic keeps repeating — its working set. A
// fixed capacity either wastes memory (capacity >> working set) or thrashes
// (capacity << working set). This controller watches the stream of completed
// responses — the same instrumentation points that feed the request-trace
// stream — and keeps a sliding window of the last W canonical keys. The
// number of distinct keys in that window (total and per request type) is the
// working-set estimate; every `interval` observations the controller
// computes
//
//   target = clamp(ceil(working_set * headroom), min_capacity, max_capacity)
//
// and resizes the cache when the target differs from the current capacity by
// at least 1/8 of the current capacity (hysteresis, so a working set
// oscillating by a few keys does not flap the capacity). Every resize is
// recorded as a ResizeEvent and exported with the engine metrics.
//
// Adaptation changes *capacity* only. Cached lookups are keyed by full
// canonical keys and results are deterministic, so a resize can change
// hit rates and latency, never a response payload — and results already
// handed out survive eviction (shared_ptr; see ResultCache::set_capacity).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/cache.hpp"
#include "engine/request.hpp"

namespace splace::engine {

/// One capacity change made by the controller.
struct ResizeEvent {
  std::uint64_t at_observation = 0;  ///< ordinal of the triggering response
  std::size_t old_capacity = 0;      ///< entries
  std::size_t new_capacity = 0;      ///< entries
  std::size_t working_set = 0;       ///< distinct keys in window at decision
};

/// Point-in-time view of the controller, exported in the metrics JSON.
struct AdaptiveCacheStats {
  bool enabled = false;
  std::size_t window = 0;       ///< sliding-window length (observations)
  std::uint64_t observed = 0;   ///< responses observed so far
  std::size_t working_set = 0;  ///< distinct canonical keys in the window
  std::array<std::size_t, kRequestTypeCount> working_set_by_type{};
  std::size_t min_capacity = 0;  ///< entries
  std::size_t max_capacity = 0;  ///< entries
  std::vector<ResizeEvent> resizes;
};

/// Internally synchronized; observe() is called once per completed Ok
/// response from whichever worker finished it.
class AdaptiveCacheController {
 public:
  /// A disabled controller (enabled = false) ignores every observe() call.
  /// Parameters mirror EngineConfig's adaptive fields and must already be
  /// validated (EngineConfig::validate()).
  AdaptiveCacheController(bool enabled, std::size_t min_capacity,
                          std::size_t max_capacity, std::size_t window,
                          double headroom, std::size_t interval);

  bool enabled() const { return enabled_; }

  /// Feeds one completed response's canonical key into the window; every
  /// `interval` observations, re-targets the total capacity of `tenants`
  /// and splits it across their partitions proportionally to each tenant's
  /// distinct-key count in the window (TenantCacheMap::set_split).
  void observe(const std::string& key, RequestType type,
               const std::string& tenant, TenantCacheMap& tenants);

  AdaptiveCacheStats stats() const;

 private:
  struct WindowEntry {
    std::size_t count = 0;
    RequestType type = RequestType::Place;
    std::string tenant;
  };

  bool enabled_;
  std::size_t min_capacity_;
  std::size_t max_capacity_;
  std::size_t window_;
  double headroom_;
  std::size_t interval_;

  mutable std::mutex mutex_;
  std::uint64_t observed_ = 0;
  std::vector<std::uint64_t> ring_;  ///< last `window_` key hashes
  std::size_t ring_next_ = 0;
  bool ring_full_ = false;
  /// key hash -> occurrences in the window (+ the key's request type).
  /// Distinct-per-type counters derive from 0<->1 transitions.
  std::unordered_map<std::uint64_t, WindowEntry> in_window_;
  std::array<std::size_t, kRequestTypeCount> distinct_by_type_{};
  /// tenant -> distinct keys currently in the window.
  std::unordered_map<std::string, std::size_t> distinct_by_tenant_;
  std::vector<ResizeEvent> resizes_;
};

}  // namespace splace::engine
