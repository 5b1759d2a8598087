#include "placement/lazy_greedy.hpp"

#include <chrono>
#include <optional>
#include <queue>
#include <unordered_map>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace splace {

namespace {

struct HeapEntry {
  double gain;
  std::size_t service;
  NodeId host;
  std::size_t stamp;  ///< iteration at which `gain` was computed

  /// Max-heap by gain; ties resolve to (smaller service, smaller host) so
  /// lazy and plain greedy pick the same winner among equal gains.
  bool operator<(const HeapEntry& other) const {
    if (gain != other.gain) return gain < other.gain;
    if (service != other.service) return service > other.service;
    return host > other.host;
  }
};

/// Key for the per-iteration cache of speculative re-evaluations.
std::size_t cache_key(const ProblemInstance& instance, std::size_t service,
                      NodeId host) {
  return service * instance.node_count() + host;
}

}  // namespace

LazyGreedyResult lazy_greedy_placement(const ProblemInstance& instance,
                                       std::unique_ptr<ObjectiveState> state,
                                       const PlacementOptions& options) {
  SPLACE_EXPECTS(state != nullptr);
  const std::size_t n_services = instance.service_count();
  const std::size_t workers = options.resolved_threads();

  LazyGreedyResult result;
  result.placement.assign(n_services, kInvalidNode);
  std::vector<bool> placed(n_services, false);

  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);

  // Gains within one iteration are evaluated against a fixed path set, so a
  // batch evaluated speculatively in parallel can be consumed entry by entry
  // as the heap surfaces them — the algorithm's state evolution stays
  // exactly sequential. The cache dies with each commit (state changes).
  std::unordered_map<std::size_t, double> fresh_gain;
  std::vector<HeapEntry> batch;
  std::vector<double> entry_gains;
  const std::size_t batch_target = workers * 4;

  const auto evaluate_batch = [&](const std::vector<HeapEntry>& entries) {
    parallel_for(*pool, entries.size(), [&](std::size_t begin,
                                            std::size_t end) {
      // One state clone per worker chunk (gain's scratch is not shareable).
      const std::unique_ptr<ObjectiveState> local = state->clone();
      for (std::size_t i = begin; i < end; ++i) {
        const HeapEntry& e = entries[i];
        entry_gains[i] =
            local->gain(instance.arena_paths_for(e.service, e.host));
      }
    });
  };

  using ProfileClock = std::chrono::steady_clock;
  const bool profiling = static_cast<bool>(options.profile_round);

  // Initial heap: every (service, host) pair's standalone gain.
  std::vector<HeapEntry> initial;
  for (std::size_t s = 0; s < n_services; ++s)
    for (NodeId h : instance.candidate_hosts(s))
      initial.push_back(HeapEntry{0.0, s, h, 0});
  std::size_t remaining_pairs = initial.size();
  if (!pool) {
    for (HeapEntry& e : initial)
      e.gain = state->gain(instance.arena_paths_for(e.service, e.host));
  } else {
    entry_gains.assign(initial.size(), 0.0);
    evaluate_batch(initial);
    for (std::size_t i = 0; i < initial.size(); ++i)
      initial[i].gain = entry_gains[i];
  }
  result.evaluations += initial.size();
  // The comparator is a strict total order over (gain, service, host), so
  // the pop sequence is independent of the heap's construction order.
  std::priority_queue<HeapEntry> heap(std::less<HeapEntry>{},
                                      std::move(initial));

  for (std::size_t iter = 0; iter < n_services; ++iter) {
    const ProfileClock::time_point round_start =
        profiling ? ProfileClock::now() : ProfileClock::time_point{};
    const std::size_t evaluations_before = result.evaluations;
    while (true) {
      SPLACE_ENSURES(!heap.empty());
      HeapEntry top = heap.top();
      if (placed[top.service]) {  // service already committed
        heap.pop();
        continue;
      }
      if (top.stamp == iter) {
        // Fresh top: by submodularity no other entry can beat it. Commit.
        heap.pop();
        placed[top.service] = true;
        result.placement[top.service] = top.host;
        result.order.push_back(top.service);
        state->add_paths(instance.arena_paths_for(top.service, top.host));
        fresh_gain.clear();
        if (profiling) {
          GreedyRoundProfile profile;
          profile.round = iter;
          profile.candidates = remaining_pairs;
          profile.evaluations = result.evaluations - evaluations_before;
          profile.seconds = std::chrono::duration<double>(
                                ProfileClock::now() - round_start)
                                .count();
          profile.service = top.service;
          profile.host = top.host;
          profile.gain = top.gain;
          options.profile_round(profile);
        }
        remaining_pairs -= instance.candidate_hosts(top.service).size();
        break;
      }
      // Stale top: re-evaluate against the current path set and re-insert.
      if (!pool) {
        heap.pop();
        const double gain =
            state->gain(instance.arena_paths_for(top.service, top.host));
        ++result.evaluations;
        heap.push(HeapEntry{gain, top.service, top.host, iter});
        continue;
      }
      const auto cached =
          fresh_gain.find(cache_key(instance, top.service, top.host));
      if (cached != fresh_gain.end()) {
        heap.pop();
        heap.push(HeapEntry{cached->second, top.service, top.host, iter});
        continue;
      }
      // Uncached: speculatively pop a run of stale entries off the top and
      // evaluate them in one parallel batch. Re-inserting them unchanged
      // restores the heap, so consuming the cached values as the entries
      // resurface replays the sequential pop order exactly.
      batch.clear();
      while (!heap.empty() && batch.size() < batch_target) {
        const HeapEntry next = heap.top();
        if (placed[next.service]) {
          heap.pop();
          continue;
        }
        if (next.stamp == iter ||
            fresh_gain.count(cache_key(instance, next.service, next.host)))
          break;
        heap.pop();
        batch.push_back(next);
      }
      entry_gains.assign(batch.size(), 0.0);
      evaluate_batch(batch);
      result.evaluations += batch.size();
      for (std::size_t i = 0; i < batch.size(); ++i) {
        fresh_gain[cache_key(instance, batch[i].service, batch[i].host)] =
            entry_gains[i];
        heap.push(batch[i]);
      }
    }
  }

  result.objective_value = state->value();
  return result;
}

LazyGreedyResult lazy_greedy_placement(const ProblemInstance& instance,
                                       ObjectiveKind kind, std::size_t k,
                                       const PlacementOptions& options) {
  return lazy_greedy_placement(
      instance, make_objective_state(kind, instance.node_count(), k), options);
}

std::size_t plain_greedy_evaluation_count(
    const ProblemInstance& instance, const std::vector<std::size_t>& order) {
  SPLACE_EXPECTS(order.size() == instance.service_count());
  // Plain Algorithm 2 evaluates every remaining (service, host) pair each
  // iteration; committing a service removes exactly its candidate list, so
  // the exact total follows the actual commit order.
  std::size_t remaining_total = 0;
  std::vector<bool> seen(instance.service_count(), false);
  for (std::size_t s = 0; s < instance.service_count(); ++s)
    remaining_total += instance.candidate_hosts(s).size();
  std::size_t evaluations = 0;
  for (std::size_t service : order) {
    SPLACE_EXPECTS(service < instance.service_count() && !seen[service]);
    seen[service] = true;
    evaluations += remaining_total;
    remaining_total -= instance.candidate_hosts(service).size();
  }
  return evaluations;
}

}  // namespace splace
