// EventBus: fan-out of stream events to ring-buffer subscribers and
// callback sinks, engineered so an idle bus costs nothing.
//
// Design rules (DESIGN.md §13):
//   - Publishing with zero subscribers for an event's kind is a relaxed
//     atomic load and a branch — no lock, no allocation, no copy. The
//     engine can therefore publish unconditionally from its hot path.
//   - Each ring subscription owns a bounded buffer of
//     shared_ptr<const StreamEvent>; the event payload is allocated once
//     per publish and shared across subscribers.
//   - Backpressure never blocks the publisher. A full ring drops and
//     counts: DropNew keeps the oldest buffered events (the policy of the
//     engine's drain_traces() tail), DropOld evicts the oldest to admit
//     the newest (live dashboards that want "most recent" over "first
//     seen").
//   - Callback sinks run synchronously on the publishing thread, outside
//     the bus lock. They must be fast; exceptions are swallowed and
//     counted in BusStats::callback_errors.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "stream/event.hpp"

namespace splace::stream {

/// What to do when a subscription's ring is full.
enum class DropPolicy {
  DropNew,  ///< reject the incoming event, keep the oldest buffered
  DropOld   ///< evict the oldest buffered event to admit the incoming one
};

struct SubscribeOptions {
  EventMask mask = kAllEvents;      ///< which kinds to receive
  std::size_t capacity = 1024;      ///< max buffered events (>= 1)
  DropPolicy policy = DropPolicy::DropNew;
};

/// Point-in-time counters for one subscription.
struct SubscriptionStats {
  std::uint64_t pushed = 0;    ///< events accepted into the ring
  std::uint64_t drained = 0;   ///< events handed out by poll()
  std::uint64_t dropped = 0;   ///< events lost to a full ring
  std::size_t buffered = 0;    ///< currently waiting in the ring
  std::size_t capacity = 0;
};

/// A bounded ring of undelivered events. Created by EventBus::subscribe;
/// thread-safe; outlives the bus gracefully (a detached subscription keeps
/// serving whatever it buffered, and accepts nothing new).
class Subscription {
 public:
  /// Removes and returns all buffered events in publish order.
  std::vector<std::shared_ptr<const StreamEvent>> poll();

  SubscriptionStats stats() const;

 private:
  friend class EventBus;

  explicit Subscription(SubscribeOptions options) : options_(options) {}

  /// Returns false when the event was dropped (DropNew on a full ring).
  bool push(std::shared_ptr<const StreamEvent> event);

  SubscribeOptions options_;
  mutable std::mutex mutex_;
  std::deque<std::shared_ptr<const StreamEvent>> ring_;
  std::uint64_t pushed_ = 0;
  std::uint64_t drained_ = 0;
  std::uint64_t dropped_ = 0;
};

/// Aggregate bus counters.
struct BusStats {
  /// Events delivered to >= 1 sink, indexed by event_index(kind). An event
  /// published while nothing listens for its kind is not counted: the
  /// zero-subscriber path is meant to be indistinguishable from no bus.
  std::array<std::uint64_t, kEventKindCount> published{};
  std::uint64_t dropped = 0;          ///< ring-overflow drops, all subscribers
  std::uint64_t callback_errors = 0;  ///< exceptions thrown by callback sinks
  std::size_t subscribers = 0;        ///< attached rings + callbacks

  std::uint64_t published_total() const {
    std::uint64_t total = 0;
    for (auto count : published) total += count;
    return total;
  }
};

class EventBus {
 public:
  using Callback = std::function<void(const StreamEvent&)>;

  EventBus() = default;
  ~EventBus();

  EventBus(const EventBus&) = delete;
  EventBus& operator=(const EventBus&) = delete;

  /// Attaches a bounded ring subscription. Throws InvalidInput on an empty
  /// mask or zero capacity.
  std::shared_ptr<Subscription> subscribe(SubscribeOptions options);

  /// Detaches a ring subscription; it keeps serving its buffered residue.
  void unsubscribe(const std::shared_ptr<Subscription>& subscription);

  /// Registers a callback sink; returns a handle for remove_callback.
  /// Callbacks run on the publishing thread and must not block.
  std::uint64_t add_callback(EventMask mask, Callback callback);
  void remove_callback(std::uint64_t handle);

  /// True when >= 1 sink listens for `kind`. Lock-free; publishers may use
  /// it to skip building expensive payloads.
  bool has_subscribers(EventKind kind) const {
    return kind_sinks_[event_index(kind)].load(std::memory_order_relaxed) > 0;
  }

  /// Fans the event out to every sink whose mask matches its kind.
  /// No-op (no lock, no allocation) when has_subscribers is false.
  void publish(StreamEvent event);

  BusStats stats() const;

 private:
  struct CallbackEntry {
    std::uint64_t handle = 0;
    EventMask mask = 0;
    std::shared_ptr<Callback> callback;
  };

  void bump_kind_sinks(EventMask mask, int delta);

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Subscription>> subscriptions_;
  std::vector<CallbackEntry> callbacks_;
  std::uint64_t next_handle_ = 1;
  std::array<std::uint64_t, kEventKindCount> published_{};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> callback_errors_{0};
  std::array<std::atomic<std::uint32_t>, kEventKindCount> kind_sinks_{};
};

}  // namespace splace::stream
