// Replay scenarios: a line-oriented description of a mixed request stream
// fired through the serving engine (consumed by `splace_cli --replay` and
// the engine and shard tests). The format mirrors core/scenario.hpp's style:
//
//   # engine configuration
//   threads 4                 # engine workers (0 = hardware concurrency)
//   shards 4                  # engine shards (1 = plain single engine;
//                             # > 1 runs an EngineGroup — threads, queue
//                             # and cache are per shard). Each line takes
//                             # at most kMaxWorkerThreads (256), and so
//                             # does shards x threads
//   queue-depth 256           # admission limit
//   cache 1024                # LRU capacity in entries (0 = off)
//   repeat 50                 # fire the request list this many times
//   trace 4096                # request tracing, retaining up to N traces
//   adaptive 64 4096          # adaptive cache capacity in [min, max] entries
//   adaptive-window 256       # working-set window (completed responses)
//   adaptive-interval 64      # responses between resize decisions
//
//   # one or more named snapshots (catalog topologies)
//   snapshot net1 topology tiscali alpha 0.6 services 5 clients 3
//
//   # the request mix, each line one request per repeat iteration
//   place net1 gd             # algorithm: gd|gc|gi|qos|rd|bf, any case
//                             # (parse_algorithm, core/experiment.hpp)
//   place net1 gc k 1
//   evaluate net1 qos         # evaluates that algorithm's placement
//   localize net1 2           # inject 2 random failures (deterministic
//                             # per-line, per-iteration seeds)
//   portfolio net1 greedy pair_cover k 1
//                             # run a PortfolioRequest over the named
//                             # registry algorithms (none listed = every
//                             # registered algorithm); names are validated
//                             # against the registry at parse time
//
//   # request-state directives, applying to every request line below them
//   seed 7                    # RNG seed for subsequent rd placements
//   deadline 250              # per-request deadline in ms (0 = none)
//   tenant acme               # tag subsequent requests with a tenant id
//   tenant -                  # ... back to the default tenant
//   algo pair_cover           # route subsequent `place` lines through the
//                             # pluggable algorithm registry
//                             # (placement/algorithm.hpp) under that name,
//                             # overriding the line's enum token; validated
//                             # at parse time. Only `place` lines are
//                             # affected. `algo -` returns to the classic
//                             # enum path
//
//   # per-tenant admission quotas (engine-level; `-` = the default tenant).
//   # keys (all optional): inflight (max in-flight requests), rate
//   # (token-bucket refill per second), burst (bucket capacity)
//   quota acme inflight 4 rate 100 burst 8
//
//   # observability: ask the driver for the Prometheus-style text export
//   metrics                   # fill ReplayReport::metrics_text after the
//                             # run (splace_cli prints / writes it)
//
//   # topology churn: mutate lines accumulate a pending delta against a
//   # named snapshot; derive fires one MutateRequest with that delta and
//   # rebinds the name to the derived snapshot for later request lines
//   mutate net1 addlink 3 9
//   mutate net1 rmlink 0 4
//   derive net1
//
//   # correlated failures: run root-cause cascade episodes against a named
//   # snapshot AFTER the request phase (so derived snapshots are live).
//   # keys (all optional): algorithm, strength (per-tick propagation
//   # probability), density (random dependency-DAG edge probability),
//   # episodes, ticks, k
//   cascade net1 gd strength 0.6 density 0.3 episodes 4 ticks 4 k 2
//
// Place/evaluate lines repeat identically across iterations (exercising the
// result cache); localize lines draw fresh failure sets every iteration
// (cache-resistant work). Derive lines act as barriers: the replay driver
// waits for the derived snapshot to register before submitting later lines
// that may target it. Unknown keys and malformed values are rejected with
// line-numbered InvalidInput errors; numbers go through parse_uint,
// parse_double and parse_node_id, so a sign on a count, trailing
// characters and a non-finite real are malformed.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "cascade/root_cause.hpp"
#include "engine/engine.hpp"

namespace splace::shard {
struct EngineGroupConfig;
}  // namespace splace::shard

namespace splace::engine {

struct ReplaySnapshotSpec {
  std::string name;
  std::string topology;  ///< catalog entry name
  double alpha = 0.6;
  std::size_t services = 0;  ///< 0 = the catalog entry's default
  std::size_t clients_per_service = 3;
};

struct ReplayRequestSpec {
  RequestType type = RequestType::Place;
  std::string snapshot;
  std::string algorithm = "gd";  ///< place: algorithm; evaluate: placement
  /// Registry algorithm name for `place` lines (from the `algo` directive;
  /// empty = the classic enum path). Routes the PlaceRequest through
  /// placement/algorithm.hpp.
  std::string registry_algorithm;
  /// `portfolio` lines: the registry names to race (empty = all registered).
  std::vector<std::string> portfolio_algorithms;
  std::size_t k = 1;
  std::size_t failures = 1;      ///< localize only
  std::uint64_t seed = 42;       ///< rd placements (from `seed`)
  double deadline_seconds = 0;   ///< from `deadline <ms>`; 0 = none
  std::string tenant;            ///< from `tenant <id>`; empty = default
  TopologyDelta delta;           ///< mutate requests only (from `derive`)
};

/// One `cascade` line: correlated-failure episodes against a snapshot,
/// executed after the request phase through Engine::open_ingest and the
/// cascade root-cause analyzer.
struct ReplayCascadeSpec {
  std::string snapshot;
  std::string algorithm = "gd";
  double strength = 0.5;     ///< per-tick propagation probability, (0, 1]
  double density = 0.2;      ///< dependency-DAG edge probability, [0, 1]
  std::size_t episodes = 4;
  std::size_t ticks = 4;
  std::size_t k = 2;
  std::uint64_t seed = 42;   ///< from the `seed` state directive
};

struct ReplaySpec {
  std::size_t threads = 0;
  std::size_t shards = 1;             ///< from `shards <N>`; > 1 = group
  std::size_t queue_depth = 256;
  std::size_t cache_capacity = 1024;
  std::size_t repeat = 1;
  bool tracing = false;               ///< from `trace <N>`
  std::size_t trace_capacity = 4096;
  bool adaptive_cache = false;        ///< from `adaptive <min> <max>`
  std::size_t cache_min_capacity = 64;
  std::size_t cache_max_capacity = 4096;
  std::size_t working_set_window = 256;
  std::size_t adaptation_interval = 64;
  bool metrics_text = false;          ///< from `metrics`
  std::vector<TenantQuota> tenant_quotas;  ///< from `quota <tenant> ...`
  std::vector<ReplaySnapshotSpec> snapshots;
  std::vector<ReplayRequestSpec> requests;
  std::vector<ReplayCascadeSpec> cascades;

  EngineConfig engine_config() const {
    EngineConfig config;
    config.threads = threads;
    config.max_queue_depth = queue_depth;
    config.cache_capacity = cache_capacity;
    config.adaptive_cache = adaptive_cache;
    config.cache_min_capacity = cache_min_capacity;
    config.cache_max_capacity = cache_max_capacity;
    config.working_set_window = working_set_window;
    config.adaptation_interval = adaptation_interval;
    config.tracing = tracing;
    config.trace_capacity = trace_capacity;
    config.tenant_quotas = tenant_quotas;
    return config;
  }

  /// The `shards`-wide EngineGroup configuration (shard = engine_config()).
  /// Defined in replay.cpp to keep shard/group.hpp out of this header.
  shard::EngineGroupConfig group_config() const;
};

ReplaySpec parse_replay(std::istream& in);
ReplaySpec parse_replay(const std::string& text);

/// A materialized workload: the registry with every named *base* snapshot
/// built, plus the full request list (repeat iterations expanded,
/// evaluate/localize placements precomputed by direct library calls,
/// localize failure draws seeded deterministically per line and iteration).
/// Derived snapshots are NOT pre-registered: the builder computes them
/// locally to resolve later lines' hashes and placements, but registration
/// happens when the engine executes the MutateRequest — replay genuinely
/// exercises the derive path.
/// One materialized `cascade` line: the resolved snapshot hash and
/// placement plus the generated dependency DAG, ready to drive through
/// Engine::open_ingest after the request phase.
struct ReplayCascadeJob {
  std::uint64_t snapshot = 0;
  Placement placement;
  cascade::DependencyGraph deps;
  std::size_t episodes = 4;
  std::size_t ticks = 4;
  std::size_t k = 2;
  std::uint64_t seed = 42;
};

struct ReplayWorkload {
  std::shared_ptr<SnapshotRegistry> registry;
  std::vector<Request> requests;
  std::vector<ReplayCascadeJob> cascades;
};

ReplayWorkload build_replay_workload(const ReplaySpec& spec);

/// Outcome tally of one replay run. `total == ok + rejected counters` by
/// construction — a lost response would break that invariant.
struct ReplayReport {
  std::size_t total = 0;
  std::size_t ok = 0;
  std::size_t cache_hits = 0;
  std::size_t rejected_queue_full = 0;
  std::size_t rejected_deadline = 0;
  std::size_t rejected_bad_request = 0;
  std::size_t rejected_tenant_quota = 0;
  double wall_seconds = 0;
  double requests_per_second = 0;
  /// Order-sensitive FNV-1a fold over every response payload (type,
  /// outcome, and the Ok result fields; excludes message text, cache_hit
  /// and latency). Two runs of the same workload that produce bit-identical
  /// responses in order produce equal digests — the gate that a shard group
  /// answers exactly like a single engine.
  std::uint64_t response_digest = 0;
  EngineMetricsSnapshot metrics;  ///< engine state after the run
  /// Prometheus-style text exposition of the same post-run state
  /// (Engine::metrics_text), captured before the trace drain.
  std::string metrics_text;
  /// Event-bus counters after the run (trace publishes land here).
  stream::BusStats bus;
  /// Per-request traces drained after the run (empty unless `trace` was
  /// configured), in submission (trace-id) order.
  std::vector<RequestTrace> traces;
  /// Per-`cascade`-line outcome tallies (episodes run after the request
  /// phase, events on the engine bus). `bus` above is captured after them.
  struct CascadeSummary {
    std::uint64_t snapshot = 0;
    std::size_t episodes = 0;
    std::size_t detected = 0;
    std::size_t top1 = 0;
    std::size_t top3 = 0;
    double mean_blast_services = 0;
    bool streamed_equals_batch = true;  ///< held on every episode
  };
  std::vector<CascadeSummary> cascades;
};

/// Fires the workload through a fresh engine with `config` and waits for
/// every response.
ReplayReport run_replay(const ReplayWorkload& workload, EngineConfig config);

/// Fires the workload through a fresh EngineGroup (shard/group.hpp). The
/// report aggregates across shards: `metrics` via merge_snapshots, `bus`
/// counters summed, `metrics_text` the group page with shard labels, and
/// `traces` concatenated in shard order (ids are per shard).
ReplayReport run_replay(const ReplayWorkload& workload,
                        const shard::EngineGroupConfig& config);

/// Convenience: build the workload and run it with the spec's own
/// configuration — a single engine when `shards <= 1`, an EngineGroup
/// otherwise.
ReplayReport run_replay(const ReplaySpec& spec);

}  // namespace splace::engine
