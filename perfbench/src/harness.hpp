// The closed-loop harness every workload runs through.
//
// One generator thread keeps a fixed number of jobs outstanding against a
// shard::EngineGroup. A job is one question a caller asks: an optional
// synchronous prelude (for example, streaming probes into an ingest) and then
// one engine request whose future the caller waits on. The harness times
// each job from its first call into splace ("episode") and each request from
// submit() to result in hand ("latency"), records every response for the
// correctness gates, and, on a traced group, folds the engine's RequestTrace
// spans into per-stage sums as it goes.
#pragma once

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/request.hpp"
#include "engine/trace.hpp"
#include "shard/group.hpp"

namespace perf {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to);

/// FNV-1a over the bytes fed to it; used for response payload digests.
class Digest {
 public:
  void bytes(const void* data, std::size_t size);
  template <typename T>
  void value(const T& v) {
    bytes(&v, sizeof(v));
  }
  void text(const std::string& s);
  void nodes(const std::vector<std::uint32_t>& v);
  std::uint64_t result() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Digest of everything in a response that the determinism contract fixes:
/// type, outcome and the typed payload. Latency, cache_hit and the message
/// are left out because they depend on load, not on the request.
std::uint64_t payload_digest(const splace::engine::EngineResult& result);

/// One question a caller asks (see the file comment).
struct Job {
  std::uint64_t seq = 0;
  /// Jobs with equal check ids must receive equal payloads; the first job of
  /// each id is recomputed by direct library calls after timing.
  std::uint64_t check_id = 0;
  std::size_t kind = 0;  ///< index into Workload::kinds()
  splace::engine::Request request;
  /// First call into splace for this question; left unset when the job has
  /// no prelude, and then taken as the submit time.
  Clock::time_point started{};
  std::uint64_t tag = 0;  ///< workload-private
};

/// Inputs for the direct per-layer probes (layers.hpp), drawn by each
/// workload from its own snapshots and traffic.
struct LayerInputs {
  struct Observation {
    std::uint64_t snapshot = 0;
    splace::Placement placement;
    std::vector<splace::NodeId> failed;
    std::size_t k = 1;
  };
  std::vector<std::uint64_t> snapshots;
  /// Snapshots small enough for a portfolio run.
  std::vector<std::uint64_t> portfolio_snapshots;
  std::vector<std::string> portfolio_algorithms;
  std::vector<std::pair<std::uint64_t, splace::Placement>> placements;
  std::vector<Observation> observations;
  std::vector<std::pair<std::uint64_t, splace::TopologyDelta>> deltas;
  std::vector<splace::engine::Request> requests;  ///< routing sample
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Request-type labels, indexed by Job::kind.
  virtual std::vector<std::string> kinds() const = 0;
  /// Jobs the generator keeps outstanding.
  virtual std::size_t outstanding() const = 0;
  /// Group shape (tracing is switched on by the harness when asked).
  virtual splace::shard::EngineGroupConfig group_config() const = 0;

  /// Builds every snapshot and placement from the seed into a fresh
  /// registry, dropping the previous one.
  virtual void setup(std::uint64_t seed) = 0;
  virtual std::shared_ptr<splace::engine::SnapshotRegistry> registry()
      const = 0;

  /// Readies a new group for timing (cache warm-up, streams) and restarts
  /// the job sequence at its seeded beginning.
  virtual void attach(splace::shard::EngineGroup& group) = 0;
  /// Draws the next job; may call into splace (the prelude).
  virtual Job next(splace::shard::EngineGroup& group) = 0;
  /// Generator-thread hook for each response.
  virtual void complete(const Job& job,
                        const splace::engine::EngineResult& result) {
    (void)job;
    (void)result;
  }
  /// Releases what attach() opened; returns workload-specific gate
  /// failures (0 = all passed) and prints each one to stderr.
  virtual std::size_t detach(splace::shard::EngineGroup& group) {
    (void)group;
    return 0;
  }

  /// The response the direct library call gives for this job's request.
  virtual splace::engine::EngineResult direct(const Job& job) const = 0;

  virtual LayerInputs layer_inputs(std::uint64_t seed) const = 0;

  /// Free-form key/value facts printed with the results (mix shares...).
  virtual std::map<std::string, double> facts() const { return {}; }
};

/// Sum of the engine's seven spans over the traced requests of one window.
struct SpanTotals {
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::array<double, splace::engine::kStageCount> stage_seconds{};
  double total_seconds = 0;
  double greedy_round_seconds = 0;
  std::uint64_t greedy_rounds = 0;

  void add(const splace::engine::RequestTrace& trace);
};

struct Sample {
  double latency_seconds = 0;
  double episode_seconds = 0;
  std::uint32_t kind = 0;
};

/// Latency samples kept per window (a uniform reservoir beyond this).
inline constexpr std::size_t kMaxSamples = 100000;

/// What one timed window produced.
struct WindowResult {
  double elapsed_seconds = 0;
  std::uint64_t attempted = 0;
  std::uint64_t ok = 0;
  std::uint64_t rejected = 0;
  std::vector<Sample> samples;  ///< reservoir of Ok responses
  double client_overhead_seconds = 0;  ///< summed over Ok responses
  SpanTotals spans;
  std::uint64_t submitted_before = 0;  ///< group counters at window start
  std::uint64_t cache_hits_before = 0;

  double throughput() const {
    return elapsed_seconds <= 0 ? 0 : static_cast<double>(ok) / elapsed_seconds;
  }
};

/// Correctness bookkeeping shared by every window of one run.
class Checker {
 public:
  /// Responses of jobs with seq < this feed the run digest.
  static constexpr std::size_t kDigestPrefix = 256;

  void expect(const Job& job);
  void observe(const Job& job, const splace::engine::EngineResult& result);
  /// Recomputes each distinct job through the workload's direct call.
  /// Returns the number of mismatches (each printed to stderr).
  std::size_t verify(const Workload& workload) const;
  std::uint64_t run_digest() const;
  std::size_t distinct() const { return records_.size(); }
  std::size_t repeat_mismatches() const { return repeat_mismatches_; }
  std::size_t prefix_filled() const;

 private:
  struct Record {
    Job job;
    bool answered = false;
    std::uint64_t digest = 0;
  };
  std::unordered_map<std::uint64_t, Record> records_;
  std::array<std::uint64_t, kDigestPrefix> prefix_{};
  std::array<bool, kDigestPrefix> prefix_set_{};
  std::size_t repeat_mismatches_ = 0;
};

/// Runs one timed window of `seconds` on `group`, keeping a reservoir of
/// at most `max_samples` latency samples. Jobs that are still in flight when
/// time is up are drained and counted.
WindowResult run_window(Workload& workload, splace::shard::EngineGroup& group,
                        double seconds, Checker& checker,
                        std::size_t max_samples = kMaxSamples);

/// Nearest-rank percentile of a sorted sample.
double percentile(const std::vector<double>& sorted, double q);

/// Which request kind a percentile of `samples` (by latency or episode) sits
/// in: the kind most common among the samples within +-0.5% rank of q, and
/// its share of them.
struct Tracking {
  std::uint32_t kind = 0;
  double share = 0;
};
Tracking tracked_kind(const std::vector<Sample>& samples, double q,
                      bool episode);

double peak_rss_mb();

}  // namespace perf
