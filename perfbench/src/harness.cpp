#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <future>
#include <iostream>
#include <thread>

#include "util/random.hpp"

namespace perf {

using splace::engine::EngineResult;
using splace::engine::RequestType;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void Digest::bytes(const void* data, std::size_t size) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash_ ^= p[i];
    hash_ *= 1099511628211ull;
  }
}

void Digest::text(const std::string& s) {
  value(s.size());
  bytes(s.data(), s.size());
}

void Digest::nodes(const std::vector<std::uint32_t>& v) {
  value(v.size());
  if (!v.empty()) bytes(v.data(), v.size() * sizeof(std::uint32_t));
}

namespace {

void add_metrics(Digest& d, const splace::MetricReport& m) {
  d.value(m.coverage);
  d.value(m.identifiability);
  d.value(m.distinguishability);
}

}  // namespace

std::uint64_t payload_digest(const EngineResult& r) {
  Digest d;
  d.value(r.type);
  d.value(r.outcome);
  if (!r.ok()) return d.result();
  switch (r.type) {
    case RequestType::Place:
      d.nodes(r.place.placement);
      d.value(r.place.objective_value);
      add_metrics(d, r.place.metrics);
      break;
    case RequestType::Evaluate:
      add_metrics(d, r.metrics);
      break;
    case RequestType::Localize:
      d.nodes(r.localization.suspects);
      d.nodes(r.localization.exonerated);
      d.value(r.localization.consistent_sets.size());
      for (const auto& set : r.localization.consistent_sets) d.nodes(set);
      d.nodes(r.localization.minimal_explanation);
      break;
    case RequestType::Mutate:
      d.value(r.mutate.derived_snapshot);
      break;
    case RequestType::Portfolio:
      d.text(r.portfolio.winner);
      d.nodes(r.portfolio.placement);
      d.value(r.portfolio.objective_value);
      d.value(r.portfolio.max_identifiable_failures);
      add_metrics(d, r.portfolio.metrics);
      for (const auto& entry : r.portfolio.entries) {
        d.text(entry.algorithm);
        d.text(entry.error);
        d.nodes(entry.placement);
        d.value(entry.objective_value);
        d.value(entry.reported_value);
        d.value(entry.evaluations);
        d.value(entry.max_identifiable_failures);
      }
      break;
  }
  return d.result();
}

void SpanTotals::add(const splace::engine::RequestTrace& trace) {
  ++requests;
  if (trace.cache_hit) ++cache_hits;
  for (std::size_t s = 0; s < stage_seconds.size(); ++s)
    stage_seconds[s] += trace.stage_seconds[s];
  total_seconds += trace.total_seconds;
  for (const auto& round : trace.greedy_rounds) {
    greedy_round_seconds += round.seconds;
    ++greedy_rounds;
  }
}

void Checker::expect(const Job& job) {
  if (records_.find(job.check_id) == records_.end())
    records_.emplace(job.check_id, Record{job, false, 0});
}

void Checker::observe(const Job& job, const EngineResult& result) {
  const std::uint64_t digest = payload_digest(result);
  if (job.seq < kDigestPrefix) {
    prefix_[job.seq] = digest;
    prefix_set_[job.seq] = true;
  }
  Record& record = records_.at(job.check_id);
  if (!record.answered) {
    record.answered = true;
    record.digest = digest;
  } else if (record.digest != digest) {
    ++repeat_mismatches_;
    std::cerr << "MISMATCH: job " << job.seq << " (check id " << job.check_id
              << ") got a different payload than an earlier equal job\n";
  }
}

std::size_t Checker::verify(const Workload& workload) const {
  std::size_t mismatches = 0;
  for (const auto& [id, record] : records_) {
    if (!record.answered) continue;
    if (payload_digest(workload.direct(record.job)) != record.digest) {
      ++mismatches;
      std::cerr << "MISMATCH: job " << record.job.seq << " (kind "
                << workload.kinds().at(record.job.kind)
                << ") differs from its direct library call\n";
    }
  }
  return mismatches;
}

std::uint64_t Checker::run_digest() const {
  Digest d;
  for (std::size_t i = 0; i < kDigestPrefix; ++i)
    if (prefix_set_[i]) d.value(prefix_[i]);
  return d.result();
}

std::size_t Checker::prefix_filled() const {
  return static_cast<std::size_t>(
      std::count(prefix_set_.begin(), prefix_set_.end(), true));
}

namespace {

struct Slot {
  bool busy = false;
  Job job;
  Clock::time_point submitted{};
  std::future<EngineResult> future;
};

void drain_traces(splace::shard::EngineGroup& group, SpanTotals& spans) {
  for (std::size_t s = 0; s < group.shard_count(); ++s)
    for (const auto& trace : group.shard(s).drain_traces()) spans.add(trace);
}

}  // namespace

WindowResult run_window(Workload& workload, splace::shard::EngineGroup& group,
                        double seconds, Checker& checker,
                        std::size_t max_samples) {
  const bool tracing = group.config().shard.tracing;
  WindowResult window;
  {
    const auto metrics = group.metrics();
    window.submitted_before = metrics.submitted;
    window.cache_hits_before = metrics.cache_hits;
  }
  if (tracing) drain_traces(group, window.spans);
  window.spans = SpanTotals{};

  std::vector<Slot> slots(workload.outstanding());
  const Clock::time_point start = Clock::now();
  const Clock::time_point end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  bool stopping = false;
  std::size_t busy = 0;
  std::uint64_t since_drain = 0;

  // A uniform reservoir of Ok samples: percentiles stay unbiased while the
  // memory they take (and so the peak RSS) does not grow with throughput.
  splace::Rng reservoir(0x5a3b1e);
  window.samples.reserve(max_samples);
  auto finish = [&](Slot& slot) {
    const Clock::time_point done = Clock::now();
    EngineResult result = slot.future.get();
    slot.busy = false;
    --busy;
    if (result.ok()) {
      ++window.ok;
      Sample sample;
      sample.latency_seconds = seconds_between(slot.submitted, done);
      sample.episode_seconds = seconds_between(slot.job.started, done);
      sample.kind = static_cast<std::uint32_t>(slot.job.kind);
      if (window.samples.size() < max_samples) {
        window.samples.push_back(sample);
      } else {
        const std::size_t j = reservoir.index(window.ok);
        if (j < max_samples) window.samples[j] = sample;
      }
      window.client_overhead_seconds +=
          sample.latency_seconds - result.latency_seconds;
    } else {
      ++window.rejected;
      std::cerr << "REJECTED: job " << slot.job.seq << ": "
                << splace::engine::to_string(result.outcome) << " "
                << result.message << "\n";
    }
    checker.observe(slot.job, result);
    workload.complete(slot.job, result);
    if (tracing && ++since_drain >= 1024) {
      since_drain = 0;
      drain_traces(group, window.spans);
    }
  };

  std::uint64_t completed = 0;
  while (!stopping || busy > 0) {
    if (!stopping && Clock::now() >= end) stopping = true;
    // A pass that finished nothing gives the CPU to the engine's workers.
    if (completed == window.ok + window.rejected) std::this_thread::yield();
    completed = window.ok + window.rejected;
    for (Slot& slot : slots) {
      if (!slot.busy && !stopping) {
        slot.job = workload.next(group);
        checker.expect(slot.job);
        splace::engine::Request request = slot.job.request;
        slot.submitted = Clock::now();
        if (slot.job.started == Clock::time_point{})
          slot.job.started = slot.submitted;
        slot.future = group.submit(std::move(request));
        slot.busy = true;
        ++busy;
        ++window.attempted;
      }
      if (slot.busy && slot.future.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready)
        finish(slot);
    }
  }
  window.elapsed_seconds = seconds_between(start, Clock::now());
  if (tracing) drain_traces(group, window.spans);
  return window;
}

double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      q * static_cast<double>(sorted.size() - 1) + 0.5);
  return sorted[std::min(rank, sorted.size() - 1)];
}

Tracking tracked_kind(const std::vector<Sample>& samples, double q,
                      bool episode) {
  Tracking tracking;
  if (samples.empty()) return tracking;
  std::vector<std::pair<double, std::uint32_t>> ranked;
  ranked.reserve(samples.size());
  for (const Sample& s : samples)
    ranked.emplace_back(episode ? s.episode_seconds : s.latency_seconds,
                        s.kind);
  std::sort(ranked.begin(), ranked.end());
  const double n = static_cast<double>(ranked.size() - 1);
  const auto lo = static_cast<std::size_t>(std::max(0.0, q - 0.005) * n);
  const auto hi = static_cast<std::size_t>(std::min(1.0, q + 0.005) * n);
  std::map<std::uint32_t, std::size_t> counts;
  for (std::size_t i = lo; i <= hi; ++i) ++counts[ranked[i].second];
  for (const auto& [kind, count] : counts) {
    const double share =
        static_cast<double>(count) / static_cast<double>(hi - lo + 1);
    if (share > tracking.share) tracking = Tracking{kind, share};
  }
  return tracking;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perf
