#include "cascade/root_cause.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace splace::cascade {

namespace {

bool same_result(const LocalizationResult& streamed,
                 const LocalizationResult& batch) {
  return streamed.exonerated == batch.exonerated &&
         streamed.suspects == batch.suspects &&
         streamed.unobserved == batch.unobserved &&
         streamed.consistent_sets == batch.consistent_sets &&
         streamed.minimal_explanation == batch.minimal_explanation;
}

}  // namespace

RootCauseAnalyzer::RootCauseAnalyzer(stream::ObservationIngest& ingest,
                                     DependencyGraph deps,
                                     RootCauseConfig config,
                                     stream::EventBus* bus)
    : ingest_(ingest), deps_(std::move(deps)), config_(config), bus_(bus) {
  if (std::string error = deps_.validate(); !error.empty())
    throw InvalidInput(error);
  if (deps_.service_count() != ingest_.placement().size())
    throw InvalidInput(
        "RootCauseAnalyzer: DependencyGraph.service_count does not match "
        "the ingest placement");
}

RootCauseReport RootCauseAnalyzer::analyze(std::size_t root_service,
                                           Rng& rng) {
  const Placement& placement = ingest_.placement();
  const PathSet& paths = ingest_.paths();

  RootCauseReport report;
  report.episode = propagate_episode(placement, deps_, root_service,
                                     config_.ticks, rng);
  report.blast_services = report.episode.failed_services.size();
  report.blast_nodes = report.episode.down_nodes.size();

  // Ground-truth path states: a path is down iff it traverses a down host.
  const DynamicBitset down_bits =
      paths.affected_paths(report.episode.down_nodes);

  // Stream the evidence, one probe report per path.
  ingest_.begin_episode(0);
  std::uint64_t timestamp_us = 0;
  for (std::size_t pi = 0; pi < paths.size(); ++pi) {
    timestamp_us += config_.probe_interval_us;
    ingest_.observe(static_cast<std::uint32_t>(pi),
                    down_bits.test(pi) ? stream::PathState::Down
                                       : stream::PathState::Up,
                    timestamp_us);
  }
  report.detected = ingest_.status().detected;

  const LocalizationResult streamed = ingest_.result();
  const LocalizationResult batch = localize(paths, down_bits, ingest_.k());
  report.streamed_equals_batch = same_result(streamed, batch);
  report.consistent_sets = batch.consistent_sets.size();

  // Implicated nodes: the union of the candidate failure sets (falling
  // back to the suspect pool when the evidence admits no set of size <= k,
  // as a saturated cascade does).
  DynamicBitset implicated(batch.suspects.size());
  for (const std::vector<NodeId>& set : batch.consistent_sets)
    for (NodeId v : set) implicated.set(v);
  if (batch.consistent_sets.empty()) implicated = batch.suspects;
  report.suspects = implicated.count();

  // Implicated services, and the dependency-depth-weighted ranking.
  std::vector<std::size_t> implicated_services;
  for (std::size_t s = 0; s < placement.size(); ++s)
    if (implicated.test(placement[s])) implicated_services.push_back(s);

  for (std::size_t r : implicated_services) {
    const std::vector<std::uint32_t> depth = deps_.depth_from(r);
    double score = 0;
    for (std::size_t s : implicated_services) {
      if (s == r) {
        score += 1.0;
      } else if (depth[s] != kUnreachableDepth) {
        score += 1.0 / (1.0 + static_cast<double>(depth[s]));
      } else {
        score -= 1.0;
      }
    }
    report.ranking.push_back(RankedRoot{r, score});
  }
  std::stable_sort(report.ranking.begin(), report.ranking.end(),
                   [](const RankedRoot& a, const RankedRoot& b) {
                     if (a.score != b.score) return a.score > b.score;
                     return a.service < b.service;
                   });
  for (std::size_t i = 0; i < report.ranking.size(); ++i) {
    if (report.ranking[i].service == root_service) {
      report.truth_rank = i + 1;
      break;
    }
  }
  report.top1 = report.truth_rank == 1;
  report.top3 = report.truth_rank >= 1 && report.truth_rank <= 3;

  if (bus_ != nullptr) {
    stream::EventHeader header;
    header.stream = ingest_.stream_id();
    header.snapshot = ingest_.snapshot_hash();
    header.sequence = episodes_;
    header.timestamp_us = timestamp_us;
    header.latency_us = timestamp_us;  // evidence time to reach the verdict
    bus_->publish(stream::RootCauseEvent{
        header,
        report.ranking.empty() ? root_service : report.ranking.front().service,
        root_service, report.top1, report.blast_services,
        report.ranking.size()});
  }
  ++episodes_;
  return report;
}

}  // namespace splace::cascade
