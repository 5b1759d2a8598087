// localize_episodes: failure episodes streamed through the ingest plane and
// confirmed by a k = 2 LocalizeRequest.
//
// AT&T (catalog services, alpha 0.6) and a preferential-attachment graph of
// 300 nodes (8 services x 4 random clients, alpha 0.3), each with its GD
// placement computed at setup. An episode fails 1 or 2 nodes drawn from the
// nodes the placement's paths cover (so it is always detected), feeds one
// probe per path in a shuffled order into the net's EngineGroup::open_ingest
// stream, then submits a k = 2 LocalizeRequest with the final down set. The
// episode ends when that response is in hand. The result cache is off, so
// every request enumerates: with it on, repeated failure sets fill it over
// the first tens of seconds and throughput drifts with run length. kBaShare
// puts p99 among BA-300 episodes and p50 among AT&T ones.
#include <algorithm>
#include <iostream>
#include <unordered_map>

#include "placement/greedy.hpp"
#include "stream/ingest.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

using namespace splace;

constexpr double kBaShare = 0.10;
constexpr std::size_t kFailureBound = 2;
constexpr std::uint64_t kProbeIntervalUs = 500;

enum Kind : std::size_t { kAtt, kBa };

struct Net {
  std::uint64_t hash = 0;
  Placement placement;
  PathSet paths{0};
  std::vector<NodeId> covered;
};

struct Generator {
  Rng rng{0};
  std::uint64_t seq = 0;
};

class LocalizeEpisodes final : public Workload {
 public:
  std::vector<std::string> kinds() const override {
    return {"localize:AT&T", "localize:BA-300"};
  }
  std::size_t outstanding() const override { return 4; }

  shard::EngineGroupConfig group_config() const override {
    shard::EngineGroupConfig config;
    config.shards = 2;
    config.shard.threads = 1;
    config.shard.cache_capacity = 0;
    return config;
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    registry_ = std::make_shared<engine::SnapshotRegistry>();
    nets_[kAtt].hash = add_catalog_net(*registry_, "AT&T", 0.6);
    // A fixed graph: every seed measures the same system.
    Rng topology_rng(300);
    nets_[kBa].hash =
        add_ba_net(*registry_, "BA-300", 300, 8, 4, 0.3, topology_rng);
    for (Net& net : nets_) {
      const ProblemInstance& instance = registry_->find(net.hash)->instance();
      net.placement =
          greedy_placement(instance, ObjectiveKind::Distinguishability)
              .placement;
      net.paths = instance.paths_for_placement(net.placement);
      net.covered = covered_nodes(net.paths);
    }
  }

  std::shared_ptr<engine::SnapshotRegistry> registry() const override {
    return registry_;
  }

  void attach(shard::EngineGroup& group) override {
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      ingests_[n] = group.open_ingest(nets_[n].hash, nets_[n].placement,
                                      kFailureBound);
      stream::SubscribeOptions options;
      options.mask = stream::event_bit(stream::EventKind::Localization);
      options.capacity = 1 << 16;
      buses_[n] = &group.shard(group.ingest_shard(nets_[n].hash)).bus();
      subscriptions_[n] = buses_[n]->subscribe(options);
    }
    gen_ = Generator{Rng(seed_ ^ 0xe915ull), 0};
    streamed_.clear();
    mismatches_ = 0;
  }

  Job next(shard::EngineGroup&) override {
    Episode episode = draw(gen_);
    Job& job = episode.job;
    const std::size_t n = job.kind;
    stream::ObservationIngest& ingest = *ingests_[n];
    const auto& request = std::get<engine::LocalizeRequest>(job.request);
    std::vector<bool> down(nets_[n].paths.size(), false);
    for (std::uint32_t p : request.failed_paths) down[p] = true;

    job.started = Clock::now();
    ingest.begin_episode(0);
    std::uint64_t t = 0;
    for (std::uint32_t p : episode.order) {
      t += kProbeIntervalUs;
      ingest.observe(p, down[p] ? stream::PathState::Down
                                : stream::PathState::Up,
                     t);
    }
    std::vector<std::vector<NodeId>> sets = ingest.consistent_sets();

    // A candidate list that ends on exactly one set must have published
    // one LocalizationEvent naming it during this episode.
    bool event_ok = sets.size() != 1;
    for (const auto& event : subscriptions_[n]->poll())
      if (const auto* l = std::get_if<stream::LocalizationEvent>(&*event))
        event_ok = event_ok || l->failure_set == sets.front();
    if (!event_ok) {
      ++mismatches_;
      std::cerr << "MISMATCH: episode " << job.seq
                << " ended unique without a matching LocalizationEvent\n";
    }
    streamed_.emplace(job.seq, std::move(sets));
    return std::move(job);
  }

  void complete(const Job& job, const engine::EngineResult& result) override {
    const auto it = streamed_.find(job.seq);
    if (result.ok() && it->second != result.localization.consistent_sets) {
      ++mismatches_;
      std::cerr << "MISMATCH: episode " << job.seq
                << " streamed candidate sets differ from its "
                   "LocalizeRequest response\n";
    }
    streamed_.erase(it);
  }

  std::size_t detach(shard::EngineGroup&) override {
    for (std::size_t n = 0; n < nets_.size(); ++n) {
      buses_[n]->unsubscribe(subscriptions_[n]);
      subscriptions_[n].reset();
      ingests_[n].reset();
    }
    return mismatches_;
  }

  engine::EngineResult direct(const Job& job) const override {
    return direct_call(*registry_, job.request);
  }

  LayerInputs layer_inputs(std::uint64_t seed) const override {
    LayerInputs inputs;
    Rng rng(seed ^ 0x1a7e5ull);
    for (const Net& net : nets_) {
      inputs.snapshots.push_back(net.hash);
      inputs.placements.emplace_back(net.hash, net.placement);
      TopologyDelta delta;
      delta.add_links.push_back(
          absent_link(registry_->find(net.hash)->instance().graph(), rng));
      inputs.deltas.emplace_back(net.hash, delta);
    }
    inputs.portfolio_snapshots = {nets_[kAtt].hash};
    inputs.portfolio_algorithms = {"greedy", "lazy_greedy", "pair_cover",
                                   "qos"};
    Generator gen{Rng(seed ^ 0x9a11ull), 0};
    // Both nets appear among the localize probes: a few BA-300 episodes
    // cost as much as many AT&T ones.
    std::array<std::size_t, 2> taken{};
    for (std::size_t i = 0; i < 20000; ++i) {
      Episode episode = draw(gen);
      const std::size_t n = episode.job.kind;
      if (taken[n] < (n == kAtt ? 40u : 10u)) {
        ++taken[n];
        inputs.observations.push_back({nets_[n].hash, nets_[n].placement,
                                       episode.failed, kFailureBound});
      }
      inputs.requests.push_back(std::move(episode.job.request));
    }
    return inputs;
  }

  std::map<std::string, double> facts() const override {
    return {{"mix.att", 1.0 - kBaShare},
            {"mix.ba300", kBaShare},
            {"paths.att", static_cast<double>(nets_[kAtt].paths.size())},
            {"paths.ba300", static_cast<double>(nets_[kBa].paths.size())}};
  }

 private:
  struct Episode {
    Job job;
    std::vector<NodeId> failed;
    std::vector<std::uint32_t> order;  ///< probe arrival order
  };

  Episode draw(Generator& gen) const {
    Episode episode;
    Job& job = episode.job;
    job.seq = gen.seq++;
    job.kind = gen.rng.bernoulli(kBaShare) ? kBa : kAtt;
    const Net& net = nets_[job.kind];
    const std::size_t failures = 1 + gen.rng.index(kFailureBound);
    episode.failed = gen.rng.sample(net.covered, failures);
    std::sort(episode.failed.begin(), episode.failed.end());
    episode.order.resize(net.paths.size());
    for (std::uint32_t p = 0; p < episode.order.size(); ++p)
      episode.order[p] = p;
    gen.rng.shuffle(episode.order);

    engine::LocalizeRequest request;
    request.snapshot = net.hash;
    request.placement = net.placement;
    request.failed_paths = failed_path_indices(net.paths, episode.failed);
    request.k = kFailureBound;
    Digest id;
    id.value(job.kind);
    id.nodes(request.failed_paths);
    job.check_id = id.result();
    job.request = std::move(request);
    return episode;
  }

  std::uint64_t seed_ = 0;
  std::shared_ptr<engine::SnapshotRegistry> registry_;
  std::array<Net, 2> nets_;
  std::array<std::unique_ptr<stream::ObservationIngest>, 2> ingests_;
  std::array<stream::EventBus*, 2> buses_{};
  std::array<std::shared_ptr<stream::Subscription>, 2> subscriptions_;
  std::unordered_map<std::uint64_t, std::vector<std::vector<NodeId>>>
      streamed_;
  std::size_t mismatches_ = 0;
  Generator gen_;
};

}  // namespace

std::unique_ptr<Workload> make_localize_episodes() {
  return std::make_unique<LocalizeEpisodes>();
}

}  // namespace perf
