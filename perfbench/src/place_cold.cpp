// place_cold: compute-bound placement with the result cache switched off.
//
// AT&T (catalog services, alpha 0.6) and a preferential-attachment graph of
// 1000 nodes (8 services x 4 random clients, alpha 0.3); Tiscali joins AT&T
// for the portfolio share only. Every request computes: the cache capacity
// is 0. Per job:
//   place     GC/GI/GD (enum path) or registry lazy_greedy /
//             stochastic_greedy, k = 1, on AT&T or BA-1000;
//   evaluate  k = 1 evaluation of a seeded random-under-QoS placement;
//   portfolio 3-4 registry algorithms on Tiscali or AT&T.
// The shares put p50 among AT&T places and p99 among BA-1000 places and
// portfolios (see facts()). Places and portfolios carry one of eight
// tenants: the tenant is part of the routing key, and the 14 (net,
// algorithm) keys alone split unevenly over two shards, leaving throughput
// to one busy worker.
#include "placement/baselines.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

using namespace splace;

constexpr double kEvaluateShare = 0.20;
constexpr double kPlaceAttShare = 0.52;
constexpr double kPlaceBaShare = 0.26;
constexpr double kPortfolioShare = 0.02;
constexpr std::size_t kBaNodes = 1000;
const char* const kTenants[] = {"c0", "c1", "c2", "c3",
                                "c4", "c5", "c6", "c7"};
constexpr std::size_t kTenantCount = 8;

enum Kind : std::size_t { kEvaluate, kPlaceAtt, kPlaceBa, kPortfolio };

struct PlaceAlgo {
  Algorithm algorithm;
  const char* name;  ///< registry name; empty = enum path
};
constexpr PlaceAlgo kAlgorithms[] = {{Algorithm::GC, ""},
                                     {Algorithm::GI, ""},
                                     {Algorithm::GD, ""},
                                     {Algorithm::GD, "lazy_greedy"},
                                     {Algorithm::GD, "stochastic_greedy"}};
constexpr std::size_t kAlgorithmCount = 5;

const std::vector<std::vector<std::string>> kPortfolios = {
    {"greedy", "lazy_greedy", "pair_cover"},
    {"greedy", "stochastic_greedy", "pair_cover", "qos"}};

struct Generator {
  Rng rng{0};
  std::uint64_t seq = 0;
};

class PlaceCold final : public Workload {
 public:
  std::vector<std::string> kinds() const override {
    return {"evaluate", "place:AT&T", "place:BA-1000", "portfolio"};
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
    att_ = add_catalog_net(*registry_, "AT&T", 0.6);
    tiscali_ = add_catalog_net(*registry_, "Tiscali", 0.6);
    // A fixed graph: every seed measures the same system.
    Rng topology_rng(kBaNodes);
    ba_ = add_ba_net(*registry_, "BA-1000", kBaNodes, 8, 4, 0.3, topology_rng);
  }

  std::shared_ptr<engine::SnapshotRegistry> registry() const override {
    return registry_;
  }

  void attach(shard::EngineGroup&) override {
    gen_ = Generator{Rng(seed_ ^ 0x91ace0ull), 0};
  }

  Job next(shard::EngineGroup&) override { return draw(gen_); }

  engine::EngineResult direct(const Job& job) const override {
    return direct_call(*registry_, job.request);
  }

  LayerInputs layer_inputs(std::uint64_t seed) const override {
    LayerInputs inputs;
    Rng rng(seed ^ 0x1a7e5ull);
    inputs.snapshots = {att_, ba_};
    inputs.portfolio_snapshots = {tiscali_, att_};
    inputs.portfolio_algorithms = kPortfolios.back();
    for (const std::uint64_t hash : inputs.snapshots) {
      const ProblemInstance& instance = registry_->find(hash)->instance();
      for (std::size_t i = 0; i < 10; ++i) {
        Placement placement = random_placement(instance, rng);
        const PathSet paths = instance.paths_for_placement(placement);
        const std::vector<NodeId> covered = covered_nodes(paths);
        inputs.observations.push_back(
            {hash, placement, {covered[rng.index(covered.size())]}, 1});
        inputs.placements.emplace_back(hash, std::move(placement));
      }
      TopologyDelta delta;
      delta.add_links.push_back(absent_link(instance.graph(), rng));
      inputs.deltas.emplace_back(hash, delta);
    }
    Generator gen{Rng(seed ^ 0x9a11ull), 0};
    for (std::size_t i = 0; i < 20000; ++i)
      inputs.requests.push_back(draw(gen).request);
    return inputs;
  }

  std::map<std::string, double> facts() const override {
    return {{"tenants", static_cast<double>(kTenantCount)},
            {"mix.evaluate", kEvaluateShare},
            {"mix.place_att", kPlaceAttShare},
            {"mix.place_ba1000", kPlaceBaShare},
            {"mix.portfolio", kPortfolioShare}};
  }

 private:
  Job draw(Generator& gen) const {
    Job job;
    job.seq = gen.seq++;
    const double u = gen.rng.uniform01();
    if (u < kEvaluateShare) {
      const bool on_ba = gen.rng.bernoulli(0.5);
      const std::uint64_t hash = on_ba ? ba_ : att_;
      const std::uint64_t draw_seed = gen.rng();
      Rng placement_rng(draw_seed);
      engine::EvaluateRequest request;
      request.snapshot = hash;
      request.placement =
          random_placement(registry_->find(hash)->instance(), placement_rng);
      job.kind = kEvaluate;
      job.check_id = mix_id(kEvaluate, hash, draw_seed);
      job.request = std::move(request);
    } else if (u < kEvaluateShare + kPlaceAttShare + kPlaceBaShare) {
      const bool on_ba = u >= kEvaluateShare + kPlaceAttShare;
      const std::size_t a = gen.rng.index(kAlgorithmCount);
      engine::PlaceRequest request;
      request.snapshot = on_ba ? ba_ : att_;
      request.algorithm = kAlgorithms[a].algorithm;
      request.algorithm_name = kAlgorithms[a].name;
      request.tenant = kTenants[gen.rng.index(kTenantCount)];
      job.kind = on_ba ? kPlaceBa : kPlaceAtt;
      job.check_id = mix_id(job.kind, a);
      job.request = std::move(request);
    } else {
      const bool on_att = gen.rng.bernoulli(0.5);
      const std::size_t p = gen.rng.index(kPortfolios.size());
      engine::PortfolioRequest request;
      request.snapshot = on_att ? att_ : tiscali_;
      request.algorithms = kPortfolios[p];
      request.tenant = kTenants[gen.rng.index(kTenantCount)];
      job.kind = kPortfolio;
      job.check_id = mix_id(kPortfolio, on_att, p);
      job.request = std::move(request);
    }
    return job;
  }

  std::uint64_t seed_ = 0;
  std::shared_ptr<engine::SnapshotRegistry> registry_;
  std::uint64_t att_ = 0;
  std::uint64_t tiscali_ = 0;
  std::uint64_t ba_ = 0;
  Generator gen_;
};

}  // namespace

std::unique_ptr<Workload> make_place_cold() {
  return std::make_unique<PlaceCold>();
}

}  // namespace perf
