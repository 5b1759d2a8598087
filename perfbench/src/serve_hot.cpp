// serve_hot: the serving layers under a cache-resident working set.
//
// Three catalog nets (Abovenet, Tiscali, AT&T at alpha 0.6). Each net has a
// pool of two absent links; toggling them gives four topology states per
// net, all registered and warmed before timing, so a derive lands on known
// content (the registry stays bounded) and moves that net's traffic to a
// state whose results are already cached. Per job:
//   kMutateShare    a MutateRequest toggling one pool link of one net;
//   kLocalizeShare  a k = 1 LocalizeRequest of a fresh single failure on one
//                   of the net's evaluated placements (tenant t3, so its
//                   cache churn stays in its own partition);
//   otherwise       a place (GC/GI/GD) or evaluate (k = 1) request drawn
//                   Zipf(1) over 24 fixed (net, slot) keys, tenants t0..t2.
// p50 lands among cache-hit place/evaluate responses, p99 among localizes.
#include <algorithm>
#include <cmath>

#include "placement/baselines.hpp"
#include "placement/greedy.hpp"
#include "workloads.hpp"

namespace perf {
namespace {

using namespace splace;
using engine::EvaluateRequest;
using engine::LocalizeRequest;
using engine::MutateRequest;
using engine::PlaceRequest;

constexpr double kAlpha = 0.6;
constexpr double kMutateShare = 0.006;
constexpr double kLocalizeShare = 0.14;
constexpr std::size_t kLinksPerNet = 2;
constexpr std::size_t kStates = 1u << kLinksPerNet;
constexpr std::size_t kPlaceSlots = 3;     // GC, GI, GD
constexpr std::size_t kEvaluateSlots = 5;  // QoS + 4 random placements
constexpr std::size_t kSlots = kPlaceSlots + kEvaluateSlots;
constexpr double kZipfExponent = 1.0;
const char* const kNets[] = {"Abovenet", "Tiscali", "AT&T"};
constexpr std::size_t kNetCount = 3;
const char* const kTenants[] = {"t0", "t1", "t2"};
constexpr const char* kLocalizeTenant = "t3";
constexpr Algorithm kPlaceAlgorithms[kPlaceSlots] = {
    Algorithm::GC, Algorithm::GI, Algorithm::GD};

enum Kind : std::size_t { kKeyed, kLocalize, kMutate };

/// One evaluated placement of one state, with what a single-failure
/// observation on it needs.
struct Probe {
  Placement placement;
  std::vector<NodeId> covered;
  PathSet paths{0};
};

struct State {
  std::uint64_t hash = 0;
  std::vector<Probe> probes;  ///< kEvaluateSlots entries
};

struct Net {
  std::vector<Edge> pool;
  std::array<State, kStates> states;
};

struct Generator {
  Rng rng{0};
  std::array<std::size_t, kNetCount> mask{};
  std::uint64_t seq = 0;
};

class ServeHot final : public Workload {
 public:
  std::vector<std::string> kinds() const override {
    return {"place/evaluate", "localize", "mutate"};
  }
  std::size_t outstanding() const override { return 16; }

  shard::EngineGroupConfig group_config() const override {
    shard::EngineGroupConfig config;
    config.shards = 2;
    config.shard.threads = 1;
    config.shard.cache_capacity = 1024;
    config.shard.max_queue_depth = 1024;
    return config;
  }

  void setup(std::uint64_t seed) override {
    seed_ = seed;
    registry_ = std::make_shared<engine::SnapshotRegistry>();
    // Link pools, evaluated placements and key ranks are part of the system
    // under test, fixed for every seed; the seed draws the traffic.
    Rng rng(0x5e7e40700ull);
    for (std::size_t n = 0; n < kNetCount; ++n) {
      Net& net = nets_[n];
      net.pool.clear();
      const std::uint64_t base = add_catalog_net(*registry_, kNets[n], kAlpha);
      Graph graph = registry_->find(base)->instance().graph();
      for (std::size_t l = 0; l < kLinksPerNet; ++l) {
        const Edge link = absent_link(graph, rng);
        graph.add_edge(link.u, link.v);
        net.pool.push_back(link);
      }
      net.states[0].hash = base;
      // State m has pool link l present iff bit l of m is set; derive each
      // from the state without its highest bit.
      for (std::size_t m = 1; m < kStates; ++m) {
        std::size_t high = 0;
        while ((m >> (high + 1)) != 0) ++high;
        TopologyDelta delta;
        delta.add_links.push_back(net.pool[high]);
        net.states[m].hash =
            registry_->derive(net.states[m & ~(std::size_t{1} << high)].hash,
                              delta)
                .snapshot->hash();
      }
      for (State& state : net.states) {
        const ProblemInstance& instance =
            registry_->find(state.hash)->instance();
        state.probes.clear();
        for (std::size_t e = 0; e < kEvaluateSlots; ++e) {
          Probe probe;
          probe.placement = e == 0 ? best_qos_placement(instance)
                                   : random_placement(instance, rng);
          probe.paths = instance.paths_for_placement(probe.placement);
          probe.covered = covered_nodes(probe.paths);
          state.probes.push_back(std::move(probe));
        }
      }
    }
    // Zipf weights over (net, slot) keys, ranks shuffled by the seed.
    std::vector<std::size_t> ranks(kNetCount * kSlots);
    for (std::size_t i = 0; i < ranks.size(); ++i) ranks[i] = i;
    rng.shuffle(ranks);
    zipf_.assign(ranks.size(), 0);
    for (std::size_t i = 0; i < ranks.size(); ++i)
      zipf_[i] = 1.0 / std::pow(static_cast<double>(ranks[i] + 1),
                                kZipfExponent);
  }

  std::shared_ptr<engine::SnapshotRegistry> registry() const override {
    return registry_;
  }

  void attach(shard::EngineGroup& group) override {
    // Every key of every state for every cache-using tenant, plus every
    // derive, so timing starts on a warm cache.
    std::vector<engine::Request> requests;
    for (const char* tenant : kTenants) {
      for (std::size_t n = 0; n < kNetCount; ++n) {
        for (std::size_t m = 0; m < kStates; ++m) {
          for (std::size_t slot = 0; slot < kSlots; ++slot)
            requests.push_back(key_request(n, m, slot, tenant));
          for (std::size_t l = 0; l < kLinksPerNet; ++l)
            requests.push_back(mutate_request(n, m, l, tenant));
        }
      }
    }
    warm(group, requests, outstanding());
    gen_ = fresh_generator();
  }

  Job next(shard::EngineGroup&) override { return draw(gen_); }

  engine::EngineResult direct(const Job& job) const override {
    return direct_call(*registry_, job.request);
  }

  LayerInputs layer_inputs(std::uint64_t seed) const override {
    LayerInputs inputs;
    Rng rng(seed ^ 0x1a7e5ull);
    for (std::size_t n = 0; n < kNetCount; ++n) {
      const Net& net = nets_[n];
      inputs.snapshots.push_back(net.states[0].hash);
      inputs.portfolio_snapshots.push_back(net.states[0].hash);
      for (const Probe& probe : net.states[0].probes)
        inputs.placements.emplace_back(net.states[0].hash, probe.placement);
      for (const Edge& link : net.pool) {
        TopologyDelta delta;
        delta.add_links.push_back(link);
        inputs.deltas.emplace_back(net.states[0].hash, delta);
      }
    }
    inputs.portfolio_algorithms = {"greedy", "lazy_greedy", "pair_cover",
                                   "qos"};
    Generator gen = fresh_generator();
    gen.rng = Rng(seed ^ 0x9a11ull);
    for (std::size_t i = 0; i < 20000; ++i) {
      Job job = draw(gen);
      if (job.kind == kLocalize && inputs.observations.size() < 60) {
        const auto& request = std::get<LocalizeRequest>(job.request);
        inputs.observations.push_back(
            {request.snapshot, request.placement,
             {static_cast<NodeId>(job.tag)}, request.k});
      }
      inputs.requests.push_back(std::move(job.request));
    }
    return inputs;
  }

  std::map<std::string, double> facts() const override {
    return {{"mix.mutate", kMutateShare},
            {"mix.localize", kLocalizeShare},
            {"mix.place_evaluate", 1.0 - kMutateShare - kLocalizeShare},
            {"zipf_exponent", kZipfExponent},
            {"keys", static_cast<double>(kNetCount * kSlots)},
            {"states_per_net", static_cast<double>(kStates)},
            {"registry_snapshots", static_cast<double>(registry_->size())}};
  }

 private:
  Generator fresh_generator() const {
    Generator gen;
    gen.rng = Rng(seed_ ^ 0x6e4e7a70ull);
    return gen;
  }

  engine::Request key_request(std::size_t n, std::size_t m, std::size_t slot,
                              const std::string& tenant) const {
    const State& state = nets_[n].states[m];
    if (slot < kPlaceSlots) {
      PlaceRequest request;
      request.snapshot = state.hash;
      request.algorithm = kPlaceAlgorithms[slot];
      request.tenant = tenant;
      return request;
    }
    EvaluateRequest request;
    request.snapshot = state.hash;
    request.placement = state.probes[slot - kPlaceSlots].placement;
    request.tenant = tenant;
    return request;
  }

  engine::Request mutate_request(std::size_t n, std::size_t m, std::size_t l,
                                 const std::string& tenant) const {
    MutateRequest request;
    request.snapshot = nets_[n].states[m].hash;
    if ((m >> l) & 1u)
      request.delta.remove_links.push_back(nets_[n].pool[l]);
    else
      request.delta.add_links.push_back(nets_[n].pool[l]);
    request.tenant = tenant;
    return request;
  }

  Job draw(Generator& gen) const {
    Job job;
    job.seq = gen.seq++;
    const double u = gen.rng.uniform01();
    if (u < kMutateShare) {
      const std::size_t n = gen.rng.index(kNetCount);
      const std::size_t l = gen.rng.index(kLinksPerNet);
      const std::size_t m = gen.mask[n];
      job.kind = kMutate;
      job.request = mutate_request(n, m, l, kTenants[gen.rng.index(3)]);
      job.check_id = mix_id(kMutate, n, m, l);
      gen.mask[n] = m ^ (std::size_t{1} << l);
    } else if (u < kMutateShare + kLocalizeShare) {
      const std::size_t n = gen.rng.index(kNetCount);
      const std::size_t m = gen.mask[n];
      const std::size_t e = gen.rng.index(kEvaluateSlots);
      const Probe& probe = nets_[n].states[m].probes[e];
      const NodeId failed = probe.covered[gen.rng.index(probe.covered.size())];
      LocalizeRequest request;
      request.snapshot = nets_[n].states[m].hash;
      request.placement = probe.placement;
      request.failed_paths = failed_path_indices(probe.paths, {failed});
      request.k = 1;
      request.tenant = kLocalizeTenant;
      job.kind = kLocalize;
      job.request = std::move(request);
      job.check_id = mix_id(kLocalize, n, m, e, failed);
      job.tag = failed;
    } else {
      const std::size_t key = gen.rng.weighted_index(zipf_);
      const std::size_t n = key / kSlots;
      const std::size_t slot = key % kSlots;
      const std::size_t m = gen.mask[n];
      job.kind = kKeyed;
      job.request = key_request(n, m, slot, kTenants[gen.rng.index(3)]);
      job.check_id = mix_id(job.kind, n, m, slot);
    }
    return job;
  }

  std::uint64_t seed_ = 0;
  std::shared_ptr<engine::SnapshotRegistry> registry_;
  std::array<Net, kNetCount> nets_;
  std::vector<double> zipf_;
  Generator gen_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_hot() {
  return std::make_unique<ServeHot>();
}

}  // namespace perf
