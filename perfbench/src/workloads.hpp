// The three workloads and the direct library calls their gates compare
// against. See perfbench/README.md for what each workload stresses and why.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "engine/snapshot.hpp"
#include "harness.hpp"
#include "util/random.hpp"

namespace perf {

std::unique_ptr<Workload> make_serve_hot();
std::unique_ptr<Workload> make_place_cold();
std::unique_ptr<Workload> make_localize_episodes();

/// Registers a catalog network (Section VI-A services) at QoS slack alpha.
std::uint64_t add_catalog_net(splace::engine::SnapshotRegistry& registry,
                              const std::string& name, double alpha);

/// Registers a preferential-attachment graph (m = 2) with `services`
/// services of `clients` distinct random clients each.
std::uint64_t add_ba_net(splace::engine::SnapshotRegistry& registry,
                         const std::string& name, std::size_t nodes,
                         std::size_t services, std::size_t clients,
                         double alpha, splace::Rng& rng);

/// A link absent from the snapshot's graph, drawn uniformly. Adding it can
/// never disconnect anything, so toggling it is always a valid delta.
splace::Edge absent_link(const splace::Graph& graph, splace::Rng& rng);

/// Every node that lies on at least one path, ascending.
std::vector<splace::NodeId> covered_nodes(const splace::PathSet& paths);

/// Indices of the paths that traverse any node of `failed`, ascending.
std::vector<std::uint32_t> failed_path_indices(
    const splace::PathSet& paths, const std::vector<splace::NodeId>& failed);

/// Mixes integers into one id (for Job::check_id).
template <typename... Ts>
std::uint64_t mix_id(const Ts&... parts) {
  Digest d;
  (d.value(parts), ...);
  return d.result();
}

/// The response the engine must reproduce for `request`, computed by the
/// direct registry or library call it wraps.
splace::engine::EngineResult direct_call(
    const splace::engine::SnapshotRegistry& registry,
    const splace::engine::Request& request);

/// Submits `requests` through the group, at most `outstanding` at a time,
/// and waits for all of them. Throws if any is rejected.
void warm(splace::shard::EngineGroup& group,
          const std::vector<splace::engine::Request>& requests,
          std::size_t outstanding);

}  // namespace perf
