#include "engine/replay.hpp"

#include <chrono>
#include <cstring>
#include <istream>
#include <map>
#include <sstream>
#include <tuple>
#include <utility>

#include "graph/io.hpp"
#include "localization/observation.hpp"
#include "placement/algorithm.hpp"
#include "shard/group.hpp"
#include "topology/catalog.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/string_util.hpp"

namespace splace::engine {
namespace {

std::string where(std::size_t line) {
  return "replay line " + std::to_string(line);
}

[[noreturn]] void fail(std::size_t line, const std::string& message) {
  throw InvalidInput(where(line) + ": " + message);
}

std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> tokens;
  for (const std::string& field : split(std::string(line), ' '))
    if (!trim(field).empty()) tokens.emplace_back(trim(field));
  return tokens;
}

ReplaySnapshotSpec parse_snapshot_line(const std::vector<std::string>& tokens,
                                       std::size_t line) {
  if (tokens.size() < 2 || tokens.size() % 2 != 0)
    fail(line, "snapshot needs a name followed by key/value pairs");
  ReplaySnapshotSpec spec;
  spec.name = tokens[1];
  for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    if (key == "topology") spec.topology = value;
    else if (key == "alpha") spec.alpha = parse_double(value, where(line));
    else if (key == "services") spec.services = parse_uint(value, where(line));
    else if (key == "clients")
      spec.clients_per_service = parse_uint(value, where(line));
    else fail(line, "unknown snapshot key '" + key + "'");
  }
  if (spec.topology.empty()) fail(line, "snapshot needs a topology");
  if (spec.alpha < 0.0 || spec.alpha > 1.0)
    fail(line, "alpha must be in [0,1]");
  if (spec.clients_per_service < 1)
    fail(line, "clients must be >= 1");
  return spec;
}

ReplayRequestSpec parse_request_line(RequestType type,
                                     const std::vector<std::string>& tokens,
                                     std::size_t line) {
  if (tokens.size() < 2) fail(line, "request needs a snapshot name");
  ReplayRequestSpec spec;
  spec.type = type;
  spec.snapshot = tokens[1];
  std::size_t i = 2;
  if (type == RequestType::Localize) {
    if (i < tokens.size() && tokens[i] != "k" && tokens[i] != "algorithm")
      spec.failures = parse_uint(tokens[i++], where(line));
    spec.algorithm = "qos";  // cheap deterministic placement to observe
  } else {
    if (i < tokens.size() && tokens[i] != "k")
      spec.algorithm = to_lower(tokens[i++]);
  }
  for (; i + 1 < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    if (key == "k") spec.k = parse_uint(tokens[i + 1], where(line));
    else if (key == "algorithm") spec.algorithm = to_lower(tokens[i + 1]);
    else fail(line, "unknown request key '" + key + "'");
  }
  if (i != tokens.size()) fail(line, "dangling token '" + tokens[i] + "'");
  if (spec.k < 1) fail(line, "k must be >= 1");
  return spec;
}

ReplayCascadeSpec parse_cascade_line(const std::vector<std::string>& tokens,
                                     std::size_t line) {
  if (tokens.size() < 2) fail(line, "cascade needs a snapshot name");
  ReplayCascadeSpec spec;
  spec.snapshot = tokens[1];
  std::size_t i = 2;
  if (i < tokens.size() && tokens.size() % 2 != 0)
    spec.algorithm = to_lower(tokens[i++]);
  for (; i + 1 < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    if (key == "algorithm") spec.algorithm = to_lower(value);
    else if (key == "strength")
      spec.strength = parse_double(value, where(line));
    else if (key == "density") spec.density = parse_double(value, where(line));
    else if (key == "episodes") spec.episodes = parse_uint(value, where(line));
    else if (key == "ticks") spec.ticks = parse_uint(value, where(line));
    else if (key == "k") spec.k = parse_uint(value, where(line));
    else fail(line, "unknown cascade key '" + key + "'");
  }
  if (i != tokens.size()) fail(line, "dangling token '" + tokens[i] + "'");
  if (!(spec.strength > 0.0) || spec.strength > 1.0)
    fail(line, "strength must be in (0,1]");
  if (spec.density < 0.0 || spec.density > 1.0)
    fail(line, "density must be in [0,1]");
  if (spec.episodes < 1) fail(line, "episodes must be >= 1");
  if (spec.k < 1) fail(line, "k must be >= 1");
  return spec;
}

/// `portfolio <snapshot> [NAMES...] [k <n>]`: positional registry names
/// (each validated against the registry) until the first key token.
ReplayRequestSpec parse_portfolio_line(const std::vector<std::string>& tokens,
                                       std::size_t line) {
  if (tokens.size() < 2) fail(line, "portfolio needs a snapshot name");
  ReplayRequestSpec spec;
  spec.type = RequestType::Portfolio;
  spec.snapshot = tokens[1];
  std::size_t i = 2;
  for (; i < tokens.size() && tokens[i] != "k"; ++i) {
    const std::string name = to_lower(tokens[i]);
    if (!is_registered_algorithm(name))
      fail(line, "unknown registry algorithm '" + name + "'");
    spec.portfolio_algorithms.push_back(name);
  }
  for (; i + 1 < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    if (key == "k") spec.k = parse_uint(tokens[i + 1], where(line));
    else fail(line, "unknown portfolio key '" + key + "'");
  }
  if (i != tokens.size()) fail(line, "dangling token '" + tokens[i] + "'");
  if (spec.k < 1) fail(line, "k must be >= 1");
  return spec;
}

TenantQuota parse_quota_line(const std::vector<std::string>& tokens,
                             std::size_t line) {
  if (tokens.size() < 4 || tokens.size() % 2 != 0)
    fail(line,
         "expected: quota <tenant> [inflight <n>] [rate <r>] [burst <b>]");
  TenantQuota quota;
  quota.tenant = tokens[1] == "-" ? std::string() : tokens[1];
  for (std::size_t i = 2; i + 1 < tokens.size(); i += 2) {
    const std::string& key = tokens[i];
    const std::string& value = tokens[i + 1];
    if (key == "inflight")
      quota.max_in_flight = parse_uint(value, where(line));
    else if (key == "rate")
      quota.rate_per_second = parse_double(value, where(line));
    else if (key == "burst") quota.burst = parse_double(value, where(line));
    else fail(line, "unknown quota key '" + key + "'");
  }
  if (quota.rate_per_second < 0) fail(line, "rate must be >= 0");
  if (quota.burst < 0) fail(line, "burst must be >= 0");
  if (quota.burst > 0 && quota.rate_per_second <= 0)
    fail(line, "burst needs a positive rate");
  return quota;
}

}  // namespace

ReplaySpec parse_replay(std::istream& in) {
  ReplaySpec spec;
  std::string raw;
  std::size_t line = 0;
  // Request-state directives apply to every request line after them.
  std::uint64_t current_seed = 42;
  double current_deadline = 0;
  std::string current_tenant;
  // From `algo <name>`: routes later `place` lines through the registry.
  std::string current_algo;
  // Pending link mutations per snapshot name, flushed by `derive`.
  std::map<std::string, TopologyDelta> pending;
  auto push_request = [&](ReplayRequestSpec request) {
    request.seed = current_seed;
    request.deadline_seconds = current_deadline;
    request.tenant = current_tenant;
    if (request.type == RequestType::Place)
      request.registry_algorithm = current_algo;
    spec.requests.push_back(std::move(request));
  };
  while (std::getline(in, raw)) {
    ++line;
    const std::string uncommented = raw.substr(0, raw.find('#'));
    if (trim(uncommented).empty()) continue;
    const std::vector<std::string> tokens = tokenize(trim(uncommented));
    const std::string& key = tokens[0];
    if (key == "threads") {
      if (tokens.size() != 2) fail(line, "threads needs one value");
      spec.threads = parse_uint(tokens[1], where(line), kMaxWorkerThreads);
    } else if (key == "shards") {
      if (tokens.size() != 2) fail(line, "shards needs one value");
      spec.shards = parse_uint(tokens[1], where(line), kMaxWorkerThreads);
      if (spec.shards < 1) fail(line, "shards must be >= 1");
    } else if (key == "queue-depth") {
      if (tokens.size() != 2) fail(line, "queue-depth needs one value");
      spec.queue_depth = parse_uint(tokens[1], where(line));
      if (spec.queue_depth < 1) fail(line, "queue-depth must be >= 1");
    } else if (key == "cache") {
      if (tokens.size() != 2) fail(line, "cache needs one value");
      spec.cache_capacity = parse_uint(tokens[1], where(line));
    } else if (key == "repeat") {
      if (tokens.size() != 2) fail(line, "repeat needs one value");
      spec.repeat = parse_uint(tokens[1], where(line));
      if (spec.repeat < 1) fail(line, "repeat must be >= 1");
    } else if (key == "trace") {
      if (tokens.size() != 2) fail(line, "trace needs a capacity (traces)");
      spec.trace_capacity = parse_uint(tokens[1], where(line));
      if (spec.trace_capacity < 1) fail(line, "trace capacity must be >= 1");
      spec.tracing = true;
    } else if (key == "adaptive") {
      if (tokens.size() != 3)
        fail(line, "expected: adaptive <min-entries> <max-entries>");
      spec.cache_min_capacity = parse_uint(tokens[1], where(line));
      spec.cache_max_capacity = parse_uint(tokens[2], where(line));
      spec.adaptive_cache = true;
    } else if (key == "adaptive-window") {
      if (tokens.size() != 2)
        fail(line, "adaptive-window needs one value (responses)");
      spec.working_set_window = parse_uint(tokens[1], where(line));
    } else if (key == "adaptive-interval") {
      if (tokens.size() != 2)
        fail(line, "adaptive-interval needs one value (responses)");
      spec.adaptation_interval = parse_uint(tokens[1], where(line));
    } else if (key == "metrics") {
      if (tokens.size() != 1) fail(line, "metrics takes no values");
      spec.metrics_text = true;
    } else if (key == "seed") {
      if (tokens.size() != 2) fail(line, "seed needs one value");
      current_seed = parse_uint(tokens[1], where(line));
    } else if (key == "deadline") {
      if (tokens.size() != 2) fail(line, "deadline needs one value (ms)");
      const double ms = parse_double(tokens[1], where(line));
      if (ms < 0) fail(line, "deadline must be >= 0");
      current_deadline = ms / 1000.0;
    } else if (key == "tenant") {
      if (tokens.size() != 2)
        fail(line, "tenant needs one value ('-' = the default tenant)");
      current_tenant = tokens[1] == "-" ? std::string() : tokens[1];
    } else if (key == "algo") {
      if (tokens.size() != 2)
        fail(line, "algo needs one registry name ('-' = the enum path)");
      if (tokens[1] == "-") {
        current_algo.clear();
      } else {
        current_algo = to_lower(tokens[1]);
        if (!is_registered_algorithm(current_algo))
          fail(line, "unknown registry algorithm '" + current_algo + "'");
      }
    } else if (key == "quota") {
      TenantQuota quota = parse_quota_line(tokens, line);
      for (const TenantQuota& existing : spec.tenant_quotas)
        if (existing.tenant == quota.tenant)
          fail(line, "duplicate quota for tenant '" +
                         (quota.tenant.empty() ? "-" : quota.tenant) + "'");
      spec.tenant_quotas.push_back(std::move(quota));
    } else if (key == "snapshot") {
      spec.snapshots.push_back(parse_snapshot_line(tokens, line));
    } else if (key == "place") {
      push_request(parse_request_line(RequestType::Place, tokens, line));
    } else if (key == "evaluate") {
      push_request(parse_request_line(RequestType::Evaluate, tokens, line));
    } else if (key == "localize") {
      push_request(parse_request_line(RequestType::Localize, tokens, line));
    } else if (key == "portfolio") {
      push_request(parse_portfolio_line(tokens, line));
    } else if (key == "cascade") {
      ReplayCascadeSpec cascade = parse_cascade_line(tokens, line);
      cascade.seed = current_seed;
      spec.cascades.push_back(std::move(cascade));
    } else if (key == "mutate") {
      if (tokens.size() != 5 ||
          (tokens[2] != "addlink" && tokens[2] != "rmlink"))
        fail(line, "expected: mutate <snapshot> addlink|rmlink <u> <v>");
      const Edge link{parse_node_id(tokens[3], where(line)),
                      parse_node_id(tokens[4], where(line))};
      if (tokens[2] == "addlink")
        pending[tokens[1]].add_links.push_back(link);
      else
        pending[tokens[1]].remove_links.push_back(link);
    } else if (key == "derive") {
      if (tokens.size() != 2) fail(line, "derive needs a snapshot name");
      const auto it = pending.find(tokens[1]);
      if (it == pending.end() || it->second.empty())
        fail(line, "derive without pending mutate lines for '" + tokens[1] +
                       "'");
      ReplayRequestSpec request;
      request.type = RequestType::Mutate;
      request.snapshot = tokens[1];
      request.delta = std::move(it->second);
      pending.erase(it);
      push_request(std::move(request));
    } else {
      fail(line, "unknown directive '" + key + "'");
    }
  }
  for (const auto& [name, delta] : pending)
    if (!delta.empty())
      throw InvalidInput("replay: mutate lines for '" + name +
                         "' never flushed by a derive");
  if (spec.snapshots.empty()) throw InvalidInput("replay: no snapshots");
  if (spec.requests.empty() && spec.cascades.empty())
    throw InvalidInput("replay: no requests");
  return spec;
}

ReplaySpec parse_replay(const std::string& text) {
  std::istringstream in(text);
  return parse_replay(in);
}

shard::EngineGroupConfig ReplaySpec::group_config() const {
  shard::EngineGroupConfig config;
  config.shards = shards < 1 ? 1 : shards;
  config.shard = engine_config();
  return config;
}

ReplayWorkload build_replay_workload(const ReplaySpec& spec) {
  ReplayWorkload workload;
  workload.registry = std::make_shared<SnapshotRegistry>();

  // A name binds to an evolving (hash, instance) pair: base snapshots come
  // from the registry; each derive line rebinds the name to a locally
  // computed child that is deliberately NOT registered — the engine's
  // MutateRequest performs the real registration at run time.
  struct Binding {
    std::uint64_t hash = 0;
    std::shared_ptr<const ProblemInstance> instance;
  };
  std::map<std::string, Binding> bindings;
  for (const ReplaySnapshotSpec& snap : spec.snapshots) {
    const topology::CatalogEntry& entry =
        topology::catalog_entry(snap.topology);
    Graph g = topology::build(entry);
    const std::vector<NodeId> clients = topology::candidate_clients(entry, g);
    const std::size_t services =
        snap.services == 0 ? entry.services : snap.services;
    std::vector<Service> service_list;
    std::size_t cursor = 0;
    for (std::size_t s = 0; s < services; ++s) {
      Service svc;
      svc.name = snap.name + "/svc" + std::to_string(s);
      svc.alpha = snap.alpha;
      for (std::size_t c = 0; c < snap.clients_per_service; ++c) {
        svc.clients.push_back(clients[cursor]);
        cursor = (cursor + 1) % clients.size();
      }
      service_list.push_back(std::move(svc));
    }
    const auto snapshot = workload.registry->add(snap.name, std::move(g),
                                                 std::move(service_list));
    bindings[snap.name] = Binding{snapshot->hash(), snapshot->instance_ptr()};
  }

  // Placements for evaluate/localize lines come from direct library calls —
  // they double as the reference the engine's responses must match. Keyed
  // by (hash, algorithm, seed) rather than name: derive lines rebind names.
  std::map<std::tuple<std::uint64_t, std::string, std::uint64_t>, Placement>
      placements;
  auto placement_for = [&](const ReplayRequestSpec& request,
                           const Binding& bound) -> Placement {
    const auto key =
        std::make_tuple(bound.hash, request.algorithm, request.seed);
    auto it = placements.find(key);
    if (it != placements.end()) return it->second;
    Rng rng(request.seed);
    Placement placement = compute_placement(
        *bound.instance, parse_algorithm(request.algorithm), rng);
    placements.emplace(key, placement);
    return placement;
  };

  for (std::size_t line = 0; line < spec.requests.size(); ++line) {
    const ReplayRequestSpec& request = spec.requests[line];
    const auto name_it = bindings.find(request.snapshot);
    if (name_it == bindings.end())
      throw InvalidInput("replay: request names unknown snapshot '" +
                         request.snapshot + "'");
    Binding& bound = name_it->second;

    if (request.type == RequestType::Mutate) {
      MutateRequest mutate;
      mutate.snapshot = bound.hash;
      mutate.delta = request.delta;
      mutate.deadline_seconds = request.deadline_seconds;
      mutate.tenant = request.tenant;
      for (std::size_t it = 0; it < spec.repeat; ++it)
        workload.requests.push_back(mutate);
      // Resolve the child locally so later lines target the derived
      // topology; repeats of the same derive dedup inside the engine.
      Graph child_graph = apply_delta(bound.instance->graph(), request.delta);
      std::vector<Service> child_services =
          apply_delta(bound.instance->services(), request.delta,
                      child_graph.node_count());
      const std::uint64_t child_hash =
          topology_content_hash(child_graph, child_services);
      bound = Binding{
          child_hash,
          derive_instance(*bound.instance, request.delta,
                          std::move(child_graph), std::move(child_services))};
      continue;
    }

    if (request.type == RequestType::Place) {
      PlaceRequest place;
      place.snapshot = bound.hash;
      // An active `algo` directive routes the line through the registry;
      // the enum token is still parsed (validating the line) but unused.
      place.algorithm = parse_algorithm(request.algorithm);
      place.algorithm_name = request.registry_algorithm;
      place.k = request.k;
      place.seed = request.seed;
      place.deadline_seconds = request.deadline_seconds;
      place.tenant = request.tenant;
      for (std::size_t it = 0; it < spec.repeat; ++it)
        workload.requests.push_back(place);
      continue;
    }

    if (request.type == RequestType::Portfolio) {
      PortfolioRequest portfolio;
      portfolio.snapshot = bound.hash;
      portfolio.algorithms = request.portfolio_algorithms;
      portfolio.k = request.k;
      portfolio.seed = request.seed;
      portfolio.deadline_seconds = request.deadline_seconds;
      portfolio.tenant = request.tenant;
      for (std::size_t it = 0; it < spec.repeat; ++it)
        workload.requests.push_back(portfolio);
      continue;
    }

    const Placement placement = placement_for(request, bound);
    if (request.type == RequestType::Evaluate) {
      EvaluateRequest evaluate;
      evaluate.snapshot = bound.hash;
      evaluate.placement = placement;
      evaluate.k = request.k;
      evaluate.deadline_seconds = request.deadline_seconds;
      evaluate.tenant = request.tenant;
      for (std::size_t it = 0; it < spec.repeat; ++it)
        workload.requests.push_back(evaluate);
      continue;
    }

    const PathSet paths = bound.instance->paths_for_placement(placement);
    const std::size_t failures =
        std::min(request.failures, bound.instance->node_count());
    for (std::size_t it = 0; it < spec.repeat; ++it) {
      // Fresh failure draw per iteration: localize traffic stays
      // cache-resistant, unlike the repeated place/evaluate lines.
      Rng rng(1000003u * (line + 1) + it);
      const FailureScenario scenario = random_scenario(paths, failures, rng);
      LocalizeRequest localize;
      localize.snapshot = bound.hash;
      localize.placement = placement;
      localize.k = request.k;
      localize.deadline_seconds = request.deadline_seconds;
      localize.tenant = request.tenant;
      for (std::size_t p : scenario.failed_paths.to_indices())
        localize.failed_paths.push_back(static_cast<std::uint32_t>(p));
      workload.requests.push_back(std::move(localize));
    }
  }

  // Cascade lines resolve against the FINAL binding of their snapshot name:
  // the jobs run after the request phase, by which time any derive lines
  // have registered the derived snapshots the names now point at.
  for (std::size_t i = 0; i < spec.cascades.size(); ++i) {
    const ReplayCascadeSpec& cascade = spec.cascades[i];
    const auto name_it = bindings.find(cascade.snapshot);
    if (name_it == bindings.end())
      throw InvalidInput("replay: cascade names unknown snapshot '" +
                         cascade.snapshot + "'");
    const Binding& bound = name_it->second;
    Rng rng(cascade.seed + 7919 * (i + 1));
    ReplayCascadeJob job;
    job.snapshot = bound.hash;
    job.placement = compute_placement(
        *bound.instance, parse_algorithm(cascade.algorithm), rng);
    job.deps = cascade::random_dependencies(bound.instance->service_count(),
                                            cascade.density, cascade.strength,
                                            rng);
    job.episodes = cascade.episodes;
    job.ticks = cascade.ticks;
    job.k = cascade.k;
    job.seed = cascade.seed;
    workload.cascades.push_back(std::move(job));
  }
  return workload;
}

namespace {

/// Order-sensitive FNV-1a fold over response payloads — the source of
/// ReplayReport::response_digest. Deliberately excludes message text,
/// cache_hit and latency: those vary with load, the payload must not.
class ResponseDigest {
 public:
  std::uint64_t value() const { return hash_; }

  void fold(const EngineResult& result) {
    u64(static_cast<std::uint64_t>(result.type));
    u64(static_cast<std::uint64_t>(result.outcome));
    if (result.outcome != Outcome::Ok) return;
    switch (result.type) {
      case RequestType::Place:
        nodes(result.place.placement);
        f64(result.place.objective_value);
        metric(result.place.metrics);
        break;
      case RequestType::Evaluate:
        metric(result.metrics);
        break;
      case RequestType::Localize:
        nodes(result.localization.suspects);
        nodes(result.localization.exonerated);
        u64(result.localization.consistent_sets.size());
        for (const std::vector<NodeId>& set :
             result.localization.consistent_sets)
          nodes(set);
        nodes(result.localization.minimal_explanation);
        break;
      case RequestType::Mutate:
        u64(result.mutate.derived_snapshot);
        u64(result.mutate.deduplicated ? 1 : 0);
        u64(result.mutate.trees_reused);
        u64(result.mutate.trees_recomputed);
        u64(result.mutate.services_reused);
        u64(result.mutate.services_recomputed);
        u64(result.mutate.path_sets_reused);
        u64(result.mutate.path_sets_rebuilt);
        break;
      case RequestType::Portfolio:
        str(result.portfolio.winner);
        nodes(result.portfolio.placement);
        f64(result.portfolio.objective_value);
        metric(result.portfolio.metrics);
        u64(result.portfolio.max_identifiable_failures);
        u64(result.portfolio.entries.size());
        for (const PortfolioEntryResult& entry : result.portfolio.entries) {
          str(entry.algorithm);
          u64(entry.ok() ? 1 : 0);
          nodes(entry.placement);
          f64(entry.objective_value);
          f64(entry.reported_value);
          u64(entry.evaluations);
          u64(entry.max_identifiable_failures);
        }
        break;
    }
  }

 private:
  void u64(std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (value >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void str(const std::string& text) {
    u64(text.size());
    for (const char c : text) {
      hash_ ^= static_cast<unsigned char>(c);
      hash_ *= 1099511628211ull;
    }
  }
  void f64(double value) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof value);
    std::memcpy(&bits, &value, sizeof bits);
    u64(bits);
  }
  void metric(const MetricReport& m) {
    u64(m.coverage);
    u64(m.identifiability);
    u64(m.distinguishability);
  }
  void nodes(const std::vector<NodeId>& ids) {
    u64(ids.size());
    for (NodeId id : ids) u64(id);
  }

  std::uint64_t hash_ = 1469598103934665603ull;  // FNV-1a offset basis
};

/// The submit/await/tally core shared by the single-engine and group paths
/// (both servers expose the same batched-submit surface). Fills everything
/// in `report` except the post-run observability fields.
template <typename Server>
void fire_workload(Server& server, const ReplayWorkload& workload,
                   ReplayReport& report) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<EngineResult>> futures;
  futures.reserve(workload.requests.size());
  // Batched submission with derive lines as barriers: a MutateRequest is
  // submitted alone and awaited before anything after it, so later requests
  // that target the derived snapshot never race its registration.
  std::vector<Request> segment;
  auto flush_segment = [&] {
    if (segment.empty()) return;
    for (std::future<EngineResult>& future :
         server.submit(std::move(segment)))
      futures.push_back(std::move(future));
    segment.clear();
  };
  for (const Request& request : workload.requests) {
    if (request_type(request) == RequestType::Mutate) {
      flush_segment();
      futures.push_back(server.submit(request));
      futures.back().wait();
    } else {
      segment.push_back(request);
    }
  }
  flush_segment();
  ResponseDigest digest;
  for (std::future<EngineResult>& future : futures) {
    const EngineResult result = future.get();
    switch (result.outcome) {
      case Outcome::Ok: ++report.ok; break;
      case Outcome::RejectedQueueFull: ++report.rejected_queue_full; break;
      case Outcome::RejectedDeadline: ++report.rejected_deadline; break;
      case Outcome::RejectedBadRequest: ++report.rejected_bad_request; break;
      case Outcome::RejectedTenantQuota:
        ++report.rejected_tenant_quota;
        break;
    }
    if (result.cache_hit) ++report.cache_hits;
    digest.fold(result);
  }
  report.response_digest = digest.value();
  report.wall_seconds = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - start)
                            .count();
  report.requests_per_second =
      report.wall_seconds <= 0
          ? 0.0
          : static_cast<double>(report.total) / report.wall_seconds;
}

/// One `cascade` line against the engine whose bus its events belong on
/// (the group path resolves the snapshot's ingest shard first).
ReplayReport::CascadeSummary run_cascade_job(Engine& engine,
                                             const ReplayCascadeJob& job) {
  auto ingest = engine.open_ingest(job.snapshot, job.placement, job.k);
  cascade::RootCauseConfig rc_config;
  rc_config.ticks = job.ticks;
  cascade::RootCauseAnalyzer analyzer(*ingest, job.deps, rc_config,
                                      &engine.bus());
  Rng rng(job.seed);
  ReplayReport::CascadeSummary summary;
  summary.snapshot = job.snapshot;
  double blast_sum = 0;
  for (std::size_t e = 0; e < job.episodes; ++e) {
    const std::size_t root = rng.index(job.placement.size());
    const cascade::RootCauseReport episode = analyzer.analyze(root, rng);
    ++summary.episodes;
    if (episode.detected) ++summary.detected;
    if (episode.top1) ++summary.top1;
    if (episode.top3) ++summary.top3;
    summary.streamed_equals_batch &= episode.streamed_equals_batch;
    blast_sum += static_cast<double>(episode.blast_services);
  }
  if (summary.episodes > 0)
    summary.mean_blast_services =
        blast_sum / static_cast<double>(summary.episodes);
  return summary;
}

}  // namespace

ReplayReport run_replay(const ReplayWorkload& workload, EngineConfig config) {
  Engine engine(workload.registry, config);
  ReplayReport report;
  report.total = workload.requests.size();
  fire_workload(engine, workload, report);

  // Cascade jobs run after the request phase so derived snapshots are
  // registered; their events land on the engine bus before it is sampled.
  for (const ReplayCascadeJob& job : workload.cascades)
    report.cascades.push_back(run_cascade_job(engine, job));

  report.metrics = engine.metrics();
  report.metrics_text = engine.metrics_text();
  report.bus = engine.bus().stats();
  report.traces = engine.drain_traces();
  return report;
}

ReplayReport run_replay(const ReplayWorkload& workload,
                        const shard::EngineGroupConfig& config) {
  shard::EngineGroup group(workload.registry, config);
  ReplayReport report;
  report.total = workload.requests.size();
  fire_workload(group, workload, report);

  // Each cascade job runs against the shard its snapshot's ingest streams
  // pin to, so the analyzer publishes on that shard's bus.
  for (const ReplayCascadeJob& job : workload.cascades)
    report.cascades.push_back(
        run_cascade_job(group.shard(group.ingest_shard(job.snapshot)), job));

  report.metrics = group.metrics();
  report.metrics_text = group.metrics_text();
  for (std::size_t s = 0; s < group.shard_count(); ++s) {
    const stream::BusStats bus = group.shard(s).bus().stats();
    for (std::size_t kind = 0; kind < bus.published.size(); ++kind)
      report.bus.published[kind] += bus.published[kind];
    report.bus.dropped += bus.dropped;
    report.bus.callback_errors += bus.callback_errors;
    report.bus.subscribers += bus.subscribers;
    std::vector<RequestTrace> traces = group.shard(s).drain_traces();
    for (RequestTrace& trace : traces)
      report.traces.push_back(std::move(trace));
  }
  return report;
}

ReplayReport run_replay(const ReplaySpec& spec) {
  const ReplayWorkload workload = build_replay_workload(spec);
  if (spec.shards <= 1) return run_replay(workload, spec.engine_config());
  return run_replay(workload, spec.group_config());
}

}  // namespace splace::engine
