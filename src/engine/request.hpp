// Typed requests and responses for the serving engine.
//
// A request names a snapshot by content hash plus the normalized parameters
// of one library operation; the response carries either the operation's
// result (bit-identical to the direct library call — the engine adds no
// numeric processing of its own) or an explicit rejection. Rejections are
// data, not exceptions: an overloaded or misused engine degrades gracefully
// instead of crashing a serving process.
#pragma once

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "core/experiment.hpp"
#include "core/metrics_report.hpp"
#include "dynamic/delta.hpp"
#include "monitoring/objective.hpp"
#include "placement/service.hpp"

namespace splace::engine {

enum class RequestType { Place, Evaluate, Localize, Mutate, Portfolio };

/// Number of RequestType values (for per-type counter arrays).
inline constexpr std::size_t kRequestTypeCount = 5;

/// Largest |F_k| (failure sets of at most k nodes) a place, evaluate or
/// portfolio request at k >= 2 may enumerate; past it the request is
/// RejectedBadRequest naming k, before any compute. Localize requests count
/// through signature classes instead and are exempt.
inline constexpr std::size_t kMaxFailureSets = 5'000'000;

/// Why a request produced no result. Ok is the only success outcome.
enum class Outcome {
  Ok,
  RejectedQueueFull,    ///< admission control: queue depth limit reached
  RejectedDeadline,     ///< request's deadline expired before execution
  RejectedBadRequest,   ///< unknown snapshot / malformed parameters
  RejectedTenantQuota,  ///< per-tenant in-flight or rate limit exceeded
};

std::string to_string(RequestType type);
std::string to_string(Outcome outcome);
bool is_rejected(Outcome outcome);

/// Compute a placement on a snapshot with one of the paper's algorithms —
/// or, when `algorithm_name` is non-empty, with any algorithm from the
/// pluggable registry (placement/algorithm.hpp), scored under `objective`.
/// Both run through the registry: a label runs as its registry_entry()
/// (core/experiment.hpp) under the label's objective.
struct PlaceRequest {
  std::uint64_t snapshot = 0;          ///< SnapshotRegistry content hash
  Algorithm algorithm = Algorithm::GD;
  /// Registry algorithm name (e.g. "pair_cover"). Empty = run the paper
  /// label `algorithm` above. An unknown name is RejectedBadRequest listing
  /// every registered name.
  std::string algorithm_name;
  /// Objective the `algorithm_name` entry maximizes. Applies only to
  /// `algorithm_name`: a label implies its own objective.
  ObjectiveKind objective = ObjectiveKind::Distinguishability;
  std::size_t k = 1;                   ///< failure bound (greedy objectives)
  std::uint64_t seed = 42;             ///< RNG seed (RD / "random" only)
  double deadline_seconds = 0;         ///< 0 = no deadline
  std::string tenant;                  ///< empty = default tenant
};

/// Evaluate the metric triple of a given placement at failure bound k.
struct EvaluateRequest {
  std::uint64_t snapshot = 0;
  Placement placement;
  std::size_t k = 1;
  double deadline_seconds = 0;
  std::string tenant;
};

/// Localize failures from a binary path observation: `failed_paths` are
/// indices into paths_for_placement(placement) (deterministic order).
struct LocalizeRequest {
  std::uint64_t snapshot = 0;
  Placement placement;
  std::vector<std::uint32_t> failed_paths;
  std::size_t k = 1;
  double deadline_seconds = 0;
  std::string tenant;
};

/// Derive a new snapshot by mutating a registered one: the delta is applied
/// to the parent and the child instance is registered under its own content
/// hash, sharing unchanged routing trees and path sets with the parent.
struct MutateRequest {
  std::uint64_t snapshot = 0;  ///< parent snapshot content hash
  TopologyDelta delta;
  double deadline_seconds = 0;
  std::string tenant;
};

/// Run a set of registered placement algorithms on one snapshot and pick
/// the winner under a common objective, with MIS certificates attached
/// (portfolio/portfolio.hpp behind the engine's caching/metrics/stream
/// surface). Algorithms execute one after another on the engine worker's
/// thread.
struct PortfolioRequest {
  std::uint64_t snapshot = 0;
  /// Registry names in tie-break priority order; empty = every registered
  /// algorithm. Unknown names are RejectedBadRequest listing the registry.
  std::vector<std::string> algorithms;
  ObjectiveKind objective = ObjectiveKind::Distinguishability;
  std::size_t k = 1;          ///< failure bound (objective + certificates)
  std::uint64_t seed = 42;    ///< forwarded to seed-consuming algorithms
  double deadline_seconds = 0;
  std::string tenant;
};

struct PlaceResult {
  Placement placement;
  /// The algorithm's own reported value (AlgorithmResult::reported_value):
  /// f(P) for the greedy family, the optimum for BF / "brute_force", and 0
  /// for the objective-free QoS and RD.
  double objective_value = 0;
  MetricReport metrics;  ///< the placement's metric triple at the request's k
};

/// One algorithm's entry in a portfolio response. Wall-clock timings are
/// deliberately absent: the payload is cacheable, so every field must be a
/// deterministic function of (snapshot, request parameters).
struct PortfolioEntryResult {
  std::string algorithm;
  std::string error;            ///< non-empty = this entry failed (and lost)
  Placement placement;
  double objective_value = 0;   ///< common-objective score (the ranking key)
  double reported_value = 0;    ///< the algorithm's own reported value
  std::size_t evaluations = 0;
  /// MIS certificate bound of this placement (portfolio/mis.hpp): localize()
  /// is guaranteed unique for every true failure set of size <= this.
  std::size_t max_identifiable_failures = 0;

  bool ok() const { return error.empty(); }
};

struct PortfolioResult {
  std::string winner;           ///< winning algorithm name
  Placement placement;          ///< the winning placement
  double objective_value = 0;   ///< winner's common-objective score
  MetricReport metrics;         ///< winner's metric triple at the request's k
  std::size_t max_identifiable_failures = 0;  ///< winner's certificate bound
  std::vector<PortfolioEntryResult> entries;  ///< request order
};

struct LocalizeResult {
  std::vector<NodeId> suspects;                     ///< ascending ids
  std::vector<NodeId> exonerated;                   ///< ascending ids
  std::vector<std::vector<NodeId>> consistent_sets; ///< sorted member lists
  std::vector<NodeId> minimal_explanation;
};

struct MutateResult {
  std::uint64_t derived_snapshot = 0;  ///< child content hash (registered)
  bool deduplicated = false;           ///< child content already registered
  std::size_t trees_reused = 0;        ///< BFS trees shared with the parent
  std::size_t trees_recomputed = 0;
  std::size_t services_reused = 0;     ///< whole service plans shared
  std::size_t services_recomputed = 0;
  std::size_t path_sets_reused = 0;
  std::size_t path_sets_rebuilt = 0;
};

/// One response. Exactly one payload field is meaningful, selected by
/// `type`, and only when `outcome == Ok`.
struct EngineResult {
  RequestType type = RequestType::Place;
  Outcome outcome = Outcome::Ok;
  std::string message;          ///< rejection detail (empty on Ok)
  bool cache_hit = false;
  double latency_seconds = 0;   ///< submit-to-completion, queue wait included
  PlaceResult place;
  MetricReport metrics;
  LocalizeResult localization;
  MutateResult mutate;
  PortfolioResult portfolio;

  bool ok() const { return outcome == Outcome::Ok; }
};

/// Any engine request, for batched submission and uniform dispatch.
using Request = std::variant<PlaceRequest, EvaluateRequest, LocalizeRequest,
                             MutateRequest, PortfolioRequest>;

RequestType request_type(const Request& request);
double deadline_of(const Request& request);
/// The request's tenant id (empty string = the default tenant).
const std::string& tenant_of(const Request& request);

/// Canonical cache keys: a request's normalized field encoding prefixed by
/// the snapshot hash. Two requests with equal keys are guaranteed equal
/// results (determinism contract), so the result cache compares full keys —
/// a 64-bit hash collision can never serve a wrong result. Normalization
/// drops fields that cannot change the result: deadlines, and the seed for
/// every algorithm except RD. A non-empty tenant appends a
/// `|t=<tenant>` suffix (tenant caches are partitioned, so two tenants never
/// share an entry); the empty default tenant adds nothing, keeping every
/// pre-tenant key byte-identical.
std::string canonical_key(const PlaceRequest& request);
std::string canonical_key(const EvaluateRequest& request);
std::string canonical_key(const LocalizeRequest& request);
/// The algorithm list keeps its order (it decides winner tie-breaks). The
/// seed is always encoded: whether any listed algorithm consumes it would
/// depend on registry state, and a canonical key must be a pure function of
/// the request.
std::string canonical_key(const PortfolioRequest& request);
/// Link lists are normalized ({u < v}, sorted) and client removals sorted —
/// none of those orders can change the derived topology. Client *additions*
/// keep their order: it decides where new clients append, which shapes the
/// derived snapshot's path sets.
std::string canonical_key(const MutateRequest& request);
std::string canonical_key(const Request& request);

}  // namespace splace::engine
