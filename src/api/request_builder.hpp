// Fluent request builder for the serving engine's public API.
//
// Engine requests are plain aggregate structs (engine/request.hpp) — easy to
// construct in bulk, but easy to half-fill: a PlaceRequest with a forgotten
// snapshot hash is only caught at execution time as RejectedBadRequest. The
// builder makes the required field explicit and the optional ones readable:
//
//   engine::Request request = api::Request::place(Algorithm::GD)
//                                 .snapshot(hash)
//                                 .k(2)
//                                 .deadline(50)   // milliseconds
//                                 .build();
//
// build() validates eagerly: a missing snapshot or a setter that does not
// apply to the request's type (seed on an evaluate, k on a mutate) throws
// InvalidInput at the call site instead of surfacing later as a rejected
// response. The aggregate structs remain fully supported — the builder only
// produces them, it never replaces them.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "engine/request.hpp"

namespace splace::api {

class Request {
 public:
  /// Starts a placement request running `algorithm` on a snapshot.
  static Request place(Algorithm algorithm = Algorithm::GD);
  /// Starts an evaluation of `placement`'s metric triple.
  static Request evaluate(Placement placement);
  /// Starts a localization from failed path indices under `placement`.
  static Request localize(Placement placement,
                          std::vector<std::uint32_t> failed_paths);
  /// Starts a snapshot derivation applying `delta` to a parent snapshot.
  static Request mutate(TopologyDelta delta);
  /// Starts a portfolio run racing `algorithms` (registry names, validated
  /// eagerly; empty = every registered algorithm) on a snapshot.
  static Request portfolio(std::vector<std::string> algorithms = {});

  /// Target snapshot content hash (parent hash for mutate). Required.
  Request& snapshot(std::uint64_t content_hash);
  /// Failure bound k >= 1 (place / evaluate / localize only).
  Request& k(std::size_t failure_bound);
  /// Deadline in milliseconds (>= 0; 0 = none). Applies to every type.
  Request& deadline(double milliseconds);
  /// RNG seed (place / portfolio; consumed by seed-taking algorithms only).
  Request& seed(std::uint64_t rng_seed);
  /// Routes a place request through the pluggable algorithm registry under
  /// `name` (placement/algorithm.hpp), or appends `name` to a portfolio's
  /// algorithm list. Validated eagerly: an unregistered name throws
  /// InvalidInput listing every known name.
  Request& algorithm(std::string name);
  /// Objective a registry algorithm (or portfolio) maximizes. Applies to
  /// place and portfolio requests; the classic enum algorithms imply their
  /// objectives and ignore it.
  Request& objective(ObjectiveKind kind);
  /// Tenant id (applies to every type; empty = the default tenant). Routes
  /// the request to its tenant's cache partition and admission quota.
  Request& tenant(std::string tenant_id);

  /// The finished engine request. Throws InvalidInput when no snapshot was
  /// set. May be called repeatedly (the builder is not consumed).
  engine::Request build() const;

 private:
  explicit Request(engine::Request request);

  engine::Request request_;
  bool snapshot_set_ = false;
};

}  // namespace splace::api
