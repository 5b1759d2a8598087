// Monitoring objective functions f(P) in incremental form.
//
// The greedy placement (Algorithm 2) must evaluate f(P ∪ P(C_s, h)) for many
// candidate (service, host) pairs per iteration. ObjectiveState captures the
// paper's reuse trick (Section V-D.1): keep the state for the already-placed
// paths and evaluate candidates against it. Candidate evaluation goes
// through gain(), which concrete states implement allocation-free on scratch
// buffers (clone-based value_with() remains as the generic fallback).
//
// Kinds:
//   Coverage            |C(P)|                       (monotone submodular)
//   Identifiability     |S_k(P)|                     (monotone, NOT submodular)
//   Distinguishability  |D_k(P)|                     (monotone submodular)
//
// For k = 1 the identifiability/distinguishability states run on
// EquivalenceClasses (incremental); for k > 1 they keep the added paths and
// regroup F_k over node signature classes (SignatureGroups) on value(),
// caching the result until a path is added. Their gains take the generic
// clone-based path.
//
// Placement loops commit their picks through add_paths(ArenaPathsRef):
// coverage ORs the set's precomputed union row, k = 1 refines the flat
// partition by the set's sparse rows, and states without an arena-native
// commit fall back to the materialized PathSet.
#pragma once

#include <memory>
#include <string>

#include "monitoring/path.hpp"
#include "monitoring/path_arena.hpp"

namespace splace {

enum class ObjectiveKind { Coverage, Identifiability, Distinguishability };

/// Short display name ("coverage", "identifiability", "distinguishability").
std::string to_string(ObjectiveKind kind);

/// Incremental evaluation state for one objective over a growing path set.
class ObjectiveState {
 public:
  virtual ~ObjectiveState() = default;

  /// Deep copy, used for hypothetical candidate evaluation.
  virtual std::unique_ptr<ObjectiveState> clone() const = 0;

  /// Extends the path set this state describes.
  virtual void add_path(const MeasurementPath& path) = 0;

  /// Current f(P).
  virtual double value() const = 0;

  void add_paths(const PathSet& paths) {
    for (const MeasurementPath& p : paths.paths()) add_path(p);
  }

  /// Extends the path set by an arena-resident set. Must leave the state
  /// equal to add_paths(paths.materialize()); states with an arena-native
  /// commit override it, everything else falls back through the bridge.
  virtual void add_paths(ArenaPathsRef paths) {
    add_paths(paths.materialize());
  }

  /// Marginal gain f(P ∪ extra) − f(P) without mutating this state.
  ///
  /// This is the greedy hot path: Algorithm 2 calls it once per candidate
  /// (service, host) pair per iteration. The base implementation clones the
  /// whole state; concrete states override it with allocation-free delta
  /// computations on reusable scratch buffers. Overrides must return exactly
  /// `value_with(extra) - value()` (all objectives are integer counts, so
  /// the subtraction is exact in double).
  virtual double gain(const PathSet& extra) const {
    return value_with(extra) - value();
  }

  /// Marginal gain of an arena-resident path set — the word-parallel hot
  /// path at scale. Must equal gain(extra.materialize()) bit for bit; states
  /// with kernel-backed implementations override it, everything else falls
  /// back through the legacy bridge.
  virtual double gain(ArenaPathsRef extra) const {
    return gain(extra.materialize());
  }

  /// f(P ∪ extra) without mutating this state (clone + add + read).
  double value_with(const PathSet& extra) const {
    const std::unique_ptr<ObjectiveState> trial = clone();
    trial->add_paths(extra);
    return trial->value();
  }
};

/// Creates the evaluation state for `kind` over `node_count` nodes with
/// failure bound `k` (ignored by Coverage). Requires k >= 1.
std::unique_ptr<ObjectiveState> make_objective_state(ObjectiveKind kind,
                                                     std::size_t node_count,
                                                     std::size_t k = 1);

/// The k >= 2 identifiability/distinguishability state that
/// make_objective_state returns, restricted to the nodes of interest N_I
/// when `interest` is given: |S_k ∩ N_I|, or the distinguishable pairs with
/// at least one failure set meeting N_I. `interest` must span the node
/// universe. Requires k >= 2 and a non-coverage kind.
std::unique_ptr<ObjectiveState> make_signature_state(
    ObjectiveKind kind, std::size_t node_count, std::size_t k,
    const DynamicBitset* interest = nullptr);

/// One-shot evaluation of an objective over a complete path set.
double evaluate_objective(ObjectiveKind kind, const PathSet& paths,
                          std::size_t k = 1);

}  // namespace splace
