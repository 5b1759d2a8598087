#include "monitoring/objective.hpp"

#include "monitoring/coverage.hpp"
#include "monitoring/distinguishability.hpp"
#include "monitoring/equivalence_classes.hpp"
#include "monitoring/failure_partition.hpp"
#include "monitoring/identifiability.hpp"
#include "monitoring/kernels.hpp"
#include "util/error.hpp"

namespace splace {

std::string to_string(ObjectiveKind kind) {
  switch (kind) {
    case ObjectiveKind::Coverage: return "coverage";
    case ObjectiveKind::Identifiability: return "identifiability";
    case ObjectiveKind::Distinguishability: return "distinguishability";
  }
  return "?";
}

namespace {

class CoverageState final : public ObjectiveState {
 public:
  explicit CoverageState(std::size_t node_count)
      : covered_(node_count), scratch_(node_count) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<CoverageState>(*this);
  }

  void add_path(const MeasurementPath& path) override {
    covered_ |= path.node_set();
  }

  using ObjectiveState::add_paths;

  void add_paths(ArenaPathsRef paths) override {
    SPLACE_EXPECTS(paths.arena->node_count() == covered_.size());
    const PathArena& arena = *paths.arena;
    covered_.or_sparse(arena.set_union_words(paths.set),
                       arena.set_union_masks(paths.set),
                       arena.set_union_word_count(paths.set));
  }

  double value() const override {
    return static_cast<double>(covered_.count());
  }

  using ObjectiveState::gain;

  double gain(const PathSet& extra) const override {
    // New-bit popcount against a reusable scratch union: the copy-assign
    // reuses scratch_'s word storage, so the hot path never allocates.
    scratch_ = covered_;
    for (const MeasurementPath& p : extra.paths()) scratch_ |= p.node_set();
    return static_cast<double>(scratch_.count() - covered_.count());
  }

  double gain(ArenaPathsRef extra) const override {
    // One fused pass over the set's precomputed sparse union row — no
    // scratch copy, no per-path OR, no second popcount.
    SPLACE_EXPECTS(extra.arena->node_count() == covered_.size());
    return static_cast<double>(kernels::ops().coverage_new_bits(
        covered_.word_data(), extra.arena->set_union_words(extra.set),
        extra.arena->set_union_masks(extra.set),
        extra.arena->set_union_word_count(extra.set)));
  }

 private:
  DynamicBitset covered_;
  mutable DynamicBitset scratch_;
};

/// k = 1 identifiability/distinguishability on the incremental partition.
class EquivalenceState final : public ObjectiveState {
 public:
  EquivalenceState(std::size_t node_count, ObjectiveKind kind)
      : kind_(kind), classes_(node_count), scratch_(node_count) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<EquivalenceState>(*this);
  }

  void add_path(const MeasurementPath& path) override {
    classes_.add_path(path);
  }

  using ObjectiveState::add_paths;

  void add_paths(ArenaPathsRef paths) override { classes_.add_paths(paths); }

  double value() const override {
    return kind_ == ObjectiveKind::Identifiability
               ? static_cast<double>(classes_.identifiable_count())
               : static_cast<double>(classes_.distinguishable_pairs());
  }

  using ObjectiveState::gain;

  double gain(const PathSet& extra) const override {
    // Class-split deltas on scratch buffers — no partition copy. The
    // signature word limits this to 64 extra paths; larger sets take the
    // generic clone-based fallback. Algorithm 2's per-candidate sets DO
    // cross that line when a service has more than 64 clients (one path
    // per client), so the fallback is a live path, not dead code.
    if (extra.size() > 64) return ObjectiveState::gain(extra);
    const SplitDelta delta = classes_.split_delta(extra, scratch_);
    return delta_value(delta);
  }

  double gain(ArenaPathsRef extra) const override {
    if (extra.size() > 64) return ObjectiveState::gain(extra);
    const SplitDelta delta = classes_.split_delta(extra, scratch_);
    return delta_value(delta);
  }

 private:
  ObjectiveKind kind_;
  EquivalenceClasses classes_;
  mutable EquivalenceClasses::SplitScratch scratch_;

  double delta_value(const SplitDelta& delta) const {
    return kind_ == ObjectiveKind::Identifiability
               ? static_cast<double>(delta.newly_identifiable)
               : static_cast<double>(delta.newly_distinguishable);
  }
};

/// General-k exact state on the incremental failure-set partition
/// (O(|F_k|) per added path instead of full re-enumeration per evaluation).
class EnumerationState final : public ObjectiveState {
 public:
  EnumerationState(std::size_t node_count, ObjectiveKind kind, std::size_t k)
      : kind_(kind), partition_(node_count, k) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<EnumerationState>(*this);
  }

  void add_path(const MeasurementPath& path) override {
    partition_.add_path(path);
  }

  double value() const override {
    return kind_ == ObjectiveKind::Identifiability
               ? static_cast<double>(partition_.identifiability())
               : static_cast<double>(partition_.distinguishability());
  }

 private:
  ObjectiveKind kind_;
  FailureSetPartition partition_;
};

}  // namespace

std::unique_ptr<ObjectiveState> make_objective_state(ObjectiveKind kind,
                                                     std::size_t node_count,
                                                     std::size_t k) {
  SPLACE_EXPECTS(k >= 1);
  switch (kind) {
    case ObjectiveKind::Coverage:
      return std::make_unique<CoverageState>(node_count);
    case ObjectiveKind::Identifiability:
    case ObjectiveKind::Distinguishability:
      if (k == 1) return std::make_unique<EquivalenceState>(node_count, kind);
      return std::make_unique<EnumerationState>(node_count, kind, k);
  }
  throw ContractViolation("unknown objective kind");
}

double evaluate_objective(ObjectiveKind kind, const PathSet& paths,
                          std::size_t k) {
  const std::unique_ptr<ObjectiveState> state =
      make_objective_state(kind, paths.node_count(), k);
  state->add_paths(paths);
  return state->value();
}

}  // namespace splace
