#include "monitoring/composite.hpp"

#include "monitoring/failure_sets.hpp"
#include "util/error.hpp"

namespace splace {

namespace {

/// C(|F_k|, 2) as a double (the k = 1 case reduces to C(|N|+1, 2)).
double max_pairs(std::size_t node_count, std::size_t k) {
  double total = 0;
  double binom = 1;
  for (std::size_t s = 0; s <= std::min(k, node_count); ++s) {
    total += binom;
    binom = binom * static_cast<double>(node_count - s) /
            static_cast<double>(s + 1);
  }
  return total * (total - 1) / 2.0;
}

class CompositeState final : public ObjectiveState {
 public:
  CompositeState(std::size_t node_count, std::size_t k,
                 const ObjectiveWeights& weights)
      : weights_(weights),
        node_scale_(1.0 / static_cast<double>(node_count)),
        pair_scale_(1.0 / max_pairs(node_count, k)),
        coverage_(make_objective_state(ObjectiveKind::Coverage, node_count,
                                       k)),
        identifiability_(make_objective_state(ObjectiveKind::Identifiability,
                                              node_count, k)),
        distinguishability_(make_objective_state(
            ObjectiveKind::Distinguishability, node_count, k)) {}

  CompositeState(const CompositeState& other)
      : weights_(other.weights_),
        node_scale_(other.node_scale_),
        pair_scale_(other.pair_scale_),
        coverage_(other.coverage_->clone()),
        identifiability_(other.identifiability_->clone()),
        distinguishability_(other.distinguishability_->clone()) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<CompositeState>(*this);
  }

  void add_path(const MeasurementPath& path) override {
    // Only advance the components with non-zero weight — the others never
    // influence value() and identifiability is the expensive one.
    if (weights_.coverage > 0) coverage_->add_path(path);
    if (weights_.identifiability > 0) identifiability_->add_path(path);
    if (weights_.distinguishability > 0)
      distinguishability_->add_path(path);
  }

  using ObjectiveState::add_paths;

  void add_paths(ArenaPathsRef paths) override {
    if (weights_.coverage > 0) coverage_->add_paths(paths);
    if (weights_.identifiability > 0) identifiability_->add_paths(paths);
    if (weights_.distinguishability > 0)
      distinguishability_->add_paths(paths);
  }

  double value() const override {
    double total = 0;
    if (weights_.coverage > 0)
      total += weights_.coverage * coverage_->value() * node_scale_;
    if (weights_.identifiability > 0)
      total +=
          weights_.identifiability * identifiability_->value() * node_scale_;
    if (weights_.distinguishability > 0)
      total += weights_.distinguishability *
               distinguishability_->value() * pair_scale_;
    return total;
  }

  // The blend is linear, so its marginal gain is the weighted sum of the
  // children's marginal gains — each an exact integer delta. Forwarding
  // reaches the children's scratch-based fast paths instead of cloning all
  // three states, and makes the two overloads bit-identical by construction
  // (identical weighted sums of identical integer deltas).
  using ObjectiveState::gain;

  double gain(const PathSet& extra) const override {
    return blended_gain(extra);
  }

  double gain(ArenaPathsRef extra) const override {
    return blended_gain(extra);
  }

 private:
  ObjectiveWeights weights_;
  double node_scale_;
  double pair_scale_;
  std::unique_ptr<ObjectiveState> coverage_;
  std::unique_ptr<ObjectiveState> identifiability_;
  std::unique_ptr<ObjectiveState> distinguishability_;

  template <typename Paths>
  double blended_gain(const Paths& extra) const {
    double total = 0;
    if (weights_.coverage > 0)
      total += weights_.coverage * coverage_->gain(extra) * node_scale_;
    if (weights_.identifiability > 0)
      total += weights_.identifiability * identifiability_->gain(extra) *
               node_scale_;
    if (weights_.distinguishability > 0)
      total += weights_.distinguishability *
               distinguishability_->gain(extra) * pair_scale_;
    return total;
  }
};

}  // namespace

std::unique_ptr<ObjectiveState> make_composite_objective_state(
    std::size_t node_count, std::size_t k, const ObjectiveWeights& weights) {
  SPLACE_EXPECTS(weights.valid());
  SPLACE_EXPECTS(k >= 1);
  SPLACE_EXPECTS(node_count >= 1);
  return std::make_unique<CompositeState>(node_count, k, weights);
}

double evaluate_composite(const PathSet& paths, std::size_t k,
                          const ObjectiveWeights& weights) {
  auto state =
      make_composite_objective_state(paths.node_count(), k, weights);
  state->add_paths(paths);
  return state->value();
}

}  // namespace splace
