#include "placement/interest.hpp"

#include "monitoring/coverage.hpp"
#include "monitoring/failure_sets.hpp"
#include "monitoring/identifiability.hpp"
#include "util/error.hpp"

namespace splace {

namespace {
std::size_t pairs_of(std::size_t n) { return n * (n - 1) / 2; }
}  // namespace

std::size_t interest_coverage(const PathSet& paths,
                              const DynamicBitset& interest) {
  SPLACE_EXPECTS(interest.size() == paths.node_count());
  return covered_set(paths).intersection_count(interest);
}

std::size_t interest_identifiability(const PathSet& paths, std::size_t k,
                                     const DynamicBitset& interest) {
  SPLACE_EXPECTS(interest.size() == paths.node_count());
  return identifiable_nodes(paths, k).intersection_count(interest);
}

std::size_t interest_distinguishability(const PathSet& paths, std::size_t k,
                                        const DynamicBitset& interest) {
  SPLACE_EXPECTS(interest.size() == paths.node_count());
  return SignatureGroups(paths, k, &interest).interest_pairs();
}

std::size_t interest_identifiability_k1(const EquivalenceClasses& classes,
                                        const DynamicBitset& interest) {
  SPLACE_EXPECTS(interest.size() == classes.node_count());
  std::size_t count = 0;
  interest.for_each([&](std::size_t v) {
    if (classes.class_size(static_cast<NodeId>(v)) == 1) ++count;
  });
  return count;
}

std::size_t interest_distinguishability_k1(const EquivalenceClasses& classes,
                                           const DynamicBitset& interest) {
  SPLACE_EXPECTS(interest.size() == classes.node_count());
  const std::size_t vertices = classes.node_count() + 1;  // N ∪ {v0}
  const std::size_t interest_count = interest.count();
  std::size_t result =
      pairs_of(vertices) - pairs_of(vertices - interest_count);
  // Subtract indistinguishable interest pairs, walking each class once (via
  // its first still-unseen member).
  std::vector<bool> seen(vertices, false);
  for (NodeId x = 0; x < vertices; ++x) {
    if (seen[x]) continue;
    const auto& cls = classes.class_of(static_cast<NodeId>(x));
    std::size_t interest_members = 0;
    for (NodeId member : cls) {
      seen[member] = true;
      if (member < classes.node_count() && interest.test(member))
        ++interest_members;
    }
    result -= pairs_of(cls.size()) - pairs_of(cls.size() - interest_members);
  }
  return result;
}

namespace {

class InterestCoverageState final : public ObjectiveState {
 public:
  InterestCoverageState(std::size_t node_count, DynamicBitset interest)
      : covered_(node_count), interest_(std::move(interest)) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<InterestCoverageState>(*this);
  }

  void add_path(const MeasurementPath& path) override {
    covered_ |= path.node_set();
  }

  double value() const override {
    return static_cast<double>(covered_.intersection_count(interest_));
  }

 private:
  DynamicBitset covered_;
  DynamicBitset interest_;
};

class InterestEquivalenceState final : public ObjectiveState {
 public:
  InterestEquivalenceState(std::size_t node_count, ObjectiveKind kind,
                           DynamicBitset interest)
      : kind_(kind), classes_(node_count), interest_(std::move(interest)) {}

  std::unique_ptr<ObjectiveState> clone() const override {
    return std::make_unique<InterestEquivalenceState>(*this);
  }

  void add_path(const MeasurementPath& path) override {
    classes_.add_path(path);
  }

  double value() const override {
    return kind_ == ObjectiveKind::Identifiability
               ? static_cast<double>(
                     interest_identifiability_k1(classes_, interest_))
               : static_cast<double>(
                     interest_distinguishability_k1(classes_, interest_));
  }

 private:
  ObjectiveKind kind_;
  EquivalenceClasses classes_;
  DynamicBitset interest_;
};

}  // namespace

std::unique_ptr<ObjectiveState> make_interest_objective_state(
    ObjectiveKind kind, std::size_t node_count, std::size_t k,
    DynamicBitset interest) {
  SPLACE_EXPECTS(interest.size() == node_count);
  SPLACE_EXPECTS(k >= 1);
  switch (kind) {
    case ObjectiveKind::Coverage:
      return std::make_unique<InterestCoverageState>(node_count,
                                                     std::move(interest));
    case ObjectiveKind::Identifiability:
    case ObjectiveKind::Distinguishability:
      if (k == 1)
        return std::make_unique<InterestEquivalenceState>(node_count, kind,
                                                          std::move(interest));
      return make_signature_state(kind, node_count, k, &interest);
  }
  throw ContractViolation("unknown objective kind");
}

}  // namespace splace
