#include "monitoring/distinguishability.hpp"

namespace splace {

std::size_t distinguishability(const PathSet& paths, std::size_t k) {
  return SignatureGroups(paths, k).distinguishable_pairs();
}

std::size_t uncertainty_of(const PathSet& paths, std::size_t k,
                           const std::vector<NodeId>& failure_set) {
  return SignatureGroups(paths, k).group_size(failure_set) - 1;
}

double average_uncertainty(const PathSet& paths, std::size_t k) {
  // Every member of a group of size m has m-1 indistinguishable peers.
  const SignatureGroups groups(paths, k);
  return static_cast<double>(groups.ordered_pairs()) /
         static_cast<double>(groups.total_sets());
}

double lemma3_closed_form(const PathSet& paths, std::size_t k) {
  const SignatureGroups groups(paths, k);
  const auto total = static_cast<double>(groups.total_sets());
  const double all_pairs = total * (total - 1) / 2;
  const auto dk = static_cast<double>(groups.distinguishable_pairs());
  return 2.0 / total * (all_pairs - dk);
}

}  // namespace splace
