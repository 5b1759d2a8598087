#include "monitoring/identifiability.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace splace {

DynamicBitset identifiable_nodes(const PathSet& paths, std::size_t k) {
  return SignatureGroups(paths, k).identifiable_nodes();
}

std::size_t identifiability(const PathSet& paths, std::size_t k) {
  return identifiable_nodes(paths, k).count();
}

bool is_k_identifiable(NodeId v, const PathSet& paths, std::size_t k) {
  SPLACE_EXPECTS(v < paths.node_count());
  // Literal Definition 2: compare every pair of failure sets differing in v.
  std::vector<std::vector<NodeId>> with_v;
  std::vector<DynamicBitset> with_v_sig;
  std::vector<std::vector<NodeId>> without_v;
  std::vector<DynamicBitset> without_v_sig;
  for_each_failure_set(paths.node_count(), k,
                       [&](const std::vector<NodeId>& f) {
                         const bool has_v =
                             std::find(f.begin(), f.end(), v) != f.end();
                         if (has_v) {
                           with_v.push_back(f);
                           with_v_sig.push_back(paths.affected_paths(f));
                         } else {
                           without_v.push_back(f);
                           without_v_sig.push_back(paths.affected_paths(f));
                         }
                       });
  for (std::size_t i = 0; i < with_v.size(); ++i)
    for (std::size_t j = 0; j < without_v.size(); ++j)
      if (with_v_sig[i] == without_v_sig[j]) return false;
  return true;
}

std::size_t non_identifiable_failure_sets(const PathSet& paths,
                                          std::size_t k) {
  return SignatureGroups(paths, k).shared_sets();
}

}  // namespace splace
