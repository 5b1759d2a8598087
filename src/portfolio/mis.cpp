#include "portfolio/mis.hpp"

#include <string>

#include "monitoring/failure_sets.hpp"
#include "util/bitset.hpp"
#include "util/error.hpp"

namespace splace::portfolio {

namespace {

/// Certifies levels k = 1..k_max over per-node incidence rows, one
/// SignatureGroups per level: node v's capability rises to k while v is
/// k-identifiable, and a level is unique iff every F ∈ F_k has its own
/// group.
MisCertificate certify(const std::vector<DynamicBitset>& incidence,
                       std::size_t path_count, std::size_t k_max,
                       std::size_t budget) {
  if (k_max < 1)
    throw InvalidInput("mis_certificate: k_max must be >= 1, got " +
                       std::to_string(k_max));
  const std::size_t node_count = incidence.size();
  MisCertificate certificate;
  certificate.path_count = path_count;
  certificate.capability.assign(node_count, 0);
  bool unique_chain = true;
  for (std::size_t k = 1; k <= k_max; ++k) {
    if (failure_set_count(node_count, k) > budget) {
      certificate.truncated = true;
      break;
    }
    const SignatureGroups groups(incidence, path_count, k);
    const DynamicBitset identifiable = groups.identifiable_nodes();
    certificate.k_max = k;
    certificate.enumerated_sets += groups.total_sets();
    identifiable.for_each([&](std::size_t v) {
      certificate.capability[v] = k;
    });
    if (k == 1) certificate.identifiable_1 = identifiable.count();
    if (unique_chain && groups.group_count() == groups.total_sets())
      certificate.max_identifiable_failures = k;
    else
      unique_chain = false;
  }
  return certificate;
}

}  // namespace

MisCertificate mis_certificate(const PathSet& paths, std::size_t k_max,
                               std::size_t budget) {
  return certify(paths.node_incidence(), paths.size(), k_max, budget);
}

MisCertificate mis_certificate(const ProblemInstance& instance,
                               const Placement& placement, std::size_t k_max,
                               std::size_t budget) {
  if (placement.size() != instance.service_count())
    throw InvalidInput("mis_certificate: placement size " +
                       std::to_string(placement.size()) +
                       " != service count " +
                       std::to_string(instance.service_count()));
  for (std::size_t s = 0; s < placement.size(); ++s)
    if (!instance.is_candidate(s, placement[s]))
      throw InvalidInput("mis_certificate: host " +
                         std::to_string(placement[s]) +
                         " is not a candidate for service " +
                         std::to_string(s));
  const std::vector<DynamicBitset> incidence =
      instance.placement_incidence(placement);
  return certify(incidence, incidence.front().size(), k_max, budget);
}

}  // namespace splace::portfolio
