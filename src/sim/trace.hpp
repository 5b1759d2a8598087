// Timeline capture for the passive-monitoring simulator: per-epoch records
// of what was down, what the monitor observed, and what tomography
// concluded — enough to replay an incident post mortem or feed plotting
// pipelines (CSV export).
#pragma once

#include <ostream>
#include <vector>

#include "graph/graph.hpp"
#include "sim/simulator.hpp"

namespace splace::sim {

/// One monitoring epoch as the trace sees it.
struct EpochRecord {
  double time = 0;                      ///< epoch end time
  std::vector<NodeId> down_nodes;       ///< ground truth at epoch end
  std::size_t observed_paths = 0;       ///< paths that carried traffic
  std::size_t failed_paths = 0;         ///< of those, observed failed
  bool localization_ran = false;
  std::size_t candidates = 0;           ///< consistent sets found
  bool truth_among_candidates = false;
};

struct SimTrace {
  std::vector<EpochRecord> epochs;

  /// Epochs with at least one observed-failed path.
  std::size_t eventful_epochs() const;

  /// CSV: time,down,observed,failed,localized,candidates,truth.
  void to_csv(std::ostream& os) const;
};

/// Runs the simulator capturing the per-epoch timeline alongside the usual
/// aggregate report. Same event loop as sim::simulate, so the dynamics are
/// identical for the same config/seed.
struct TracedRun {
  SimReport report;
  SimTrace trace;
};

TracedRun simulate_traced(const ProblemInstance& instance,
                          const Placement& placement,
                          const SimConfig& config);

}  // namespace splace::sim
