// Per-layer attribution for the traced run: the engine's seven RequestTrace
// spans from the traced window, plus direct, benchmark-timed calls into each
// layer's public functions on the workload's own inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace perf {

struct LayerRow {
  std::string name;
  std::string unit;
  double value = 0;
  std::uint64_t samples = 0;  ///< calls / requests / events behind the value
};

/// Metrics read off the traced window and the group it ran on.
std::vector<LayerRow> engine_rows(const WindowResult& traced,
                                  const WindowResult& untraced,
                                  splace::shard::EngineGroup& group);

/// Direct probes of the shard, placement, portfolio, monitoring,
/// localization, stream and dynamic layers.
std::vector<LayerRow> probe_rows(const LayerInputs& inputs,
                                 splace::shard::EngineGroup& group);

/// Self time per engine span as a table (mean us per traced request, share
/// of the request total); compute is split into greedy rounds and the rest.
void print_span_table(const SpanTotals& spans);

void print_layer_table(const std::vector<LayerRow>& rows);

}  // namespace perf
