#!/usr/bin/env sh
# Build, test, and regenerate every reproduced table/figure.
set -e
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure

# Suites the sanitizer legs must cover. Listed explicitly so a renamed or
# dropped suite fails the script instead of silently shrinking coverage.
TSAN_SUITES="test_thread_pool test_greedy test_lazy_greedy test_determinism \
  test_engine test_engine_stress test_dynamic test_dynamic_engine \
  test_engine_trace test_api test_stream test_metrics_text \
  test_path_arena test_kernels test_stochastic test_cascade test_shard \
  test_algorithm_registry test_portfolio test_brute_force"
ASAN_SUITES="test_thread_pool test_engine test_engine_stress \
  test_dynamic test_dynamic_engine test_engine_trace test_api test_stream \
  test_metrics_text test_path_arena test_kernels test_stochastic \
  test_cascade test_shard test_algorithm_registry test_portfolio \
  test_localization test_sim test_sim_trace test_equivalence \
  test_objective_gain test_metric_relations test_experiment test_scenario \
  test_failure_sets test_identifiability test_distinguishability \
  test_interest test_fusion test_instance test_graph_io test_routing \
  test_shortest_path test_generators test_graph_stats"
UBSAN_SUITES="test_path_arena test_kernels test_stochastic test_greedy \
  test_lazy_greedy test_objective_gain test_equivalence test_bitset \
  test_cascade test_shard test_algorithm_registry test_portfolio \
  test_localization test_stream test_sim test_sim_trace \
  test_failure_sets test_identifiability test_distinguishability \
  test_interest test_metrics_text test_fusion test_instance test_graph_io \
  test_routing test_shortest_path test_generators test_graph_stats \
  test_dynamic"

require_suites() {
  dir="$1"; shift
  for t in "$@"; do
    if [ ! -x "$dir/tests/$t" ]; then
      echo "ERROR: expected suite binary $dir/tests/$t is missing" >&2
      exit 1
    fi
  done
}

# TSan pass over the concurrency-sensitive suites: the thread pool itself,
# parallel_for under brute force's sweep on a caller-owned pool (its chunks
# merge under a mutex), the serving engine (snapshot registry, result cache,
# admission control), the shards, and the dynamic-topology subsystem
# (incremental derives, placement repair).
cmake -B build-tsan -G Ninja -DSPLACE_SANITIZE=thread \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build build-tsan --target $TSAN_SUITES
require_suites build-tsan $TSAN_SUITES
ctest --test-dir build-tsan --output-on-failure \
  -R "ThreadPool|ParallelFor|ParallelChunkCount|Greedy|Determinism|Engine|Dynamic|AdaptiveController|CacheAccounting|RequestBuilder|Facade|StreamIngest|EventBus|EngineStream|ApiBuilders|MetricsText|PathArena|Kernels|Stochastic|Cascade|Shard|Exposition|Replay|Portfolio|AlgorithmRegistry|MisCertificate|PairCover|BruteForce"

# ASan pass over the serving layer: the engine moves results through
# futures, a shared LRU cache, and snapshots that share routing trees and
# path sets across derived instances — lifetime bugs show up here first.
# The localizer suites ride along for the enumerator's flat signature and
# record buffers, and the simulator suites for the one event loop and its
# overlay hook (the cascade suite drives the hook; these drive the noise and
# untraced paths only they reach). The equivalence, gain and metric-relation
# suites cover the flat partition, whose refinement is index arithmetic over
# positions, class ids and class ranges. The experiment and scenario suites
# cover the label table every front door (replay, scenario files, the CLI)
# resolves algorithm tokens through. The failure-set, identifiability,
# distinguishability and interest suites cover SignatureGroups: its open
# addressing over flat signature rows, the class-mask words and the
# saturating set counts. The fusion and instance suites cover the one
# localizer's callers that read incidence rows: evidence fusion over its two
# path unions, and placement_incidence over the arena's deduplicated rows.
# The graph-io suite joins the scenario and replay suites for the one number
# parser of the line grammars. The routing, shortest-path, generator and
# graph-stats suites cover bfs_trees' per-pass scratch (root masks, the
# active bitmap, the trees each pass writes in place) and the Fenwick
# sampler behind preferential_attachment.
cmake -B build-asan -G Ninja -DSPLACE_SANITIZE=address \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build build-asan --target $ASAN_SUITES
require_suites build-asan $ASAN_SUITES
ctest --test-dir build-asan --output-on-failure \
  -R "ThreadPool|ParallelFor|ParallelChunkCount|Engine|Dynamic|AdaptiveController|CacheAccounting|RequestBuilder|Facade|StreamIngest|EventBus|EngineStream|ApiBuilders|MetricsText|PathArena|Kernels|Stochastic|Cascade|Shard|Exposition|Replay|Portfolio|AlgorithmRegistry|MisCertificate|PairCover|Localizer|Observation|Simulator|SimTrace|Equivalence|ObjectiveGain|RandomPathSets|MetricRelations|Experiment|Scenario|FailureSet|SignatureGroups|FailurePartition|PartitionMatchesExact|Identifiability|DefinitionOracle|NonIdentifiable|Distinguishability|Lemma3|UncertaintyOf|Interest|Fusion|Instance|GraphIo|Routing|Bfs|Generators|MeanDistance"

# UBSan pass over the kernel/arena/placement arithmetic: the word-parallel
# kernels live on shifts, casts, and pointer spans — exactly UBSan territory.
# The failure-set enumerator's word ORs and combination indexing (batch
# localizer and streaming ingest) run here too, as do SignatureGroups'
# class combinations and saturating 64/128-bit counts, the simulator's
# event loop with and without the cascade overlay, the metrics text
# writer's log2 bucket shifts and label stack, the fusion and instance
# suites' incidence rows, and the edge-list reader's node-id bound. So do
# bfs_trees' 64-bit root masks and bit shifts (the routing, shortest-path,
# graph-stats and dynamic suites, whose routing updates run the kernel on
# arbitrary root lists) and the Fenwick sampler's prefix-sum descent.
cmake -B build-ubsan -G Ninja -DSPLACE_SANITIZE=undefined \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo
# shellcheck disable=SC2086
cmake --build build-ubsan --target $UBSAN_SUITES
require_suites build-ubsan $UBSAN_SUITES
ctest --test-dir build-ubsan --output-on-failure \
  -R "PathArena|Kernels|Stochastic|Greedy|Objective|Equivalence|Bitset|Cascade|Shard|Exposition|MetricsText|Replay|Portfolio|AlgorithmRegistry|MisCertificate|PairCover|Localizer|Observation|StreamIngest|Simulator|SimTrace|FailureSet|SignatureGroups|FailurePartition|PartitionMatchesExact|Identifiability|DefinitionOracle|NonIdentifiable|Distinguishability|Lemma3|UncertaintyOf|Interest|Fusion|Instance|GraphIo|Routing|Bfs|Generators|MeanDistance|Dynamic"

# Warnings-as-errors leg: one full build with the warning set promoted to
# errors, so a new -Wall/-Wextra/-Wconversion diagnostic fails the script
# instead of scrolling past in the log.
cmake -B build-werror -G Ninja -DSPLACE_WERROR=ON
cmake --build build-werror

# Streaming smoke leg: a short fault-injection run through the live
# detect/localize plane. bench_localize exits nonzero unless the run saw
# >= 1 detection event, 0 dropped events, a zero-publish no-subscriber
# pass, and streamed-vs-batch agreement on every episode.
build/bench/bench_localize --episodes 8 --out BENCH_localize_smoke.json
rm -f BENCH_localize_smoke.json

# Scale-kernel smoke leg: bench_scale --smoke exits nonzero when the arena
# representation disagrees with the legacy layout (gains or placements).
build/bench/bench_scale --smoke

# Cascade smoke leg: bench_cascade --smoke exits nonzero unless >= 1
# cascade was detected, zero events were dropped, every episode's streamed
# candidate sets matched batch localization, and a zero-dependency
# CascadeEngine run (the cascade overlay on the simulator's one event loop)
# stayed bit-identical to the base simulator.
build/bench/bench_cascade --smoke --out BENCH_cascade_smoke.json
rm -f BENCH_cascade_smoke.json

# Portfolio smoke leg: bench_portfolio --smoke exits nonzero unless the
# pair-cover placement is feasible, every MIS certificate agrees with the
# brute-force oracles (small instances) and with observed localize() runs,
# and every registry algorithm round-trips deterministically.
build/bench/bench_portfolio --smoke --out BENCH_portfolio_smoke.json
rm -f BENCH_portfolio_smoke.json

# Repository-benchmark correctness smoke: a short localize_episodes run on
# the AT&T and BA-300 nets. splace_perf exits nonzero unless every
# episode's streamed candidate sets equal its LocalizeRequest response, an
# episode whose list ends on one set published the matching
# LocalizationEvent, and every distinct request's response equals a direct
# localize() call. The run's result file lands in the gitignored
# .bench_results/.
python3 perfbench/run.py --workload localize_episodes --seed 1 --seconds 3 \
  --trace 0

# The same smoke on place_cold: every distinct place, evaluate and portfolio
# response, which the engine now scores on the path arena, must equal its
# recomputation through the legacy direct call (evaluate_paths over
# paths_for_placement).
python3 perfbench/run.py --workload place_cold --seed 1 --seconds 3 --trace 0

for b in build/bench/*; do
  [ -f "$b" ] && [ -x "$b" ] && "$b"
done
