// The three workloads and the layer probes their traced runs share.
//
// Each workload reads its inputs from Options::dir, adds its metrics and
// operation counts to the Report, and checks its outputs. Every workload
// reports every metric: with tracing off the end-to-end ones, with tracing
// on the per-layer ones. A per-layer metric the workload's own traffic does
// not produce comes from a probe run on the workload's graph after the
// measured phase (see README.md for which is which).
#pragma once

#include <cstdint>
#include <vector>

#include "api/engine.h"
#include "graph/graph.h"
#include "inputs.h"
#include "perf.h"

namespace perf {

void RunAnalytics(const Options& opt, Report& report);
void RunColdOpen(const Options& opt, Report& report);
void RunServe(const Options& opt, Report& report);

/// Result-cache budget of every engine the benchmark serves from: the
/// default of `sage_cli -cache` and `sage_serve -cache`.
inline constexpr uint64_t kCacheBytes = 256ull << 20;

/// The wall of a BFS and the words it read, for nvram.ns_per_word.
struct BfsCost {
  std::vector<double> wall;
  uint64_t words = 0;  // DRAM + NVRAM reads of the last run
  /// ns per word read, from the median wall.
  double NsPerWord() const;
};

/// What an update stream did: its batches in order, the epoch that made
/// each visible, and the wall of every ApplyUpdates and Compact call.
struct UpdateLog {
  std::vector<std::vector<sage::EdgeUpdate>> batches;
  std::vector<uint64_t> batch_epochs;
  std::vector<double> apply_seconds;
  std::vector<double> compact_seconds;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// Compacts, applies 4 batches drawn from `rng` against `base`, and times
/// 5 BFS from `source` on the overlay view, then compacts and times the
/// same BFS again; returns overlay / compacted median wall. The batches
/// and both compactions are logged in `log`. Spans: delta.apply_updates,
/// delta.compact.
double OverlaySlowdown(sage::Engine& engine, const sage::Graph& base,
                       Rng& rng, sage::vertex_id source, UpdateLog& log,
                       Report& report);

/// For workloads that do not serve: an engine on `g` (an in-memory copy
/// when `g` is sharded, which takes no updates) with the result cache on.
/// Synthesizes the weighted twin, submits 16 seeded BFS one at a time and
/// then the same 16 again (cache hits, checked equal to the first
/// replies), then runs OverlaySlowdown. Reports engine.twin_s,
/// service.queue_wait_ms, service.kernel_ms, service.query_p95_ms (of
/// the first 16), cache.hit_us,
/// delta.apply_ms, delta.compact_s and delta.overlay_slowdown.
void ServiceProbe(const sage::Graph& g, uint64_t seed, Report& report);

/// For workloads that do not run them: pagerank, connectivity, kcore and
/// triangle-count once each through the registry on `g`. Reports
/// nvram.reads.{pagerank,cc,kcore,tc} and nvram.ns_per_word.pagerank.
void KernelProbe(const sage::Graph& g, Report& report);

/// Median wall, in ms, of one sparse (push) EdgeMap round from a fixed
/// frontier of `frontier_size` seeded vertices. Spans: edge_map.sparse_round.
double SparseRoundMs(const sage::Graph& g, uint64_t seed, int frontier_size,
                     int reps);
/// Median wall, in ms, of one dense (pull) EdgeMap round over the full
/// vertex set in which no vertex settles, so every edge is scanned.
/// Spans: edge_map.dense_round.
double DenseRoundMs(const sage::Graph& g, int reps);
/// Median wall, in us, of an empty parallel_for forking one task per
/// worker and joining. Spans: scheduler.fork_join.
double ForkJoinUs(int reps);

}  // namespace perf
