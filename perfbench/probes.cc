// Layer probes: fixed, repeatable calls into core.edge_map,
// parallel.scheduler, the query service, the result cache, the delta
// overlay and the kernels, timed from outside and recorded as spans. Only
// traced runs execute them.
#include <algorithm>
#include <atomic>
#include <string>
#include <variant>
#include <vector>

#include "api/registry.h"
#include "core/edge_map.h"
#include "core/vertex_subset.h"
#include "inputs.h"
#include "parallel/parallel.h"
#include "workloads.h"

namespace perf {

namespace {

using sage::vertex_id;
using sage::weight_t;

/// BFS-style visit: a destination settles on its first update.
struct VisitF {
  std::atomic<uint8_t>* seen;
  bool update(vertex_id, vertex_id d, weight_t) {
    if (seen[d].load(std::memory_order_relaxed) != 0) return false;
    seen[d].store(1, std::memory_order_relaxed);
    return true;
  }
  bool updateAtomic(vertex_id, vertex_id d, weight_t) {
    uint8_t expected = 0;
    return seen[d].compare_exchange_strong(expected, 1,
                                           std::memory_order_relaxed);
  }
  bool cond(vertex_id d) const {
    return seen[d].load(std::memory_order_relaxed) == 0;
  }
};

/// Pull scan in which nothing settles: every edge into every vertex is
/// examined, and each examination feeds a per-destination sum so the scan
/// cannot be elided.
struct ScanF {
  uint64_t* acc;
  bool update(vertex_id s, vertex_id d, weight_t) {
    acc[d] += s;
    return false;
  }
  bool updateAtomic(vertex_id s, vertex_id d, weight_t w) {
    return update(s, d, w);
  }
  bool cond(vertex_id) const { return true; }
};

}  // namespace

double SparseRoundMs(const sage::Graph& g, uint64_t seed, int frontier_size,
                     int reps) {
  const vertex_id n = g.num_vertices();
  Rng rng(seed ^ 0x5ba75e);
  std::vector<vertex_id> ids;
  while (static_cast<int>(ids.size()) < frontier_size) {
    const vertex_id v = static_cast<vertex_id>(rng.Below(n));
    if (g.degree_uncharged(v) > 0) ids.push_back(v);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  sage::EdgeMapOptions opts;
  opts.mode = sage::TraversalMode::kSparseOnly;
  std::vector<std::atomic<uint8_t>> seen(n);
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    for (auto& s : seen) s.store(0, std::memory_order_relaxed);
    for (vertex_id v : ids) seen[v].store(1, std::memory_order_relaxed);
    auto frontier = sage::VertexSubset::Sparse(n, ids);
    Span span("edge_map.sparse_round");
    const double t0 = Now();
    auto out = sage::EdgeMap(g, frontier, VisitF{seen.data()}, opts);
    ms.push_back((Now() - t0) * 1e3);
  }
  return Median(ms);
}

double DenseRoundMs(const sage::Graph& g, int reps) {
  const vertex_id n = g.num_vertices();
  sage::EdgeMapOptions opts;
  opts.mode = sage::TraversalMode::kDenseOnly;
  std::vector<uint64_t> acc(n, 0);
  std::vector<double> ms;
  for (int r = 0; r < reps; ++r) {
    auto frontier = sage::VertexSubset::All(n);
    Span span("edge_map.dense_round");
    const double t0 = Now();
    auto out = sage::EdgeMap(g, frontier, ScanF{acc.data()}, opts);
    ms.push_back((Now() - t0) * 1e3);
  }
  return Median(ms);
}

double ForkJoinUs(int reps) {
  const size_t tasks = static_cast<size_t>(sage::num_workers());
  std::vector<double> us;
  for (int r = 0; r < reps; ++r) {
    Span span("scheduler.fork_join");
    const double t0 = Now();
    sage::parallel_for(0, tasks, [](size_t) {}, 1);
    us.push_back((Now() - t0) * 1e6);
  }
  return Median(us);
}

double BfsCost::NsPerWord() const {
  return Median(wall) * 1e9 / static_cast<double>(std::max<uint64_t>(1, words));
}

double OverlaySlowdown(sage::Engine& engine, const sage::Graph& base,
                       Rng& rng, vertex_id source, UpdateLog& log,
                       Report& report) {
  auto compact = [&] {
    Span span("delta.compact");
    const double t0 = Now();
    auto compacted = engine.Compact();
    log.compact_seconds.push_back(Now() - t0);
    report.Attempt(compacted.ok(),
                   "probe compaction: " + compacted.status().ToString());
    return compacted.ok();
  };
  auto bfs_wall = [&] {
    sage::RunParams params;
    params.source = source;
    const sage::Graph g = engine.graph();
    std::vector<double> wall;
    for (int r = 0; r < 5; ++r) {
      const double t0 = Now();
      auto run =
          sage::AlgorithmRegistry::Run("bfs", g, sage::RunContext{}, params);
      wall.push_back(Now() - t0);
      report.Attempt(run.ok(), "overlay probe bfs: " + run.status().ToString());
    }
    return Median(wall);
  };
  if (!compact()) return 0;
  for (int b = 0; b < 4; ++b) {
    std::vector<sage::EdgeUpdate> batch = NextBatch(rng, base);
    sage::Result<sage::Engine::UpdateStats> stats = sage::Status::Internal("");
    {
      Span span("delta.apply_updates");
      const double t0 = Now();
      stats = engine.ApplyUpdates(batch);
      log.apply_seconds.push_back(Now() - t0);
    }
    report.Attempt(stats.ok(), "probe updates: " + stats.status().ToString());
    if (!stats.ok()) return 0;
    log.batch_epochs.push_back(stats.ValueOrDie().epoch);
    log.batches.push_back(std::move(batch));
  }
  const double overlay = bfs_wall();
  if (!compact()) return 0;
  return overlay / bfs_wall();
}

void ServiceProbe(const sage::Graph& g, uint64_t seed, Report& report) {
  constexpr int kQueries = 16;
  auto storage = g.storage();
  const bool sharded = storage != nullptr && storage->shard_count() > 0;
  sage::Engine engine(
      sharded ? sage::Graph(std::vector<sage::edge_offset>(
                                g.raw_offsets().begin(), g.raw_offsets().end()),
                            std::vector<vertex_id>(g.raw_neighbors().begin(),
                                                   g.raw_neighbors().end()),
                            {}, true)
              : g);
  sage::QueryService::Options options;
  options.cache_bytes = kCacheBytes;
  engine.service(options);
  double twin_s = 0;
  {
    Span span("engine.twin");
    const double t0 = Now();
    report.Attempt(engine.WeightedTwin(sage::RunParams{}.weight_seed) != nullptr,
                   "probe weighted twin synthesis");
    twin_s = Now() - t0;
  }

  Rng rng(Mix(seed) ^ 0x5e41ce);
  std::vector<vertex_id> sources;
  while (sources.size() < kQueries) {
    const auto v = static_cast<vertex_id>(rng.Below(g.num_vertices()));
    if (g.degree_uncharged(v) > 0) sources.push_back(v);
  }
  std::vector<double> queue, kernel, fresh_latency, hit_latency;
  std::vector<std::vector<vertex_id>> fresh;
  for (int pass = 0; pass < 2; ++pass) {
    for (int q = 0; q < kQueries; ++q) {
      sage::RunParams params;
      params.source = sources[q];
      Span span("service.query", static_cast<uint64_t>(pass * kQueries + q + 1));
      const double t0 = Now();
      auto result = engine.Submit("bfs", params).get();
      const double latency = Now() - t0;
      report.Attempt(result.ok(), "probe query: " + result.status().ToString());
      if (!result.ok()) return;
      const sage::RunReport& rep = result.ValueOrDie();
      auto parents = std::get<std::vector<vertex_id>>(rep.output);
      if (pass == 0) {
        report.Check(!rep.cache_hit, "probe: a first query hit the cache");
        queue.push_back(rep.queue_seconds);
        kernel.push_back(rep.wall_seconds);
        fresh_latency.push_back(latency);
        fresh.push_back(std::move(parents));
      } else {
        report.Check(rep.cache_hit, "probe: a repeated query missed the cache");
        report.Check(parents == fresh[q],
                     "probe: a cache hit differs from the fresh reply");
        hit_latency.push_back(latency);
      }
    }
  }

  UpdateLog log;
  Rng update_rng(Mix(seed) ^ 0xda7a);
  const double slowdown =
      OverlaySlowdown(engine, g, update_rng, sources[0], log, report);
  report.Metric("engine.twin_s", twin_s, "s");
  report.Metric("service.queue_wait_ms", Median(queue) * 1e3, "ms");
  report.Metric("service.kernel_ms", Median(kernel) * 1e3, "ms");
  report.Metric("service.query_p95_ms", Quantile(fresh_latency, 0.95) * 1e3,
                "ms");
  report.Metric("cache.hit_us", Median(hit_latency) * 1e6, "us");
  report.Metric("delta.apply_ms", Median(log.apply_seconds) * 1e3, "ms");
  report.Metric("delta.compact_s", Median(log.compact_seconds), "s");
  report.Metric("delta.overlay_slowdown", slowdown, "ratio");
}

void KernelProbe(const sage::Graph& g, Report& report) {
  struct Probe {
    const char* algorithm;
    const char* metric;
  };
  constexpr Probe kProbes[] = {{"pagerank", "pagerank"},
                               {"connectivity", "cc"},
                               {"kcore", "kcore"},
                               {"triangle-count", "tc"}};
  for (const Probe& p : kProbes) {
    const std::string span_name = std::string("algorithms.") + p.metric;
    Span span(span_name.c_str());
    const double t0 = Now();
    auto result = sage::AlgorithmRegistry::Run(p.algorithm, g,
                                               sage::RunContext{},
                                               sage::RunParams{});
    const double wall = Now() - t0;
    report.Attempt(result.ok(), std::string("probe ") + p.algorithm + ": " +
                                    result.status().ToString());
    if (!result.ok()) return;
    const auto& cost = result.ValueOrDie().cost;
    report.Check(cost.nvram_writes == 0,
                 std::string("probe ") + p.algorithm + " wrote NVRAM");
    report.Metric(std::string("nvram.reads.") + p.metric,
                  static_cast<double>(cost.nvram_reads), "words");
    if (std::string(p.metric) == "pagerank") {
      report.Metric("nvram.ns_per_word.pagerank",
                    wall * 1e9 /
                        static_cast<double>(cost.nvram_reads + cost.dram_reads),
                    "ns");
    }
  }
}

}  // namespace perf
