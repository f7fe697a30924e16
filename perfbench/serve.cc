// serve: a closed loop through Engine::Submit on the serve graph, with one
// updater thread writing beside the readers.
//
// kClients client threads each submit a query and wait for its reply
// before sending the next: bfs or wbfs (one in kWbfsEvery), from a source
// drawn from a seeded Zipf distribution over a fixed pool of vertices of
// the largest component, so repeats can hit the result cache. The updater
// applies a batch of kBatch random inserts and removes every kUpdatePeriod
// seconds and calls Compact every kCompactEvery batches. Sessions and
// queue depth are the service's defaults; the result cache is on with the
// budget the serving surfaces default to (256 MiB). perfbench/README.md
// says where each of these numbers comes from.
//
// peak_rss_mb is read when the kRssAtReply-th reply arrives, so that it
// compares the same number of queries whatever the throughput.
//
// Each set-up (open, service start, weighted twin) is followed by one BFS
// query from the fixed source, the first result.
//
// Checks: the last first result against the reference on the base; every
// reply is OK; sampled replies (cache hits among them) match
// the reference computed on the benchmark's own edge-set model of the
// graph at the reply's epoch; the final graph equals the model. The model
// is built after the loop, from the base and the logged batches, so that
// it is not part of the measured process's footprint.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "algorithms/reference/sequential.h"
#include "api/engine.h"
#include "checks.h"
#include "graph/builder.h"
#include "inputs.h"
#include "workloads.h"

namespace perf {

namespace {

using sage::vertex_id;

constexpr int kClients = 2;
constexpr int kWbfsEvery = 4;
constexpr size_t kSourcePool = 256;
constexpr double kZipfExponent = 1.2;
constexpr double kUpdatePeriod = 0.2;
constexpr int kCompactEvery = 8;
constexpr int kSetups = 15;
/// The reply (counted over all clients) at which peak_rss_mb is read; the
/// loop runs on past --seconds until it has arrived.
constexpr uint64_t kRssAtReply = 800;
/// Replies kept per client for the reference checks: every kSampleEvery-th
/// reply up to kSamples, plus the first kHitSamples cache hits.
constexpr int kSampleEvery = 16;
constexpr int kSamples = 6;
constexpr int kHitSamples = 3;

/// The benchmark's own model of the graph: sorted adjacency sets, updated
/// with the same semantics the engine documents (symmetric; inserting an
/// existing edge and removing an absent one change nothing).
class EdgeModel {
 public:
  explicit EdgeModel(const sage::Graph& g) : adj_(g.num_vertices()) {
    for (vertex_id v = 0; v < g.num_vertices(); ++v) {
      auto nbrs = g.NeighborsUncharged(v);
      adj_[v].assign(nbrs.begin(), nbrs.end());
    }
  }
  void Apply(const std::vector<sage::EdgeUpdate>& batch) {
    for (const sage::EdgeUpdate& e : batch) {
      if (e.remove) {
        Erase(e.u, e.v);
        Erase(e.v, e.u);
      } else {
        Insert(e.u, e.v);
        Insert(e.v, e.u);
      }
    }
  }
  sage::Graph ToGraph() const {
    std::vector<sage::edge_offset> offsets(adj_.size() + 1, 0);
    for (size_t v = 0; v < adj_.size(); ++v) {
      offsets[v + 1] = offsets[v] + adj_[v].size();
    }
    std::vector<vertex_id> nbrs;
    nbrs.reserve(offsets.back());
    for (const auto& list : adj_) {
      nbrs.insert(nbrs.end(), list.begin(), list.end());
    }
    return sage::Graph(std::move(offsets), std::move(nbrs), {}, true);
  }
  const std::vector<vertex_id>& Neighbors(vertex_id v) const { return adj_[v]; }
  vertex_id n() const { return static_cast<vertex_id>(adj_.size()); }

 private:
  void Insert(vertex_id u, vertex_id v) {
    auto& l = adj_[u];
    auto it = std::lower_bound(l.begin(), l.end(), v);
    if (it == l.end() || *it != v) l.insert(it, v);
  }
  void Erase(vertex_id u, vertex_id v) {
    auto& l = adj_[u];
    auto it = std::lower_bound(l.begin(), l.end(), v);
    if (it != l.end() && *it == v) l.erase(it);
  }
  std::vector<std::vector<vertex_id>> adj_;
};

/// Seeded Zipf sampler over ranks [0, size).
class Zipf {
 public:
  explicit Zipf(size_t size) : cdf_(size) {
    double total = 0;
    for (size_t r = 0; r < size; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfExponent);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  size_t Sample(Rng& rng) const {
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), rng.Unit());
    const auto rank = static_cast<size_t>(it - cdf_.begin());
    return std::min(rank, cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct Reply {
  double latency = 0;  // seconds, submit to a ready future
  bool bfs = true;
  bool cache_hit = false;
  double queue_seconds = 0;
  double kernel_seconds = 0;
  uint64_t peak_bytes = 0;
  uint64_t nvram_writes = 0;
};

struct Sample {
  bool bfs = true;
  vertex_id source = 0;
  uint64_t epoch = 0;
  bool cache_hit = false;
  sage::AlgoOutput output;
};

struct ClientLog {
  std::vector<Reply> replies;
  std::vector<Sample> samples;
  uint64_t failed = 0;
  double finished = 0;
};

/// State the clients and the updater share: request ids, the reply count,
/// and the peak RSS read at the kRssAtReply-th reply.
struct Shared {
  std::atomic<uint64_t> next_request{0};
  std::atomic<uint64_t> replies{0};
  std::atomic<double> rss_mb{0};
};

void Client(sage::Engine& engine, int id, uint64_t seed,
            const std::vector<vertex_id>& pool, const Zipf& zipf,
            double deadline, Shared& shared, ClientLog& log) {
  Rng rng(Mix(seed) + static_cast<uint64_t>(id) + 1);
  int regular_samples = 0, hit_samples = 0;
  for (uint64_t i = 0; Now() < deadline || shared.replies < kRssAtReply;
       ++i) {
    const bool bfs = rng.Below(kWbfsEvery) != 0;
    sage::RunParams params;
    params.source = pool[zipf.Sample(rng)];
    const uint64_t request = shared.next_request.fetch_add(1) + 1;
    Span span("service.query", request);
    const double t0 = Now();
    auto result = engine.Submit(bfs ? "bfs" : "wbfs", params).get();
    const double latency = Now() - t0;
    if (shared.replies.fetch_add(1) + 1 == kRssAtReply) {
      shared.rss_mb = PeakRssMb();
    }
    if (!result.ok()) {
      ++log.failed;
      std::fprintf(stderr, "sage_perf: query failed: %s\n",
                   result.status().ToString().c_str());
      continue;
    }
    sage::RunReport& rep = result.ValueOrDie();
    log.replies.push_back({latency, bfs, rep.cache_hit, rep.queue_seconds,
                           rep.wall_seconds, rep.peak_intermediate_bytes,
                           rep.cost.nvram_writes});
    if (Tracer::Get().enabled() && !rep.cache_hit) {
      // The service's own phase times, placed under the query's span.
      Tracer& t = Tracer::Get();
      t.Add({"service.queue_wait", t.NextId(), span.id(), request, span.tid(),
             t0, t0 + rep.queue_seconds});
      t.Add({"service.kernel", t.NextId(), span.id(), request, span.tid(),
             t0 + rep.queue_seconds,
             t0 + rep.queue_seconds + rep.wall_seconds});
    }
    const bool keep_hit = rep.cache_hit && hit_samples < kHitSamples;
    const bool keep_regular =
        i % kSampleEvery == 0 && regular_samples < kSamples;
    if (keep_hit || keep_regular) {
      (keep_hit ? hit_samples : regular_samples) += 1;
      log.samples.push_back({bfs, params.source, rep.graph_epoch, rep.cache_hit,
                             std::move(rep.output)});
    }
  }
  log.finished = Now();
}

/// Keeps its pace for as long as the clients run, past --seconds too, so
/// that every reply meets the same update traffic.
void Updater(sage::Engine& engine, const sage::Graph& base, Rng& rng,
             double start, double deadline, const Shared& shared,
             UpdateLog& log) {
  for (int i = 0;; ++i) {
    const double due = start + (i + 1) * kUpdatePeriod;
    if (due >= deadline && shared.replies >= kRssAtReply) break;
    std::this_thread::sleep_for(std::chrono::duration<double>(due - Now()));
    std::vector<sage::EdgeUpdate> batch = NextBatch(rng, base);
    ++log.attempted;
    sage::Result<sage::Engine::UpdateStats> stats = sage::Status::Internal("");
    {
      Span span("delta.apply_updates");
      const double t0 = Now();
      stats = engine.ApplyUpdates(batch);
      log.apply_seconds.push_back(Now() - t0);
    }
    if (!stats.ok()) {
      ++log.failed;
      std::fprintf(stderr, "sage_perf: ApplyUpdates failed: %s\n",
                   stats.status().ToString().c_str());
      return;
    }
    log.batch_epochs.push_back(stats.ValueOrDie().epoch);
    log.batches.push_back(std::move(batch));
    if ((i + 1) % kCompactEvery == 0) {
      ++log.attempted;
      Span span("delta.compact");
      const double t0 = Now();
      auto compacted = engine.Compact();
      log.compact_seconds.push_back(Now() - t0);
      if (!compacted.ok()) {
        ++log.failed;
        std::fprintf(stderr, "sage_perf: Compact failed: %s\n",
                     compacted.status().ToString().c_str());
        return;
      }
    }
  }
}

}  // namespace

void RunServe(const Options& opt, Report& report) {
  const std::string path = opt.dir + "/graph.bsadj";
  auto meta = ReadMeta(path + ".meta");
  report.Attempt(meta.ok(), meta.status().ToString());
  if (!meta.ok()) return;

  // Set-up: open, start the service, synthesize the weighted twin wbfs
  // runs on. Repeated; the last engine serves.
  sage::QueryService::Options service_options;
  service_options.cache_bytes = kCacheBytes;
  const uint64_t weight_seed = sage::RunParams{}.weight_seed;
  const vertex_id first_source = meta.ValueOrDie().source;
  std::vector<double> setups, first_result, faults;
  BfsCost first_cost;
  uint64_t first_reads = 0;
  std::optional<sage::Engine> engine;
  std::vector<vertex_id> first_tree;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();
    const double t0 = Now();
    sage::Result<sage::Engine> opened = sage::Status::Internal("");
    {
      Span span("graph.open");
      opened = sage::Engine::FromFile(path);
    }
    report.Attempt(opened.ok(), "open: " + opened.status().ToString());
    if (!opened.ok()) return;
    engine.emplace(opened.TakeValue());
    engine->service(service_options);
    {
      Span span("engine.twin");
      report.Attempt(engine->WeightedTwin(weight_seed) != nullptr,
                     "weighted twin synthesis");
    }
    setups.push_back(Now() - t0);
    // The first query: a BFS from the fixed source.
    sage::RunParams params;
    params.source = first_source;
    const uint64_t f0 = PageFaults();
    sage::Result<sage::RunReport> first = sage::Status::Internal("");
    {
      Span span("service.query");
      first = engine->Submit("bfs", params).get();
    }
    first_result.push_back(Now() - t0);
    faults.push_back(static_cast<double>(PageFaults() - f0));
    report.Attempt(first.ok(), "first query: " + first.status().ToString());
    if (!first.ok()) return;
    const sage::RunReport& rep = first.ValueOrDie();
    report.Check(rep.cost.nvram_writes == 0, "first query wrote NVRAM");
    first_cost.wall.push_back(rep.wall_seconds);
    first_cost.words = rep.cost.nvram_reads + rep.cost.dram_reads;
    first_reads = rep.cost.nvram_reads;
    first_tree = std::get<std::vector<vertex_id>>(rep.output);
  }
  const sage::Graph base = engine->graph();
  report.Check(HashGraph(base) == meta.ValueOrDie().hash,
               "the mapped image is not the generated graph");
  {
    if (opt.corrupt == "bfs-parent") CorruptOneParent(first_tree, first_source);
    const std::string diff =
        CheckBfsTree(base, first_source, first_tree,
                     sage::ref::BfsLevels(base, first_source));
    report.Check(diff.empty(), "first query: " + diff);
  }

  // The query-source pool: seeded vertices of the largest component, so
  // every fresh query traverses the same component.
  const std::vector<vertex_id> components = sage::ref::Components(base);
  std::vector<uint32_t> sizes(base.num_vertices(), 0);
  for (vertex_id label : components) ++sizes[label];
  const auto giant = static_cast<vertex_id>(
      std::max_element(sizes.begin(), sizes.end()) - sizes.begin());
  Rng pool_rng(Mix(opt.seed) ^ 0x9001);
  std::vector<vertex_id> pool;
  while (pool.size() < kSourcePool) {
    const auto v = static_cast<vertex_id>(pool_rng.Below(base.num_vertices()));
    if (components[v] == giant) pool.push_back(v);
  }
  const Zipf zipf(kSourcePool);
  Rng update_rng(Mix(opt.seed) ^ 0xda7a);

  std::vector<ClientLog> clients(kClients);
  UpdateLog updates;
  Shared shared;
  const double start = Now();
  const double deadline = start + opt.seconds;
  {
    // jthreads join when the scope ends, on every path.
    std::vector<std::jthread> threads;
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(Client, std::ref(*engine), c, opt.seed,
                           std::cref(pool), std::cref(zipf), deadline,
                           std::ref(shared), std::ref(clients[c]));
    }
    threads.emplace_back(Updater, std::ref(*engine), std::cref(base),
                         std::ref(update_rng), start, deadline,
                         std::cref(shared), std::ref(updates));
  }
  double end = start;
  std::vector<Reply> replies;
  for (ClientLog& c : clients) {
    end = std::max(end, c.finished);
    replies.insert(replies.end(), c.replies.begin(), c.replies.end());
    report.Count(c.replies.size() + c.failed, c.failed);
  }
  report.Count(updates.attempted, updates.failed);
  const double peak = shared.rss_mb;
  std::vector<double> latency, hit_latency, queue, kernel, bfs_peak_kb;
  std::vector<double> bfs_kernel, wbfs_kernel;
  uint64_t nvram_writes = 0;
  size_t wbfs_replies = 0;
  for (const Reply& r : replies) {
    latency.push_back(r.latency);
    nvram_writes += r.nvram_writes;
    wbfs_replies += r.bfs ? 0 : 1;
    if (r.cache_hit) {
      hit_latency.push_back(r.latency);
    } else {
      queue.push_back(r.queue_seconds);
      kernel.push_back(r.kernel_seconds);
      (r.bfs ? bfs_kernel : wbfs_kernel).push_back(r.kernel_seconds);
      if (r.bfs) {
        bfs_peak_kb.push_back(static_cast<double>(r.peak_bytes) / 1024.0);
      }
    }
  }
  const double reply_count =
      static_cast<double>(std::max<size_t>(1, replies.size()));
  const double hit_ratio = static_cast<double>(hit_latency.size()) / reply_count;
  const double wbfs_share = static_cast<double>(wbfs_replies) / reply_count;
  std::fprintf(stderr,
               "serve: %zu replies (%zu cache hits, ratio %.3f; wbfs share "
               "%.3f), %zu batches, %zu compactions in %.1f s\n",
               replies.size(), hit_latency.size(), hit_ratio, wbfs_share,
               updates.batches.size(), updates.compact_seconds.size(),
               end - start);
  double bfs_total = 0, wbfs_total = 0;
  for (double k : bfs_kernel) bfs_total += k;
  for (double k : wbfs_kernel) wbfs_total += k;
  std::fprintf(stderr,
               "serve: median kernel of fresh replies: bfs %.2f ms, wbfs "
               "%.2f ms; wbfs share of fresh kernel time %.3f\n",
               Median(bfs_kernel) * 1e3, Median(wbfs_kernel) * 1e3,
               wbfs_total / std::max(1e-9, bfs_total + wbfs_total));
  const sage::ResultCacheStats cache = engine->service().cache()->stats();
  std::fprintf(stderr,
               "serve: result cache holds %llu entries (%.1f MiB), %llu "
               "invalidated, %llu evicted; peak RSS %.0f MiB at reply %llu, "
               "%.0f MiB at the end\n",
               static_cast<unsigned long long>(cache.entries),
               static_cast<double>(cache.bytes) / (1 << 20),
               static_cast<unsigned long long>(cache.invalidations),
               static_cast<unsigned long long>(cache.evictions), peak,
               static_cast<unsigned long long>(kRssAtReply), PeakRssMb());

  if (!opt.trace) {
    report.Metric("setup_s", Median(setups), "s");
    report.Metric("first_result_s", Median(first_result), "s");
    report.Metric("op_p50_ms", Quantile(latency, 0.5) * 1e3, "ms");
    report.Metric("ops_per_s",
                  static_cast<double>(replies.size()) / (end - start), "1/s");
    report.Metric("peak_rss_mb", peak, "MiB");
  } else {
    Tracer& t = Tracer::Get();
    report.Metric("graph.open_ms", Median(t.Durations("graph.open")) * 1e3,
                  "ms");
    report.Metric("graph.first_touch_faults", Median(faults), "count");
    report.Metric("nvram.reads.bfs", static_cast<double>(first_reads),
                  "words");
    report.Metric("nvram.ns_per_word.bfs", first_cost.NsPerWord(), "ns");
    report.Metric("engine.twin_s", Median(t.Durations("engine.twin")), "s");
    report.Metric("service.queue_wait_ms", Median(queue) * 1e3, "ms");
    report.Metric("service.kernel_ms", Median(kernel) * 1e3, "ms");
    report.Metric("service.query_p95_ms", Quantile(latency, 0.95) * 1e3,
                  "ms");
    report.Metric("cache.hit_us", Median(hit_latency) * 1e6, "us");
    report.Metric("delta.apply_ms", Median(updates.apply_seconds) * 1e3, "ms");
    report.Metric("delta.compact_s", Median(updates.compact_seconds), "s");
    report.Metric("edge_map.peak_kb.bfs", Median(bfs_peak_kb), "KiB");
    report.Metric("delta.overlay_slowdown",
                  OverlaySlowdown(*engine, base, update_rng, pool[0], updates,
                                  report),
                  "ratio");
    // Layer probes on the base image, with the service idle.
    report.Metric("edge_map.sparse_round_ms",
                  SparseRoundMs(base, opt.seed, 64, 200), "ms");
    report.Metric("edge_map.dense_round_ms", DenseRoundMs(base, 20), "ms");
    report.Metric("scheduler.fork_join_us", ForkJoinUs(2000), "us");
    KernelProbe(base, report);
  }

  report.Check(nvram_writes == 0, "queries wrote NVRAM " +
                                      std::to_string(nvram_writes) + " words");

  // Sampled replies against the reference on the model at their epoch.
  std::vector<Sample> samples;
  for (ClientLog& c : clients) {
    for (Sample& s : c.samples) samples.push_back(std::move(s));
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.epoch < b.epoch; });
  EdgeModel model(base);
  size_t applied = 0;
  int hits_checked = 0;
  for (Sample& s : samples) {
    while (applied < updates.batches.size() &&
           updates.batch_epochs[applied] <= s.epoch) {
      model.Apply(updates.batches[applied++]);
    }
    const sage::Graph g = model.ToGraph();
    std::string diff;
    if (s.bfs) {
      auto& parents = std::get<std::vector<vertex_id>>(s.output);
      if (opt.corrupt == "bfs-parent") CorruptOneParent(parents, s.source);
      diff = CheckBfsTree(g, s.source, parents,
                          sage::ref::BfsLevels(g, s.source));
    } else {
      const sage::Graph gw = sage::AddRandomWeights(g, weight_seed);
      diff = CheckEqual(std::get<std::vector<uint64_t>>(s.output),
                        sage::ref::Dijkstra(gw, s.source));
    }
    hits_checked += s.cache_hit ? 1 : 0;
    report.Check(diff.empty(), std::string(s.bfs ? "bfs" : "wbfs") +
                                   " from " + std::to_string(s.source) +
                                   " at epoch " + std::to_string(s.epoch) +
                                   (s.cache_hit ? " (cache hit)" : "") + ": " +
                                   diff);
  }
  std::fprintf(stderr, "serve: checked %zu sampled replies (%d cache hits)\n",
               samples.size(), hits_checked);

  // The final graph against the model of the whole update stream.
  while (applied < updates.batches.size()) {
    model.Apply(updates.batches[applied++]);
  }
  const sage::Graph final_graph = engine->graph();
  bool same = final_graph.num_vertices() == model.n();
  for (vertex_id v = 0; same && v < model.n(); ++v) {
    auto got = final_graph.NeighborsUncharged(v);
    const auto& want = model.Neighbors(v);
    same = std::equal(got.begin(), got.end(), want.begin(), want.end());
  }
  report.Check(same, "the final graph differs from the update-stream model");
}

}  // namespace perf
