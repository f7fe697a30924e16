// analytics: the paper's Table 3 setting. Five whole-graph kernels on a
// warm, mmap-ed, monolithic .bsadj image of the large R-MAT graph, called
// through AlgorithmRegistry::Run (no query service, cache, delta or epoch),
// each repeated in whole rounds after a warm-up round.
#include <algorithm>
#include <future>
#include <map>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/reference/sequential.h"
#include "api/registry.h"
#include "checks.h"
#include "graph/binary_format.h"
#include "workloads.h"

namespace perf {

namespace {

struct Kernel {
  const char* algorithm;
  const char* metric;  // e.g. "bfs" -> nvram.reads.bfs
  const char* span;
  /// Runs per round. Short kernels repeat more often, so that every
  /// kernel's median rests on several seconds of runs.
  int per_round;
};

constexpr Kernel kKernels[] = {
    {"bfs", "bfs", "algorithms.bfs", 16},
    {"pagerank", "pagerank", "algorithms.pagerank", 3},
    {"connectivity", "cc", "algorithms.connectivity", 4},
    {"kcore", "kcore", "algorithms.kcore", 2},
    {"triangle-count", "tc", "algorithms.triangle_count", 1},
};

/// Opens of the image per run, each followed by one BFS from the fixed
/// source; setup_s and first_result_s are medians over them.
constexpr int kOpens = 15;
/// Rounds measured at least, however short the run. peak_rss_mb is read
/// after the last of them, so that it compares the same work whatever the
/// speed of the kernels.
constexpr int kMinRounds = 2;

struct KernelRuns {
  std::vector<double> wall;
  std::vector<uint64_t> nvram_reads;
  std::vector<uint64_t> dram_reads;
  uint64_t nvram_writes = 0;
  sage::RunReport last;
};

void CheckOutputs(const Options& opt, const sage::Graph& g, uint32_t source,
                  std::vector<sage::vertex_id> first_tree,
                  std::map<std::string, KernelRuns>& runs, Report& report) {
  const double t0 = Now();
  // The sequential references are independent; compute them side by side.
  const auto& pr = std::get<sage::PageRankResult>(runs["pagerank"].last.output);
  auto ref_levels = std::async(std::launch::async,
                               [&] { return sage::ref::BfsLevels(g, source); });
  auto ref_labels = std::async(std::launch::async,
                               [&] { return sage::ref::Components(g); });
  auto ref_core = std::async(std::launch::async,
                             [&] { return sage::ref::Coreness(g); });
  auto ref_triangles = std::async(std::launch::async,
                                  [&] { return sage::ref::CountTriangles(g); });
  // Same iteration count as the kernel ran; only summation order differs.
  auto ref_rank = std::async(std::launch::async, [&] {
    return sage::ref::PageRank(g, static_cast<int>(pr.iterations));
  });
  {
    auto parents =
        std::get<std::vector<sage::vertex_id>>(runs["bfs"].last.output);
    if (opt.corrupt == "bfs-parent") CorruptOneParent(parents, source);
    const auto levels = ref_levels.get();
    const std::string diff = CheckBfsTree(g, source, parents, levels);
    report.Check(diff.empty(), "bfs: " + diff);
    const std::string first = CheckBfsTree(g, source, first_tree, levels);
    report.Check(first.empty(), "first-result bfs: " + first);
  }
  {
    auto labels =
        std::get<std::vector<sage::vertex_id>>(runs["cc"].last.output);
    if (opt.corrupt == "cc-label") CorruptOneLabel(labels, source);
    const std::string diff = CheckSamePartition(labels, ref_labels.get());
    report.Check(diff.empty(), "connectivity: " + diff);
  }
  {
    const auto& core = std::get<sage::KCoreResult>(runs["kcore"].last.output);
    const std::string diff = CheckEqual(core.coreness, ref_core.get());
    report.Check(diff.empty(), "kcore: " + diff);
  }
  {
    const auto& tc =
        std::get<sage::TriangleCountResult>(runs["tc"].last.output);
    const uint64_t want = ref_triangles.get();
    report.Check(tc.triangles == want,
                 "triangle-count: " + std::to_string(tc.triangles) +
                     " != " + std::to_string(want));
  }
  {
    const std::string diff = CheckL1(pr.rank, ref_rank.get(), 1e-9);
    report.Check(diff.empty(), "pagerank: " + diff);
  }
  // PSAM properties: Sage never writes NVRAM, and at a fixed width a
  // kernel's NVRAM reads are the same on every repetition.
  for (const Kernel& k : kKernels) {
    const KernelRuns& r = runs[k.metric];
    report.Check(r.nvram_writes == 0,
                 std::string(k.algorithm) + ": " +
                     std::to_string(r.nvram_writes) + " NVRAM writes");
    bool same = true;
    for (uint64_t reads : r.nvram_reads) {
      same = same && reads == r.nvram_reads[0];
    }
    report.Check(same, std::string(k.algorithm) +
                           ": NVRAM reads differ between repetitions");
  }
  std::fprintf(stderr, "analytics: checks took %.1f s\n", Now() - t0);
}

}  // namespace

void RunAnalytics(const Options& opt, Report& report) {
  const std::string path = opt.dir + "/graph.bsadj";
  auto meta = ReadMeta(path + ".meta");
  report.Attempt(meta.ok(), meta.status().ToString());
  if (!meta.ok()) return;
  const uint32_t source = meta.ValueOrDie().source;

  sage::RunContext ctx;
  sage::RunParams params;
  params.source = source;
  std::vector<double> opens, first_result, faults;
  std::vector<sage::vertex_id> first_tree;
  sage::Graph g;
  for (int i = 0; i < kOpens; ++i) {
    const double t0 = Now();
    sage::Result<sage::Graph> mapped = sage::Status::Internal("not opened");
    {
      Span span("graph.open");
      mapped = sage::MapBinaryGraph(path);
    }
    const double t1 = Now();
    report.Attempt(mapped.ok(),
                   "open " + path + ": " + mapped.status().ToString());
    if (!mapped.ok()) return;
    g = mapped.TakeValue();
    const uint64_t f0 = PageFaults();
    sage::Result<sage::RunReport> bfs = sage::Status::Internal("not run");
    {
      Span span("algorithms.bfs");
      bfs = sage::AlgorithmRegistry::Run("bfs", g, ctx, params);
    }
    first_result.push_back(Now() - t0);
    faults.push_back(static_cast<double>(PageFaults() - f0));
    opens.push_back(t1 - t0);
    report.Attempt(bfs.ok(), "first bfs: " + bfs.status().ToString());
    if (!bfs.ok()) return;
    report.Check(bfs.ValueOrDie().cost.nvram_writes == 0,
                 "first bfs wrote NVRAM");
    first_tree = std::get<std::vector<sage::vertex_id>>(
        std::move(bfs.ValueOrDie().output));
  }
  report.Check(HashGraph(g) == meta.ValueOrDie().hash,
               "the mapped image is not the generated graph");

  std::map<std::string, KernelRuns> runs;
  auto run_once = [&](const Kernel& k, bool record) {
    Span span(k.span);
    const double t0 = Now();
    auto result = sage::AlgorithmRegistry::Run(k.algorithm, g, ctx, params);
    const double wall = Now() - t0;
    report.Attempt(result.ok(), std::string(k.algorithm) + ": " +
                                    result.status().ToString());
    if (!result.ok()) return false;
    KernelRuns& r = runs[k.metric];
    sage::RunReport rep = result.TakeValue();
    r.nvram_writes += rep.cost.nvram_writes;
    r.nvram_reads.push_back(rep.cost.nvram_reads);
    if (record) {
      r.wall.push_back(wall);
      r.dram_reads.push_back(rep.cost.dram_reads);
    }
    r.last = std::move(rep);
    return true;
  };
  auto run_round = [&](bool record) {
    for (const Kernel& k : kKernels) {
      for (int i = 0; i < (record ? k.per_round : 1); ++i) {
        if (!run_once(k, record)) return false;
      }
    }
    return true;
  };
  // Warm-up round: faults the image in and sizes the allocator.
  if (!run_round(false)) return;
  const double start = Now();
  int rounds = 0;
  double peak = 0;
  while (rounds < kMinRounds || Now() - start < opt.seconds) {
    if (!run_round(true)) return;
    if (++rounds == kMinRounds) peak = PeakRssMb();
  }
  const double loop_seconds = Now() - start;
  std::fprintf(stderr,
               "analytics: %d rounds in %.1f s; peak RSS %.0f MiB after round "
               "%d, %.0f MiB at the end\n",
               rounds, loop_seconds, peak, kMinRounds, PeakRssMb());
  for (const Kernel& k : kKernels) {
    const std::vector<double>& w = runs[k.metric].wall;
    std::fprintf(stderr,
                 "  %-15s %3zu runs  min %.4f  median %.4f  max %.4f s\n",
                 k.algorithm, w.size(), *std::min_element(w.begin(), w.end()),
                 Median(w), *std::max_element(w.begin(), w.end()));
  }

  if (!opt.trace) {
    // An operation is one kernel run; op_p50_ms is a geometric mean over
    // the five kernels' medians, so that each kernel weighs the same.
    std::vector<double> p50;
    size_t ops = 0;
    for (const Kernel& k : kKernels) {
      const std::vector<double>& w = runs[k.metric].wall;
      p50.push_back(Median(w) * 1e3);
      ops += w.size();
    }
    report.Metric("setup_s", Median(opens), "s");
    report.Metric("first_result_s", Median(first_result), "s");
    report.Metric("op_p50_ms", GeoMean(p50), "ms");
    report.Metric("ops_per_s", static_cast<double>(ops) / loop_seconds, "1/s");
    report.Metric("peak_rss_mb", peak, "MiB");
  } else {
    report.Metric("graph.open_ms",
                  Median(Tracer::Get().Durations("graph.open")) * 1e3, "ms");
    report.Metric("graph.first_touch_faults", Median(faults), "count");
    for (const Kernel& k : kKernels) {
      report.Metric(std::string("nvram.reads.") + k.metric,
                    static_cast<double>(runs[k.metric].nvram_reads.back()),
                    "words");
    }
    for (const char* name : {"bfs", "pagerank"}) {
      const KernelRuns& r = runs[name];
      const BfsCost cost{r.wall, r.nvram_reads.back() + r.dram_reads.back()};
      report.Metric(std::string("nvram.ns_per_word.") + name,
                    cost.NsPerWord(), "ns");
    }
    report.Metric(
        "edge_map.peak_kb.bfs",
        static_cast<double>(runs["bfs"].last.peak_intermediate_bytes) / 1024.0,
        "KiB");
    report.Metric("edge_map.sparse_round_ms",
                  SparseRoundMs(g, opt.seed, 64, 200), "ms");
    report.Metric("edge_map.dense_round_ms", DenseRoundMs(g, 20), "ms");
    report.Metric("scheduler.fork_join_us", ForkJoinUs(2000), "us");
    ServiceProbe(g, opt.seed, report);
  }
  CheckOutputs(opt, g, source, std::move(first_tree), runs, report);
}

}  // namespace perf
