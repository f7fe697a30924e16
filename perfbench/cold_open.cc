// cold-open: open-to-first-result on a cold page cache. The large graph is
// stored as a kColdShards-segment .bsadjx manifest; every iteration evicts
// the benchmark's own input files from the page cache, opens them through
// Engine::FromFile, runs one BFS from the fixed source, and closes.
// peak_rss_mb is read after the kRssAtIteration-th iteration, so that it
// compares the same number of cycles whatever their speed.
#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <variant>
#include <vector>

#include "algorithms/reference/sequential.h"
#include "api/engine.h"
#include "checks.h"
#include "graph/sharded_storage.h"
#include "workloads.h"

namespace perf {

namespace {

/// The iteration after which peak_rss_mb is read; the loop runs on past
/// --seconds until it has been reached.
constexpr int kRssAtIteration = 32;

/// Drops `path` from the page cache: written back first, then
/// POSIX_FADV_DONTNEED. Only this process's own inputs are touched.
bool Evict(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return false;
  const bool ok = ::fdatasync(fd) == 0 &&
                  ::posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED) == 0;
  ::close(fd);
  return ok;
}

}  // namespace

void RunColdOpen(const Options& opt, Report& report) {
  const std::string manifest = opt.dir + "/graph.bsadjx";
  auto meta = ReadMeta(manifest + ".meta");
  report.Attempt(meta.ok(), meta.status().ToString());
  if (!meta.ok()) return;
  const uint32_t source = meta.ValueOrDie().source;
  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(opt.dir)) {
    const std::string p = entry.path().string();
    if (!p.ends_with(".meta")) files.push_back(p);
  }

  std::vector<double> setup, first_result, faults;
  BfsCost bfs_cost;
  std::vector<double> peak_kb;
  std::vector<uint64_t> nvram_reads;
  std::vector<std::vector<sage::vertex_id>> outputs;
  sage::RunParams params;
  params.source = source;
  const double start = Now();
  int iterations = 0;
  double peak = 0;
  while (iterations < kRssAtIteration || Now() - start < opt.seconds) {
    bool evicted = true;
    for (const std::string& f : files) evicted = Evict(f) && evicted;
    report.Attempt(evicted, "evict the inputs from the page cache");
    const double t0 = Now();
    double t1 = 0, t2 = 0;
    sage::Result<sage::RunReport> bfs = sage::Status::Internal("not run");
    uint64_t kernel_faults = 0;
    {
      Span iteration("cold_open.iteration");
      sage::Result<sage::Engine> engine = sage::Status::Internal("not opened");
      {
        Span span("graph.open");
        engine = sage::Engine::FromFile(manifest);
      }
      t1 = Now();
      report.Attempt(engine.ok(), "open: " + engine.status().ToString());
      if (!engine.ok()) return;
      const uint64_t f0 = PageFaults();
      {
        Span span("api.engine.run");
        bfs = engine.ValueOrDie().Run("bfs", params);
      }
      t2 = Now();
      kernel_faults = PageFaults() - f0;
      report.Attempt(bfs.ok(), "bfs: " + bfs.status().ToString());
      if (!bfs.ok()) return;
      const sage::RunReport& rep = bfs.ValueOrDie();
      report.Check(rep.cost.nvram_writes == 0, "bfs wrote NVRAM");
      bfs_cost.words = rep.cost.nvram_reads + rep.cost.dram_reads;
      nvram_reads.push_back(rep.cost.nvram_reads);
      peak_kb.push_back(static_cast<double>(rep.peak_intermediate_bytes) /
                        1024.0);
    }
    setup.push_back(t1 - t0);
    first_result.push_back(t2 - t0);
    faults.push_back(static_cast<double>(kernel_faults));
    bfs_cost.wall.push_back(t2 - t1);
    // Keep the first and the latest tree for the checks.
    auto parents = std::get<std::vector<sage::vertex_id>>(
        std::move(bfs.ValueOrDie().output));
    if (outputs.size() < 2) {
      outputs.push_back(std::move(parents));
    } else {
      outputs.back() = std::move(parents);
    }
    if (++iterations == kRssAtIteration) peak = PeakRssMb();
  }
  const double loop_seconds = Now() - start;
  std::fprintf(stderr,
               "cold-open: %d iterations in %.1f s; peak RSS %.0f MiB after "
               "iteration %d, %.0f MiB at the end\n",
               iterations, loop_seconds, peak, kRssAtIteration, PeakRssMb());

  // The assembled image, warm: the checks' input and the probes' graph.
  auto g = sage::MapShardedGraph(manifest);
  report.Attempt(g.ok(), "reopen: " + g.status().ToString());
  if (!g.ok()) return;
  const sage::Graph& graph = g.ValueOrDie();

  if (!opt.trace) {
    // An operation is one open / BFS / close cycle; its latency is that of
    // the BFS on the just-opened, cold image.
    report.Metric("setup_s", Median(setup), "s");
    report.Metric("first_result_s", Median(first_result), "s");
    report.Metric("op_p50_ms", Median(bfs_cost.wall) * 1e3, "ms");
    report.Metric("ops_per_s", iterations / loop_seconds, "1/s");
    report.Metric("peak_rss_mb", peak, "MiB");
  } else {
    report.Metric("graph.open_ms",
                  Median(Tracer::Get().Durations("graph.open")) * 1e3, "ms");
    report.Metric("graph.first_touch_faults", Median(faults), "count");
    report.Metric("nvram.reads.bfs", static_cast<double>(nvram_reads.back()),
                  "words");
    report.Metric("nvram.ns_per_word.bfs", bfs_cost.NsPerWord(), "ns");
    report.Metric("edge_map.peak_kb.bfs", Median(peak_kb), "KiB");
    report.Metric("edge_map.sparse_round_ms",
                  SparseRoundMs(graph, opt.seed, 64, 200), "ms");
    report.Metric("edge_map.dense_round_ms", DenseRoundMs(graph, 20), "ms");
    report.Metric("scheduler.fork_join_us", ForkJoinUs(2000), "us");
    KernelProbe(graph, report);
    ServiceProbe(graph, opt.seed, report);
  }

  // The first and the last iteration's trees against the reference, on
  // the assembled image (itself checked against the generated graph).
  report.Check(std::all_of(nvram_reads.begin(), nvram_reads.end(),
                           [&](uint64_t r) { return r == nvram_reads[0]; }),
               "cold-open bfs: NVRAM reads differ between iterations");
  report.Check(HashGraph(graph) == meta.ValueOrDie().hash,
               "the assembled image is not the generated graph");
  const auto levels = sage::ref::BfsLevels(graph, source);
  for (auto& parents : outputs) {
    if (opt.corrupt == "bfs-parent") CorruptOneParent(parents, source);
    const std::string diff = CheckBfsTree(graph, source, parents, levels);
    report.Check(diff.empty(), "cold-open bfs: " + diff);
  }
}

}  // namespace perf
