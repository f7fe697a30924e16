#include "inputs.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <vector>

#include "graph/binary_format.h"
#include "graph/shard.h"
#include "parallel/parallel.h"
#include "perf.h"

namespace perf {

namespace {

using sage::edge_offset;
using sage::vertex_id;

/// Samples edge `i` of the R-MAT stream: one quadrant choice per level.
std::pair<vertex_id, vertex_id> RmatEdge(uint32_t log_n, uint64_t seed,
                                         uint64_t i) {
  // Quadrant thresholds for a = 0.5, b = c = 0.1 (d = 0.3), the
  // library's R-MAT defaults, on a 32-bit draw.
  constexpr uint64_t kA = 2147483648ull;  // 0.5 * 2^32
  constexpr uint64_t kB = 2576980378ull;  // 0.6 * 2^32
  constexpr uint64_t kC = 3006477107ull;  // 0.7 * 2^32
  uint64_t state = Mix(seed ^ Mix(i));
  uint64_t u = 0, v = 0;
  for (uint32_t level = 0; level < log_n; level += 2) {
    const uint64_t r = Mix(state += 0x9e3779b97f4a7c15ull);
    for (uint32_t k = 0; k < 2 && level + k < log_n; ++k) {
      const uint64_t draw = (r >> (32 * k)) & 0xffffffffull;
      const uint64_t bit = 1ull << (level + k);
      if (draw >= kC) {
        u |= bit;
        v |= bit;
      } else if (draw >= kB) {
        u |= bit;
      } else if (draw >= kA) {
        v |= bit;
      }
    }
  }
  return {static_cast<vertex_id>(u), static_cast<vertex_id>(v)};
}

sage::Status WriteMetaFor(const sage::Graph& g, const std::string& path) {
  InputMeta meta;
  meta.n = g.num_vertices();
  meta.m = g.num_edges();
  meta.hash = HashGraph(g);
  vertex_id best = 0;
  for (vertex_id v = 1; v < g.num_vertices(); ++v) {
    if (g.degree_uncharged(v) > g.degree_uncharged(best)) best = v;
  }
  meta.source = best;
  return WriteMeta(path + ".meta", meta);
}

}  // namespace

sage::Graph BuildRmat(uint32_t log_n, uint64_t samples, uint64_t seed) {
  const vertex_id n = static_cast<vertex_id>(1u << log_n);
  // Fixed chunking (not the scheduler width) keeps the scatter order, and
  // so the graph, independent of how many workers run it.
  constexpr size_t kChunks = 16;
  const uint64_t per_chunk = (samples + kChunks - 1) / kChunks;
  std::vector<std::vector<uint32_t>> counts(kChunks);
  sage::parallel_for(
      0, kChunks,
      [&](size_t c) {
        std::vector<uint32_t>& cnt = counts[c];
        cnt.assign(n, 0);
        const uint64_t lo = c * per_chunk;
        const uint64_t hi = std::min(samples, lo + per_chunk);
        for (uint64_t i = lo; i < hi; ++i) {
          auto [u, v] = RmatEdge(log_n, seed, i);
          if (u == v) continue;
          ++cnt[u];
          ++cnt[v];
        }
      },
      1);
  // Exclusive scan over (vertex, chunk): chunk c writes its slots of v
  // after those of chunks < c.
  std::vector<edge_offset> raw_offsets(static_cast<size_t>(n) + 1, 0);
  for (vertex_id v = 0; v < n; ++v) {
    edge_offset total = 0;
    for (size_t c = 0; c < kChunks; ++c) {
      const uint32_t k = counts[c][v];
      counts[c][v] = static_cast<uint32_t>(total);
      total += k;
    }
    raw_offsets[v + 1] = raw_offsets[v] + total;
  }
  std::vector<vertex_id> raw(raw_offsets[n]);
  sage::parallel_for(
      0, kChunks,
      [&](size_t c) {
        std::vector<uint32_t>& pos = counts[c];
        const uint64_t lo = c * per_chunk;
        const uint64_t hi = std::min(samples, lo + per_chunk);
        for (uint64_t i = lo; i < hi; ++i) {
          auto [u, v] = RmatEdge(log_n, seed, i);
          if (u == v) continue;
          raw[raw_offsets[u] + pos[u]++] = v;
          raw[raw_offsets[v] + pos[v]++] = u;
        }
        std::vector<uint32_t>().swap(pos);
      },
      1);
  // Sort and deduplicate each list in place, then compact.
  std::vector<edge_offset> degree(n);
  sage::parallel_for(0, n, [&](size_t v) {
    auto first = raw.begin() + static_cast<std::ptrdiff_t>(raw_offsets[v]);
    auto last = raw.begin() + static_cast<std::ptrdiff_t>(raw_offsets[v + 1]);
    std::sort(first, last);
    degree[v] = static_cast<edge_offset>(std::unique(first, last) - first);
  });
  std::vector<edge_offset> offsets(static_cast<size_t>(n) + 1, 0);
  for (vertex_id v = 0; v < n; ++v) offsets[v + 1] = offsets[v] + degree[v];
  std::vector<vertex_id> neighbors(offsets[n]);
  sage::parallel_for(0, n, [&](size_t v) {
    std::copy_n(raw.begin() + static_cast<std::ptrdiff_t>(raw_offsets[v]),
                degree[v],
                neighbors.begin() + static_cast<std::ptrdiff_t>(offsets[v]));
  });
  return sage::Graph(std::move(offsets), std::move(neighbors), {},
                     /*symmetric=*/true);
}

namespace {

/// Flushes every file in `dir` to disk, so write-back of the inputs does
/// not overlap the measured run.
sage::Status SyncDir(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const int fd = ::open(entry.path().c_str(), O_RDONLY);
    const bool ok = fd >= 0 && ::fdatasync(fd) == 0;
    if (fd >= 0) ::close(fd);
    if (!ok) {
      return sage::Status::IOError("cannot sync " + entry.path().string());
    }
  }
  return sage::Status::OK();
}

sage::Status WriteInputs(const std::string& workload, uint64_t seed,
                         const std::string& dir) {
  if (workload == "analytics" || workload == "cold-open") {
    sage::Graph g = BuildRmat(kLargeLogN, kLargeSamples, seed);
    if (workload == "analytics") {
      const std::string path = dir + "/graph.bsadj";
      SAGE_RETURN_IF_ERROR(sage::WriteBinaryGraph(g, path));
      return WriteMetaFor(g, path);
    }
    const std::string path = dir + "/graph.bsadjx";
    SAGE_RETURN_IF_ERROR(sage::WriteShardedGraph(g, path, kColdShards));
    return WriteMetaFor(g, path);
  }
  if (workload == "serve") {
    // A stream of its own, so the serve graph is not a sample of the
    // large graph's stream.
    sage::Graph g = BuildRmat(kServeLogN, kServeSamples, Mix(seed) ^ 0x5e7e);
    const std::string path = dir + "/graph.bsadj";
    SAGE_RETURN_IF_ERROR(sage::WriteBinaryGraph(g, path));
    return WriteMetaFor(g, path);
  }
  return sage::Status::InvalidArgument("unknown workload '" + workload + "'");
}

}  // namespace

std::vector<sage::EdgeUpdate> NextBatch(Rng& rng, const sage::Graph& base) {
  std::vector<sage::EdgeUpdate> batch;
  const sage::vertex_id n = base.num_vertices();
  while (batch.size() < kBatch - kRemovesPerBatch) {
    const auto u = static_cast<sage::vertex_id>(rng.Below(n));
    const auto v = static_cast<sage::vertex_id>(rng.Below(n));
    if (u != v) batch.push_back(sage::EdgeUpdate::Insert(u, v));
  }
  const size_t inserts = batch.size();
  while (batch.size() < kBatch) {
    const auto u = static_cast<sage::vertex_id>(rng.Below(n));
    const auto nbrs = base.NeighborsUncharged(u);
    if (nbrs.empty()) continue;
    const sage::vertex_id v = nbrs[rng.Below(nbrs.size())];
    const bool inserted = std::any_of(
        batch.begin(), batch.begin() + static_cast<ptrdiff_t>(inserts),
        [&](const sage::EdgeUpdate& e) {
          return (e.u == u && e.v == v) || (e.u == v && e.v == u);
        });
    if (!inserted) batch.push_back(sage::EdgeUpdate::Remove(u, v));
  }
  return batch;
}

sage::Status GenerateInputs(const std::string& workload, uint64_t seed,
                            const std::string& dir) {
  SAGE_RETURN_IF_ERROR(WriteInputs(workload, seed, dir));
  return SyncDir(dir);
}

}  // namespace perf
