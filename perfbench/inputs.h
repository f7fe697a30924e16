// The benchmark's own seeded input generator: R-MAT graphs written through
// the library's public writers, plus the random streams the serve workload
// draws its query sources and updates from. Nothing here calls
// src/graph/generators, so a change there cannot change the inputs.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/delta.h"
#include "graph/graph.h"

namespace perf {

/// Graph sizes. The analytics / cold-open graph: 2^20 vertices and about
/// 31M directed edges after symmetrizing and deduplicating. The serve
/// graph: 2^17 vertices and about 3.9M directed edges, the same density.
inline constexpr uint32_t kLargeLogN = 20;
inline constexpr uint64_t kLargeSamples = 16'000'000;
inline constexpr uint32_t kServeLogN = 17;
inline constexpr uint64_t kServeSamples = 2'060'000;
/// Segments of the cold-open manifest.
inline constexpr uint32_t kColdShards = 4;

/// SplitMix64 finalizer.
inline uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Small sequential generator for the benchmark's streams.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(Mix(seed)) {}
  uint64_t Next() { return Mix(state_ += 0x9e3779b97f4a7c15ull); }
  /// Uniform in [0, bound).
  uint64_t Below(uint64_t bound) { return Next() % bound; }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Update batches: kBatch updates, the last kRemovesPerBatch of them
/// removes (the shape of bench/bench_update_throughput.cc).
inline constexpr size_t kBatch = 256;
inline constexpr size_t kRemovesPerBatch = 64;

/// Next batch of an update stream: random inserts between distinct
/// vertices, then removes of edges of the base image. A remove whose edge
/// an earlier batch already took out is a no-op; one that meets an insert
/// of the same batch is drawn again, so the order within a batch never
/// matters. The stream depends only on the generator's seed and the base.
std::vector<sage::EdgeUpdate> NextBatch(Rng& rng, const sage::Graph& base);

/// Symmetric, loop-free, deduplicated R-MAT graph (a, b, c = 0.5, 0.1,
/// 0.1) on 2^log_n vertices from `samples` sampled edges, with sorted
/// adjacency lists. Deterministic in (log_n, samples, seed) at any
/// scheduler width.
sage::Graph BuildRmat(uint32_t log_n, uint64_t samples, uint64_t seed);

/// Writes the inputs of `workload` into `dir` (which must exist):
///   analytics  graph.bsadj   (the large graph, monolithic)
///   cold-open  graph.bsadjx  (the same graph as kColdShards segments)
///   serve      graph.bsadj   (the serve graph, monolithic)
/// each with a `<file>.meta` beside it (see perf::InputMeta).
sage::Status GenerateInputs(const std::string& workload, uint64_t seed,
                            const std::string& dir);

}  // namespace perf
