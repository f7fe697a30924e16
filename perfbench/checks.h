// Output checks against the sequential implementations in
// src/algorithms/reference. Each returns an empty string when the output
// is correct, else a one-line description of the first difference.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace perf {

/// `parents` is a BFS tree of the symmetric graph `g` from `src`: the
/// source is its own parent, every other vertex reached at reference level
/// L has a neighbour at level L - 1 as its parent, and exactly the
/// reference's unreached vertices are unreached. Adjacency lists must be
/// sorted.
std::string CheckBfsTree(const sage::Graph& g, sage::vertex_id src,
                         const std::vector<sage::vertex_id>& parents,
                         const std::vector<uint32_t>& ref_levels);

/// `labels` induces the same partition of the vertices as `ref`.
std::string CheckSamePartition(const std::vector<sage::vertex_id>& labels,
                               const std::vector<sage::vertex_id>& ref);

/// The L1 distance between `rank` and `ref` is at most `tolerance`.
std::string CheckL1(const std::vector<double>& rank,
                    const std::vector<double>& ref, double tolerance);

/// Checker self-test corruptions. Each changes exactly one entry: the
/// first reached non-source vertex becomes its own parent, or the first
/// vertex outside `src`'s component moves into it.
void CorruptOneParent(std::vector<sage::vertex_id>& parents,
                      sage::vertex_id src);
void CorruptOneLabel(std::vector<sage::vertex_id>& labels, sage::vertex_id src);

/// Element-wise equality.
template <typename T>
std::string CheckEqual(const std::vector<T>& got, const std::vector<T>& want) {
  if (got.size() != want.size()) {
    return "size " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return "entry " + std::to_string(i) + ": " + std::to_string(got[i]) +
             " != " + std::to_string(want[i]);
    }
  }
  return "";
}

}  // namespace perf
