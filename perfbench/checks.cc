#include "checks.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace perf {

using sage::vertex_id;

std::string CheckBfsTree(const sage::Graph& g, vertex_id src,
                         const std::vector<vertex_id>& parents,
                         const std::vector<uint32_t>& ref_levels) {
  const vertex_id n = g.num_vertices();
  if (parents.size() != n || ref_levels.size() != n) {
    return "parent array has " + std::to_string(parents.size()) +
           " entries for " + std::to_string(n) + " vertices";
  }
  constexpr uint32_t kUnreached = std::numeric_limits<uint32_t>::max();
  for (vertex_id v = 0; v < n; ++v) {
    const vertex_id p = parents[v];
    const std::string at = "vertex " + std::to_string(v) + ": ";
    if (ref_levels[v] == kUnreached) {
      if (p != sage::kNoVertex) return at + "reached but unreachable";
      continue;
    }
    if (v == src) {
      if (p != src) return at + "source is not its own parent";
      continue;
    }
    if (p >= n) return at + "reachable but has no parent";
    if (ref_levels[p] + 1 != ref_levels[v]) {
      return at + "parent " + std::to_string(p) + " is at level " +
             std::to_string(ref_levels[p]) + ", vertex at level " +
             std::to_string(ref_levels[v]);
    }
    auto nbrs = g.NeighborsUncharged(v);
    if (!std::binary_search(nbrs.begin(), nbrs.end(), p)) {
      return at + "parent " + std::to_string(p) + " is not a neighbour";
    }
  }
  return "";
}

std::string CheckSamePartition(const std::vector<vertex_id>& labels,
                               const std::vector<vertex_id>& ref) {
  if (labels.size() != ref.size()) return "label arrays differ in size";
  // Labels are vertex ids, so two dense maps check the bijection.
  const size_t n = labels.size();
  std::vector<vertex_id> to_ref(n, sage::kNoVertex);
  std::vector<vertex_id> from_ref(n, sage::kNoVertex);
  for (size_t v = 0; v < n; ++v) {
    const vertex_id a = labels[v], b = ref[v];
    const std::string at = "vertex " + std::to_string(v) + ": ";
    if (a >= n || b >= n) return at + "label out of range";
    if (to_ref[a] == sage::kNoVertex) to_ref[a] = b;
    if (from_ref[b] == sage::kNoVertex) from_ref[b] = a;
    if (to_ref[a] != b || from_ref[b] != a) {
      return at + "label " + std::to_string(a) +
             " does not match the reference component";
    }
  }
  return "";
}

std::string CheckL1(const std::vector<double>& rank,
                    const std::vector<double>& ref, double tolerance) {
  if (rank.size() != ref.size()) return "rank vectors differ in size";
  double l1 = 0;
  for (size_t v = 0; v < rank.size(); ++v) l1 += std::fabs(rank[v] - ref[v]);
  if (!(l1 <= tolerance)) {
    return "L1 distance " + std::to_string(l1) + " exceeds " +
           std::to_string(tolerance);
  }
  return "";
}

void CorruptOneParent(std::vector<vertex_id>& parents, vertex_id src) {
  for (size_t v = 0; v < parents.size(); ++v) {
    if (v != src && parents[v] != sage::kNoVertex) {
      parents[v] = static_cast<vertex_id>(v);
      return;
    }
  }
}

void CorruptOneLabel(std::vector<vertex_id>& labels, vertex_id src) {
  for (size_t v = 0; v < labels.size(); ++v) {
    if (labels[v] != labels[src]) {
      labels[v] = labels[src];
      return;
    }
  }
}

}  // namespace perf
