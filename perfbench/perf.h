// Shared pieces of the sage_perf benchmark: options, the result record,
// summary statistics, the span tracer, process counters, and the input
// metadata written beside each generated graph.
//
// Spans are recorded only from the benchmark's own files, around the calls
// it makes into the library's layers; nothing here reaches into src/.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "graph/graph.h"

namespace perf {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Directory holding the generated inputs of the workload.
  std::string dir;
  /// Chrome trace-event JSON written at the end of a traced run.
  std::string trace_out;
  /// Checker self-test: corrupt one output before checking it
  /// ("bfs-parent" or "cc-label"); the run must then fail.
  std::string corrupt;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

/// Geometric mean of positive values.
inline double GeoMean(const std::vector<double>& v) {
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

/// Peak resident set of this process (ru_maxrss), in MiB.
inline double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Page faults (minor + major) taken by this process so far.
inline uint64_t PageFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<uint64_t>(ru.ru_minflt + ru.ru_majflt);
}

/// What one run reports: operation counts, the correctness verdict, and
/// the metrics in the order they were set.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Counts one attempted operation; a failed one also fails the run.
  void Attempt(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      std::fprintf(stderr, "sage_perf: operation failed: %s\n", what.c_str());
    }
  }
  /// Counts operations whose failures were already logged.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  /// Records an output check; a failed check makes the run incorrect.
  void Check(bool ok, const std::string& what) {
    if (!ok) {
      correct_ = false;
      std::fprintf(stderr, "sage_perf: check failed: %s\n", what.c_str());
    }
  }
  bool correct() const { return correct_; }
  uint64_t failed() const { return failed_; }
  std::string ToJson() const;

 private:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Entry> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  bool correct_ = true;
};

/// In-memory span recorder. Disabled (every Span a no-op) unless the run
/// is traced; spans are written out once, when the run ends.
class Tracer {
 public:
  struct Record {
    std::string name;
    uint64_t id = 0;
    uint64_t parent = 0;
    uint64_t request = 0;
    uint32_t tid = 0;
    double start = 0;  // seconds, steady clock
    double end = 0;
  };

  static Tracer& Get() {
    static Tracer tracer;
    return tracer;
  }
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Add(Record r) {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(std::move(r));
  }
  /// Durations in seconds of every span called `name`.
  std::vector<double> Durations(const std::string& name) const;
  /// Writes the spans as Chrome trace-event JSON.
  sage::Status WriteChromeJson(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<Record> records_;
};

/// RAII span around one call into a layer. The parent is the innermost
/// open span of the calling thread; `request` ties the spans of one served
/// query together.
class Span {
 public:
  explicit Span(const char* name, uint64_t request = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  /// Span id (0 when tracing is off), for children recorded after the fact.
  uint64_t id() const { return record_.id; }
  uint32_t tid() const { return record_.tid; }

 private:
  Tracer::Record record_;
  bool active_;
  uint64_t saved_parent_ = 0;
};

/// Facts about a generated graph, written beside it as `<graph>.meta` so a
/// run can verify that the image it opened is the graph that was built.
struct InputMeta {
  uint64_t n = 0;
  uint64_t m = 0;
  uint64_t hash = 0;
  uint32_t source = 0;  // highest-degree vertex, the fixed BFS source
};

sage::Status WriteMeta(const std::string& path, const InputMeta& meta);
sage::Result<InputMeta> ReadMeta(const std::string& path);

/// Order-sensitive hash of a graph's CSR arrays (offsets and neighbors).
uint64_t HashGraph(const sage::Graph& g);

}  // namespace perf
