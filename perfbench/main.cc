// sage_perf: one workload of the repository's benchmark per invocation.
//
//   sage_perf gen --workload W --seed S --dir D
//       writes the workload's generated inputs into D (untimed; a process
//       of its own so generation never shows in the run's peak RSS);
//   sage_perf run --workload W --seed S --seconds T --trace 0|1 --dir D
//                 [--trace-out F] [--corrupt bfs-parent|cc-label]
//       runs the workload on them and prints one JSON result line.
//
// The exit code is 0 only when every operation succeeded and every output
// check passed. perfbench/run.py builds this binary and drives both steps.
#include <cstdio>
#include <atomic>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "api/registry.h"
#include "inputs.h"
#include "parallel/scheduler.h"
#include "perf.h"
#include "workloads.h"

namespace perf {

namespace {

std::string Num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", x);
  return buf;
}

thread_local uint64_t current_span = 0;
std::atomic<uint32_t> next_tid{0};
thread_local const uint32_t span_tid = next_tid.fetch_add(1);

}  // namespace

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " +
           Num(metrics_[i].value) + ", \"unit\": \"" + metrics_[i].unit +
           "\"}";
  }
  return out + "}}";
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name) out.push_back(r.end - r.start);
  }
  return out;
}

sage::Status Tracer::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream f(path);
  if (!f) return sage::Status::IOError("cannot write trace " + path);
  double origin = records_.empty() ? 0 : records_.front().start;
  for (const Record& r : records_) origin = std::min(origin, r.start);
  f << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    f << (i == 0 ? "\n" : ",\n") << "{\"name\": \"" << r.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << r.tid
      << ", \"ts\": " << Num((r.start - origin) * 1e6)
      << ", \"dur\": " << Num((r.end - r.start) * 1e6)
      << ", \"args\": {\"id\": " << r.id << ", \"parent\": " << r.parent
      << ", \"request\": " << r.request
      << ", \"end_us\": " << Num((r.end - origin) * 1e6) << "}}";
  }
  f << "\n]}\n";
  f.close();
  if (!f) return sage::Status::IOError("short write on trace " + path);
  return sage::Status::OK();
}

Span::Span(const char* name, uint64_t request)
    : active_(Tracer::Get().enabled()) {
  if (!active_) return;
  Tracer& t = Tracer::Get();
  record_.name = name;
  record_.id = t.NextId();
  record_.parent = current_span;
  record_.request = request;
  record_.tid = span_tid;
  saved_parent_ = current_span;
  current_span = record_.id;
  record_.start = Now();
}

Span::~Span() {
  if (!active_) return;
  record_.end = Now();
  current_span = saved_parent_;
  Tracer::Get().Add(std::move(record_));
}

sage::Status WriteMeta(const std::string& path, const InputMeta& meta) {
  std::ofstream f(path);
  f << "n " << meta.n << "\nm " << meta.m << "\nhash " << meta.hash
    << "\nsource " << meta.source << "\n";
  f.close();
  if (!f) return sage::Status::IOError("cannot write " + path);
  return sage::Status::OK();
}

sage::Result<InputMeta> ReadMeta(const std::string& path) {
  std::ifstream f(path);
  if (!f) return sage::Status::IOError("cannot read " + path);
  InputMeta meta;
  std::string key;
  int seen = 0;
  while (f >> key) {
    if (key == "n") f >> meta.n, seen |= 1;
    else if (key == "m") f >> meta.m, seen |= 2;
    else if (key == "hash") f >> meta.hash, seen |= 4;
    else if (key == "source") f >> meta.source, seen |= 8;
    else return sage::Status::Corruption(path + ": unknown key " + key);
  }
  if (seen != 15 || meta.source >= meta.n) {
    return sage::Status::Corruption(path + ": incomplete metadata");
  }
  return meta;
}

uint64_t HashGraph(const sage::Graph& g) {
  uint64_t h = Mix(g.num_vertices()) ^ g.num_edges();
  for (sage::edge_offset o : g.raw_offsets()) h = Mix(h ^ o);
  for (sage::vertex_id v : g.raw_neighbors()) h = Mix(h ^ v);
  return h;
}

}  // namespace perf

namespace {

constexpr int kWidth = 3;

int Usage() {
  std::fprintf(stderr,
               "usage: sage_perf gen --workload W --seed S --dir D\n"
               "       sage_perf run --workload W --seed S --seconds T "
               "--trace 0|1 --dir D\n"
               "                     [--trace-out F] "
               "[--corrupt bfs-parent|cc-label]\n"
               "workloads: analytics cold-open serve\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // argv: program, command, then --key value pairs.
  if (argc < 2 || argc % 2 != 0) return Usage();
  const std::string cmd = argv[1];
  perf::Options opt;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i], val = argv[i + 1];
    if (key == "--workload") {
      opt.workload = val;
    } else if (key == "--seed") {
      opt.seed = std::strtoull(val.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      opt.seconds = std::atof(val.c_str());
    } else if (key == "--trace") {
      opt.trace = val == "1";
    } else if (key == "--dir") {
      opt.dir = val;
    } else if (key == "--trace-out") {
      opt.trace_out = val;
    } else if (key == "--corrupt") {
      opt.corrupt = val;
    } else {
      return Usage();
    }
  }
  if (opt.workload.empty() || opt.dir.empty()) return Usage();
  // One fixed width for every workload, narrower than the 4-core host:
  // the memory-bound kernels run as fast at 3 workers as at 4 there, and
  // the spare core keeps the harness, the OS and I/O off the workers.
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  sage::Scheduler::Reset(std::max(1, std::min(kWidth, hw - 1)));

  if (cmd == "gen") {
    sage::Status st = perf::GenerateInputs(opt.workload, opt.seed, opt.dir);
    if (!st.ok()) {
      std::fprintf(stderr, "sage_perf gen: %s\n", st.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (cmd != "run" || opt.seconds <= 0) return Usage();
  if (!opt.corrupt.empty() && opt.corrupt != "bfs-parent" &&
      opt.corrupt != "cc-label") {
    return Usage();
  }
  for (const char* algo :
       {"bfs", "wbfs", "pagerank", "connectivity", "kcore", "triangle-count"}) {
    if (sage::AlgorithmRegistry::Get().Find(algo) == nullptr) {
      std::fprintf(stderr, "sage_perf: algorithm '%s' is not registered\n",
                   algo);
      return 1;
    }
  }
  if (opt.trace) perf::Tracer::Get().Enable();

  perf::Report report;
  if (opt.workload == "analytics") {
    perf::RunAnalytics(opt, report);
  } else if (opt.workload == "cold-open") {
    perf::RunColdOpen(opt, report);
  } else if (opt.workload == "serve") {
    perf::RunServe(opt, report);
  } else {
    return Usage();
  }
  if (opt.trace && !opt.trace_out.empty()) {
    sage::Status st = perf::Tracer::Get().WriteChromeJson(opt.trace_out);
    report.Check(st.ok(), st.ToString());
  }
  std::printf("%s\n", report.ToJson().c_str());
  return report.correct() && report.failed() == 0 ? 0 : 1;
}
