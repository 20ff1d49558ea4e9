// Shared plumbing of the perfbench program: options, the result document
// each workload fills, wall-clock helpers and the in-memory span recorder
// of the traced run.
//
// Every timing here is std::chrono::steady_clock wall time. Thread CPU
// time is never used for a layer: a pool-parallel kernel would be rated
// by the calling thread's share of the work only.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "graph/dataset.hpp"
#include "runtime/backend.hpp"
#include "runtime/train_config.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Recorded corpus (decide, serve); written by --write-corpus.
  std::string corpus_path;
};

/// One closed span: `parent` is 0 for a root span, ids start at 1.
struct Span {
  std::size_t id = 0;
  std::size_t parent = 0;
  std::string name;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Spans recorded from the benchmark's own code, around calls into the
/// library. Main thread only; kept in memory and written at exit.
/// Disabled recorders cost one branch per span.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }
  std::size_t open(const std::string& name);
  void close(std::size_t id);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;  // indices into spans_ of open spans
};

class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& rec, const std::string& name)
      : rec_(rec), id_(rec.open(name)) {}
  ~ScopedSpan() { rec_.close(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder& rec_;
  std::size_t id_;
};

/// Runs `fn` under a span named `name` and returns its wall seconds.
template <class Fn>
double timed_span(SpanRecorder& rec, const std::string& name, Fn&& fn) {
  const ScopedSpan span(rec, name);
  const auto t0 = Clock::now();
  fn();
  return seconds_since(t0);
}

/// What one workload run reports. Samples are raw per-operation values;
/// perfbench/report.py turns them into medians and tail percentiles.
struct Result {
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;
  /// Raw samples: "op_s", "latency_s", "setup_s", "rss_mb".
  std::map<std::string, std::vector<double>> samples;
  /// Scalars: "throughput_per_s", "peak_rss_mb", "cpu_util", and "acc"
  /// (train: mean test accuracy over the mix).
  std::map<std::string, double> values;
  /// Per-layer metrics of the traced run.
  std::map<std::string, double> layers;
  std::vector<Span> spans;

  void fail(const std::string& why) {
    ++failed;
    if (failures.size() < 16) failures.push_back(why);
  }
};

/// A (dataset, config) pair whose shapes the layer replays reproduce.
struct ReplayCase {
  const gnav::graph::Dataset* dataset = nullptr;
  gnav::runtime::TrainConfig config;
};

/// Data-bearing TrainReport fields equal (wall-clock observables
/// excluded) — the executor and repeat bit-identity contract.
bool reports_match(const gnav::runtime::TrainReport& a,
                   const gnav::runtime::TrainReport& b);

/// Per-layer runtime metrics averaged over `reports`, where `run_walls_s`
/// holds each report's whole run() wall (evaluation included).
void add_runtime_layers(const std::vector<gnav::runtime::TrainReport>& reports,
                        const std::vector<double>& run_walls_s, Result& out);

/// Replays sampling, cache, tensor, compute and nn calls at the shapes
/// `cases` produce and adds their per-layer metrics to `out`.
void add_kernel_layers(const std::vector<ReplayCase>& cases,
                       std::uint64_t seed, SpanRecorder& rec, Result& out);

/// Process CPU seconds (user + system).
double process_cpu_s();

/// Peak resident set in MiB since the last reset_peak_rss(), or since
/// process start where the kernel cannot reset the high-water mark.
void reset_peak_rss();
double peak_rss_mb();

void run_navigate(const Options& opt, Result& out, SpanRecorder& rec);
void run_train(const Options& opt, Result& out, SpanRecorder& rec);
void run_serve(const Options& opt, Result& out, SpanRecorder& rec);
void run_decide(const Options& opt, Result& out, SpanRecorder& rec);

/// Profiles every registry dataset and writes the recorded corpus the
/// decide and serve workloads load.
void write_corpus(const std::string& path);

}  // namespace perfbench
