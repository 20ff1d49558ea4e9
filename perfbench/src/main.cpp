// perfbench — wall-clock benchmark of the GNNavigator loop.
//
//   perfbench --workload navigate|train|serve|decide --seed N --seconds S
//             --corpus perfbench/data/corpus.csv [--trace 0|1] --out FILE
//   perfbench --write-corpus FILE
//   perfbench --build-info
//
// Writes one JSON document with the run's raw samples, scalars, layer
// metrics and spans to --out; perfbench/run.py builds this program,
// runs it and turns the document into the reported metrics. Exits 1 on
// bad arguments or a library error, 2 when the build is not a Release
// build or carries a sanitizer (such numbers are never recorded).
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "support/log.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif
#ifndef PERFBENCH_SANITIZED
#define PERFBENCH_SANITIZED 0
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "g++ " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace perfbench {

std::size_t SpanRecorder::open(const std::string& name) {
  if (!enabled_) return 0;
  Span s;
  s.id = spans_.size() + 1;
  s.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
  s.name = name;
  s.start_s = seconds_since(origin_);
  spans_.push_back(std::move(s));
  stack_.push_back(spans_.size() - 1);
  return spans_.back().id;
}

void SpanRecorder::close(std::size_t id) {
  if (id == 0) return;  // opened while disabled
  spans_[id - 1].end_s = seconds_since(origin_);
  if (!stack_.empty() && stack_.back() == id - 1) stack_.pop_back();
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string build_json() {
  return std::string("{\"build_type\": ") + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"sanitized\": " + (PERFBENCH_SANITIZED ? "true" : "false") +
         ", \"compiler\": " + json_string(PERFBENCH_COMPILER) + "}";
}

void write_result(std::ostream& os, const Options& opt, const Result& r) {
  os << "{\"workload\": " << json_string(opt.workload)
     << ", \"seed\": " << opt.seed << ", \"trace\": " << (opt.trace ? 1 : 0)
     << ", \"build\": " << build_json() << ", \"attempted\": " << r.attempted
     << ", \"failed\": " << r.failed << ", \"failures\": [";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    os << (i ? ", " : "") << json_string(r.failures[i]);
  }
  os << "], \"samples\": {";
  bool first = true;
  for (const auto& [name, values] : r.samples) {
    os << (first ? "" : ", ") << json_string(name) << ": [";
    for (std::size_t i = 0; i < values.size(); ++i) {
      os << (i ? ", " : "") << json_number(values[i]);
    }
    os << "]";
    first = false;
  }
  const auto write_map = [&os](const char* key,
                               const std::map<std::string, double>& m) {
    os << ", " << json_string(key) << ": {";
    bool first_entry = true;
    for (const auto& [name, v] : m) {
      os << (first_entry ? "" : ", ") << json_string(name) << ": "
         << json_number(v);
      first_entry = false;
    }
    os << "}";
  };
  os << "}";
  write_map("values", r.values);
  write_map("layers", r.layers);
  os << ", \"spans\": [";
  for (std::size_t i = 0; i < r.spans.size(); ++i) {
    const Span& s = r.spans[i];
    os << (i ? ", " : "") << "[" << s.id << ", " << s.parent << ", "
       << json_string(s.name) << ", " << json_number(s.start_s) << ", "
       << json_number(s.end_s) << "]";
  }
  os << "]}\n";
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload navigate|train|serve|decide --seed N "
               "--seconds S --corpus FILE [--trace 0|1] --out FILE\n"
               "       %s --write-corpus FILE\n"
               "       %s --build-info\n",
               argv0, argv0, argv0);
  return 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  gnav::set_log_level(gnav::LogLevel::kWarn);
  Options opt;
  std::string out_path;
  std::string corpus_out;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--build-info") {
      std::printf("%s\n", build_json().c_str());
      return 0;
    }
    if (i + 1 >= argc) return usage(argv[0]);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = value == "1";
      } else if (arg == "--corpus") {
        opt.corpus_path = value;
      } else if (arg == "--out") {
        out_path = value;
      } else if (arg == "--write-corpus") {
        corpus_out = value;
      } else {
        return usage(argv[0]);
      }
    } catch (const std::exception&) {
      return usage(argv[0]);
    }
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release" || PERFBENCH_SANITIZED) {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s%s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release and no sanitizer\n",
                 PERFBENCH_BUILD_TYPE,
                 PERFBENCH_SANITIZED ? " sanitizer" : "");
    return 2;
  }
  try {
    if (!corpus_out.empty()) {
      write_corpus(corpus_out);
      return 0;
    }
    if (out_path.empty() || !(opt.seconds > 0.0)) return usage(argv[0]);
    Result result;
    SpanRecorder rec(false);
    if (opt.workload == "navigate") {
      run_navigate(opt, result, rec);
    } else if (opt.workload == "train") {
      run_train(opt, result, rec);
    } else if (opt.workload == "serve") {
      run_serve(opt, result, rec);
    } else if (opt.workload == "decide") {
      run_decide(opt, result, rec);
    } else {
      return usage(argv[0]);
    }
    result.spans = rec.spans();
    std::ofstream out(out_path);
    write_result(out, opt, result);
    if (!out) {
      std::fprintf(stderr, "perfbench: cannot write %s\n", out_path.c_str());
      return 1;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
