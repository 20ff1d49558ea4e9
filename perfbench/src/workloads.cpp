// The four perfbench workloads. Each one sets up its inputs several
// times (setup_s samples), runs whole operations for the requested
// seconds with spans off (the end-to-end samples), and in a traced run
// repeats that for the same seconds with spans on (the per-layer
// numbers) before replaying the kernels at the shapes it produced.
//
// Only public library functions are called, and the workload seed only
// reaches the generated datasets: the navigator's own knobs (collection
// seed, run seeds, job mix) stay fixed so that every seed asks for the
// same amount of work.
#include <algorithm>
#include <exception>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "bench.hpp"
#include "compute/backend.hpp"
#include "dse/decision_maker.hpp"
#include "dse/design_space.hpp"
#include "dse/explorer.hpp"
#include "estimator/corpus_io.hpp"
#include "estimator/dataset_stats.hpp"
#include "estimator/perf_estimator.hpp"
#include "estimator/profile_collector.hpp"
#include "graph/dataset.hpp"
#include "hw/platform.hpp"
#include "runtime/templates.hpp"
#include "serve/job_scheduler.hpp"
#include "support/parallel.hpp"

namespace perfbench {
namespace {

using namespace gnav;

constexpr int kSetupRepeats = 5;
constexpr const char* kHeldOut = "ogbn-arxiv";

hw::HardwareProfile hardware() { return hw::make_profile("rtx4090"); }

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

/// Lazy library state (global pool, backend singletons) is created here,
/// before any timed region.
void warm_library() {
  support::global_pool();
  for (const char* id : {compute::kScalarBackendId, compute::kBlockedBackendId,
                         compute::kArenaBackendId}) {
    compute::BackendFactory::create(id);
  }
}

/// Runs `setup` kSetupRepeats times, recording each wall as a setup_s
/// sample, and returns the last result. Each earlier state is released
/// before the next set-up starts, so no two are resident at once.
template <class Setup>
auto repeated_setup(Result& out, Setup&& setup) {
  decltype(setup()) state;
  for (int i = 0; i < kSetupRepeats; ++i) {
    state = {};
    const auto t0 = Clock::now();
    state = setup();
    out.samples["setup_s"].push_back(seconds_since(t0));
  }
  return state;
}

/// Timed dataset load; the wall is added to `load_s`.
graph::Dataset load(const std::string& name, std::uint64_t seed,
                    double& load_s) {
  const auto t0 = Clock::now();
  graph::Dataset ds = graph::load_dataset(name, seed);
  load_s += seconds_since(t0);
  return ds;
}

/// Wall and CPU time of one measured pass.
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::size_t ops = 0;
  double per_op_s() const {
    return ops > 0 ? wall_s / static_cast<double>(ops) : 0.0;
  }
};

/// Calls `op()` (which returns the number of operations it ran) until
/// `seconds` of wall have passed; the call in flight completes. Each
/// call's peak resident set is appended to `rss_mb` when given.
template <class Op>
Pass run_for(double seconds, Op&& op, std::vector<double>* rss_mb = nullptr) {
  Pass p;
  const double cpu0 = process_cpu_s();
  const auto t0 = Clock::now();
  do {
    if (rss_mb != nullptr) reset_peak_rss();
    p.ops += op();
    if (rss_mb != nullptr) rss_mb->push_back(peak_rss_mb());
  } while (seconds_since(t0) < seconds);
  p.wall_s = seconds_since(t0);
  p.cpu_s = process_cpu_s() - cpu0;
  return p;
}

/// Runs the untraced pass, and in a traced run the traced pass after it.
/// `op(measured)` runs one unit; `measured` is false in the traced pass,
/// whose samples must not reach the end-to-end metrics.
template <class Op>
void measure(const Options& opt, Result& out, SpanRecorder& rec, Op&& op) {
  std::vector<double> rss_mb;
  const Pass plain = run_for(opt.seconds, [&] { return op(true); }, &rss_mb);
  out.values["cpu_util"] = plain.cpu_s / plain.wall_s;
  out.values["peak_rss_mb"] = median_of(rss_mb);
  out.samples["rss_mb"] = rss_mb;
  out.layers["support.cpu_util"] = out.values["cpu_util"];
  if (!opt.trace) return;
  rec.set_enabled(true);
  const Pass traced = run_for(opt.seconds, [&] { return op(false); });
  rec.set_enabled(false);
  out.layers["obs.trace_overhead_share"] =
      traced.per_op_s() / plain.per_op_s() - 1.0;
}

/// Layer metrics every workload reports; the ones it has no call for
/// stay 0.
void zero_layers(Result& out) {
  for (const char* name :
       {"navigator.collect_s", "navigator.fit_s", "navigator.explore_s",
        "navigator.decide_s", "navigator.train_s", "estimator.fit_s",
        "estimator.corpus_rows", "estimator.overlap_rows",
        "estimator.predictions_per_s", "dse.leaves_evaluated", "dse.feasible",
        "dse.pareto_size", "dse.guideline_flips", "serve.price_us",
        "serve.queue_wait_p50_s", "serve.run_p50_s", "serve.rejected",
        "cache.hit_rate"}) {
    out.layers[name] = 0.0;
  }
}

std::size_t overlap_rows(const std::vector<estimator::ProfiledRun>& corpus) {
  return static_cast<std::size_t>(std::count_if(
      corpus.begin(), corpus.end(), [](const estimator::ProfiledRun& r) {
        return r.report.pipeline.executor == "async";
      }));
}

bool corpus_matches(const std::vector<estimator::ProfiledRun>& a,
                    const std::vector<estimator::ProfiledRun>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!(a[i].config == b[i].config) ||
        a[i].stats.name != b[i].stats.name ||
        !reports_match(a[i].report, b[i].report)) {
      return false;
    }
  }
  return true;
}

/// Mean TrainReport::cache_hit_rate over the reports of cached configs.
double cache_hit_rate(const std::vector<runtime::TrainReport>& reports,
                      const std::vector<runtime::TrainConfig>& configs) {
  std::vector<double> rates;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (configs[i].cache_policy != cache::CachePolicy::kNone) {
      rates.push_back(reports[i].cache_hit_rate);
    }
  }
  return mean_of(rates);
}

void add_exploration_layers(const std::vector<dse::ExplorationResult>& results,
                            const std::vector<double>& explore_walls_s,
                            Result& out) {
  std::vector<double> leaves, feasible, pareto;
  for (const dse::ExplorationResult& r : results) {
    leaves.push_back(static_cast<double>(r.stats.leaves_evaluated));
    feasible.push_back(static_cast<double>(r.stats.feasible));
    pareto.push_back(static_cast<double>(r.pareto.size()));
  }
  out.layers["dse.leaves_evaluated"] = mean_of(leaves);
  out.layers["dse.feasible"] = mean_of(feasible);
  out.layers["dse.pareto_size"] = mean_of(pareto);
  const double wall = std::accumulate(explore_walls_s.begin(),
                                      explore_walls_s.end(), 0.0);
  out.layers["estimator.predictions_per_s"] =
      wall > 0.0 ? std::accumulate(leaves.begin(), leaves.end(), 0.0) / wall
                 : 0.0;
}

void add_fit_layers(const std::vector<estimator::ProfiledRun>& corpus,
                    const std::vector<double>& fit_walls_s, Result& out) {
  out.layers["estimator.fit_s"] = mean_of(fit_walls_s);
  out.layers["estimator.corpus_rows"] = static_cast<double>(corpus.size());
  out.layers["estimator.overlap_rows"] =
      static_cast<double>(overlap_rows(corpus));
}

/// Runs `body`, turning a library exception into a failed operation.
template <class Body>
bool guarded(Result& out, const char* what, Body&& body) {
  try {
    body();
    return true;
  } catch (const std::exception& e) {
    out.fail(std::string(what) + ": " + e.what());
    return false;
  }
}

}  // namespace

// ---------------------------------------------------------------- navigate

void run_navigate(const Options& opt, Result& out, SpanRecorder& rec) {
  warm_library();
  zero_layers(out);
  struct State {
    std::unique_ptr<graph::Dataset> ds;
    estimator::DatasetStats stats;
    std::unique_ptr<runtime::RuntimeBackend> backend;
    double load_s = 0.0;
  };
  State st = repeated_setup(out, [&] {
    State s;
    s.ds = std::make_unique<graph::Dataset>(load(kHeldOut, opt.seed, s.load_s));
    s.stats = estimator::compute_dataset_stats(*s.ds);
    s.backend = std::make_unique<runtime::RuntimeBackend>(*s.ds, hardware());
    return s;
  });
  out.layers["graph.load_s"] = st.load_s;

  const dse::BaseSettings base;
  const dse::DesignSpace space = dse::DesignSpace::full(base);
  estimator::CollectorOptions collect;
  collect.configs_per_dataset = 12;
  collect.epochs = 1;
  collect.seed = 99;
  collect.backend_id = compute::kBlockedBackendId;
  runtime::RunOptions train_opts;
  train_opts.epochs = 2;
  train_opts.seed = 1;
  train_opts.backend_id = compute::kBlockedBackendId;
  train_opts.pipeline = runtime::PipelineConfig{};

  std::vector<estimator::ProfiledRun> first_corpus;
  std::vector<runtime::TrainConfig> decided;
  std::vector<double> phase[5];  // traced pass: collect fit explore decide train
  std::vector<dse::ExplorationResult> explorations;
  std::vector<runtime::TrainReport> reports;
  std::vector<runtime::TrainConfig> configs;  // of `reports`

  measure(opt, out, rec, [&](bool measured) -> std::size_t {
    const auto t0 = Clock::now();
    ++out.attempted;
    double walls[5] = {};
    const bool ok = guarded(out, "navigate", [&] {
      const ScopedSpan loop(rec, "navigate.loop");
      std::vector<estimator::ProfiledRun> corpus;
      walls[0] = timed_span(rec, "navigator.collect", [&] {
        corpus = estimator::collect_lodo_corpus(
            graph::dataset_names(), kHeldOut, 1, hardware(), collect);
      });
      estimator::PerfEstimator est(hardware());
      walls[1] = timed_span(rec, "navigator.fit", [&] { est.fit(corpus); });
      dse::ExplorationResult result;
      walls[2] = timed_span(rec, "navigator.explore", [&] {
        result = dse::Explorer(space, est, st.stats)
                     .explore(dse::RuntimeConstraints{},
                              runtime::all_templates());
      });
      dse::Decision decision;
      walls[3] = timed_span(rec, "navigator.decide", [&] {
        decision = dse::DecisionMaker(dse::targets_balance()).decide(result);
      });
      const runtime::TrainConfig guideline = decision.chosen.config;
      guideline.validate();
      runtime::TrainReport report;
      walls[4] = timed_span(rec, "navigator.train", [&] {
        report = st.backend->run(guideline, train_opts);
      });

      if (first_corpus.empty()) {
        first_corpus = corpus;
      } else if (!corpus_matches(first_corpus, corpus)) {
        out.fail("navigate: corpus data fields differ from the first loop");
      }
      decided.push_back(guideline);
      if (!measured) {
        for (int i = 0; i < 5; ++i) phase[i].push_back(walls[i]);
        explorations.push_back(std::move(result));
        reports.push_back(report);
        configs.push_back(guideline);
      }
    });
    if (ok && measured) out.samples["op_s"].push_back(seconds_since(t0));
    return 1;
  });

  const std::vector<double>& loops = out.samples["op_s"];
  out.samples["latency_s"] = loops;
  out.values["throughput_per_s"] =
      loops.empty() ? 0.0
                    : static_cast<double>(loops.size()) /
                          std::accumulate(loops.begin(), loops.end(), 0.0);
  if (opt.trace) {
    const char* names[5] = {"navigator.collect_s", "navigator.fit_s",
                            "navigator.explore_s", "navigator.decide_s",
                            "navigator.train_s"};
    for (int i = 0; i < 5; ++i) out.layers[names[i]] = mean_of(phase[i]);
    add_fit_layers(first_corpus, phase[1], out);
    add_exploration_layers(explorations, phase[2], out);
    std::size_t flips = 0;
    for (const runtime::TrainConfig& c : decided) flips += !(c == decided[0]);
    out.layers["dse.guideline_flips"] = static_cast<double>(flips);
    add_runtime_layers(reports, phase[4], out);
    out.layers["cache.hit_rate"] = cache_hit_rate(reports, configs);
    std::vector<ReplayCase> cases;
    if (!configs.empty()) cases.push_back({st.ds.get(), configs.back()});
    add_kernel_layers(cases, opt.seed, rec, out);
  }
}

// ------------------------------------------------------------------- train

void run_train(const Options& opt, Result& out, SpanRecorder& rec) {
  warm_library();
  zero_layers(out);
  struct State {
    std::unique_ptr<graph::Dataset> ds;
    std::unique_ptr<runtime::RuntimeBackend> backend;
    double load_s = 0.0;
  };
  State st = repeated_setup(out, [&] {
    State s;
    s.ds = std::make_unique<graph::Dataset>(load("reddit2", opt.seed, s.load_s));
    s.backend = std::make_unique<runtime::RuntimeBackend>(*s.ds, hardware());
    return s;
  });
  out.layers["graph.load_s"] = st.load_s;

  // The mix: five systems, each under the sync and the async executor,
  // selected explicitly (never through the GNAV_PIPELINE env vars).
  struct Entry {
    runtime::TrainConfig config;
    runtime::RunOptions options;
  };
  std::vector<Entry> mix;
  for (const char* name :
       {"pyg", "pagraph-full", "2pgraph", "graphsaint", "fastgcn"}) {
    for (const auto mode :
         {runtime::PipelineMode::kSync, runtime::PipelineMode::kAsync}) {
      Entry e;
      e.config = runtime::template_by_name(name);
      e.options.epochs = 4;
      e.options.seed = 1;
      e.options.backend_id = compute::kBlockedBackendId;
      e.options.pipeline.mode = mode;
      e.options.pipeline.prefetch_depth = 4;
      e.options.pipeline.sampler_workers = 2;
      mix.push_back(e);
    }
  }
  const double samples_per_run =
      static_cast<double>(st.ds->train_nodes.size()) * 4.0;

  std::vector<runtime::TrainReport> reference(mix.size());
  std::vector<bool> have_reference(mix.size(), false);
  std::vector<runtime::TrainReport> traced_reports;
  std::vector<runtime::TrainConfig> traced_configs;
  std::vector<double> traced_walls;
  std::vector<double> accs;

  measure(opt, out, rec, [&](bool measured) -> std::size_t {
    // One pass of the whole mix, so every sample set holds whole passes;
    // a pass is the latency sample, as its runs differ in cost.
    const auto pass_t0 = Clock::now();
    const ScopedSpan pass(rec, "train.pass");
    for (std::size_t i = 0; i < mix.size(); ++i) {
      ++out.attempted;
      guarded(out, "train", [&] {
        const Entry& e = mix[i];
        const auto t0 = Clock::now();
        runtime::TrainReport report;
        {
          const ScopedSpan s(rec, "runtime.run:" + e.config.name + ":" +
                                      runtime::to_string(e.options.pipeline.mode));
          report = st.backend->run(e.config, e.options);
        }
        const double wall = seconds_since(t0);
        // The sync and async run of one system share a reference.
        const std::size_t ref = i - i % 2;
        if (!have_reference[ref]) {
          reference[ref] = report;
          have_reference[ref] = true;
        } else if (!reports_match(reference[ref], report)) {
          out.fail("train: " + e.config.name + " " +
                   runtime::to_string(e.options.pipeline.mode) +
                   " report differs from the reference run");
          return;
        }
        if (measured) {
          out.samples["op_s"].push_back(wall);
          accs.push_back(report.test_accuracy);
        } else {
          traced_reports.push_back(report);
          traced_configs.push_back(e.config);
          traced_walls.push_back(wall);
        }
      });
    }
    if (measured) out.samples["latency_s"].push_back(seconds_since(pass_t0));
    return mix.size();
  });

  const std::vector<double>& runs = out.samples["op_s"];
  out.values["throughput_per_s"] =
      runs.empty() ? 0.0
                   : samples_per_run * static_cast<double>(runs.size()) /
                         std::accumulate(runs.begin(), runs.end(), 0.0);
  out.values["acc"] = mean_of(accs);
  if (opt.trace) {
    add_runtime_layers(traced_reports, traced_walls, out);
    out.layers["cache.hit_rate"] = cache_hit_rate(traced_reports, traced_configs);
    std::vector<ReplayCase> cases;
    for (std::size_t i = 0; i < mix.size(); i += 2) {
      cases.push_back({st.ds.get(), mix[i].config});
    }
    add_kernel_layers(cases, opt.seed, rec, out);
  }
}

// ------------------------------------------------------------------- serve

namespace {

/// The serve job mix: kTrain jobs under both executors plus a few
/// kNavigateTrain jobs, spread over three tenants with priorities 1/1/2.
std::vector<serve::JobRequest> serve_jobs() {
  const char* systems[] = {"pyg", "pagraph-full", "fastgcn", "2pgraph"};
  const char* tenants[] = {"tenant-a", "tenant-b", "tenant-c"};
  const double priorities[] = {1.0, 1.0, 2.0};
  std::vector<serve::JobRequest> jobs;
  for (std::size_t i = 0; i < 24; ++i) {
    serve::JobRequest req;
    req.tenant = tenants[i % 3];
    req.priority = priorities[i % 3];
    req.config = runtime::template_by_name(systems[(i / 2) % 4]);
    req.kind = i % 8 == 7 ? serve::JobKind::kNavigateTrain
                          : serve::JobKind::kTrain;
    req.epochs = 2;
    req.backend_id = compute::kBlockedBackendId;
    if (i % 2 == 1) {
      req.pipeline.mode = runtime::PipelineMode::kAsync;
      req.pipeline.prefetch_depth = 2;
      req.pipeline.sampler_workers = 1;
    }
    jobs.push_back(req);
  }
  return jobs;
}

/// The admission price recomputed directly from the estimator, the same
/// formula JobScheduler documents.
double expected_price(const estimator::PerfEstimator& est,
                      const estimator::DatasetStats& stats,
                      const serve::SchedulerOptions& options,
                      const serve::JobRequest& req) {
  const estimator::PerfPrediction p =
      est.predict(req.config, stats, req.backend_id);
  const double serial_s =
      (p.overlap_ratio_analytic > 0.0 ? p.time_s / p.overlap_ratio_analytic
                                      : p.time_s) *
      static_cast<double>(req.epochs);
  if (req.pipeline.mode != runtime::PipelineMode::kAsync) return serial_s;
  estimator::OverlapExecutorShape shape = options.default_shape;
  if (req.pipeline.prefetch_depth > 0) {
    shape.prefetch_depth = req.pipeline.prefetch_depth;
  }
  if (req.pipeline.sampler_workers > 0) {
    shape.sampler_workers = req.pipeline.sampler_workers;
  }
  return est.predict_pipelined_wall_s(req.config, stats, shape, serial_s);
}

std::vector<estimator::ProfiledRun> rows_without(
    const std::vector<estimator::ProfiledRun>& corpus,
    const std::string& held_out) {
  std::vector<estimator::ProfiledRun> rows;
  for (const estimator::ProfiledRun& r : corpus) {
    if (r.stats.name != held_out) rows.push_back(r);
  }
  return rows;
}

}  // namespace

void run_serve(const Options& opt, Result& out, SpanRecorder& rec) {
  warm_library();
  zero_layers(out);
  struct State {
    std::unique_ptr<graph::Dataset> ds;
    estimator::DatasetStats stats;
    std::unique_ptr<runtime::RuntimeBackend> backend;
    std::vector<estimator::ProfiledRun> corpus;
    std::unique_ptr<estimator::PerfEstimator> est;
    double load_s = 0.0;
    double fit_s = 0.0;
  };
  State st = repeated_setup(out, [&] {
    State s;
    s.ds = std::make_unique<graph::Dataset>(load(kHeldOut, opt.seed, s.load_s));
    s.stats = estimator::compute_dataset_stats(*s.ds);
    s.backend = std::make_unique<runtime::RuntimeBackend>(*s.ds, hardware());
    s.corpus = rows_without(estimator::load_corpus(opt.corpus_path), kHeldOut);
    s.est = std::make_unique<estimator::PerfEstimator>(hardware());
    const auto t0 = Clock::now();
    s.est->fit(s.corpus);
    s.fit_s = seconds_since(t0);
    return s;
  });
  out.layers["graph.load_s"] = st.load_s;
  add_fit_layers(st.corpus, {st.fit_s}, out);

  const dse::DesignSpace space = dse::DesignSpace::full(dse::BaseSettings{});
  serve::SchedulerOptions sched_opts;
  sched_opts.max_active = 2;
  sched_opts.seed = 1;
  sched_opts.refit_after_drain = true;
  sched_opts.base_corpus = &st.corpus;
  const std::vector<serve::JobRequest> jobs = serve_jobs();

  std::vector<std::size_t> first_order;
  std::vector<double> price_us, queue_waits, run_walls;
  std::vector<runtime::TrainReport> traced_reports;
  std::vector<runtime::TrainConfig> traced_configs;
  std::size_t rejected = 0;
  double completed = 0.0;

  measure(opt, out, rec, [&](bool measured) -> std::size_t {
    ++out.attempted;
    std::string problem;  // the drain's first failed check
    const bool ran = guarded(out, "serve", [&] {
      // Every drain starts from the same fit: prices never carry over.
      estimator::PerfEstimator est = *st.est;
      const auto t0 = Clock::now();
      const ScopedSpan drain_span(rec, "serve.drain");
      serve::JobScheduler sched(*st.backend, est, st.stats, sched_opts, &space);
      std::vector<std::size_t> ids;
      for (const serve::JobRequest& req : jobs) {
        if (!measured) {
          const ScopedSpan s(rec, "serve.price");
          const auto p0 = Clock::now();
          sched.price(req);
          price_us.push_back(seconds_since(p0) * 1e6);
        }
        ids.push_back(sched.submit(req));
      }
      serve::DrainStats stats;
      {
        const ScopedSpan s(rec, "serve.run");
        stats = sched.drain();
      }
      const double wall = seconds_since(t0);

      std::vector<std::size_t> order;
      for (std::size_t k = 0; k < ids.size(); ++k) {
        const serve::JobOutcome o = sched.outcome(ids[k]);
        order.push_back(o.start_order);
        if (o.state == serve::JobState::kRejected) {
          ++rejected;
          continue;
        }
        if (o.state != serve::JobState::kDone) {
          if (problem.empty()) {
            problem = "serve: job " + std::to_string(o.id) + " ended " +
                      serve::to_string(o.state) + " " + o.error;
          }
          continue;
        }
        if (o.price.predicted_wall_s !=
            expected_price(*st.est, st.stats, sched_opts, jobs[k])) {
          if (problem.empty()) {
            problem = "serve: job " + std::to_string(o.id) +
                      " price differs from predict_pipelined_wall_s";
          }
        }
        if (measured) {
          out.samples["latency_s"].push_back(o.queue_wait_s + o.run_s);
        } else {
          queue_waits.push_back(o.queue_wait_s);
          run_walls.push_back(o.run_s);
          traced_reports.push_back(o.report);
          traced_configs.push_back(o.decided_config);
        }
      }
      if (first_order.empty()) {
        first_order = order;
      } else if (order != first_order && problem.empty()) {
        problem = "serve: start order differs from the first drain";
      }
      if (measured && problem.empty()) {
        out.samples["op_s"].push_back(wall);
        completed += static_cast<double>(stats.completed);
      }
    });
    if (ran && !problem.empty()) out.fail(problem);
    return 1;
  });

  const std::vector<double>& drains = out.samples["op_s"];
  const double drain_wall = std::accumulate(drains.begin(), drains.end(), 0.0);
  out.values["throughput_per_s"] = drain_wall > 0.0 ? completed / drain_wall : 0.0;
  if (opt.trace) {
    out.layers["serve.price_us"] = median_of(price_us);
    out.layers["serve.queue_wait_p50_s"] = median_of(queue_waits);
    out.layers["serve.run_p50_s"] = median_of(run_walls);
    out.layers["serve.rejected"] = static_cast<double>(rejected);
    add_runtime_layers(traced_reports, run_walls, out);
    out.layers["cache.hit_rate"] = cache_hit_rate(traced_reports, traced_configs);
    std::vector<ReplayCase> cases;
    for (std::size_t i = 0; i < 8; i += 2) {
      cases.push_back({st.ds.get(), jobs[i].config});
    }
    add_kernel_layers(cases, opt.seed, rec, out);
  }
}

// ------------------------------------------------------------------ decide

void run_decide(const Options& opt, Result& out, SpanRecorder& rec) {
  warm_library();
  zero_layers(out);
  const std::vector<std::string> names = graph::dataset_names();
  struct State {
    std::vector<std::unique_ptr<graph::Dataset>> ds;
    std::vector<estimator::DatasetStats> stats;
    std::vector<estimator::ProfiledRun> corpus;
    double load_s = 0.0;
  };
  State st = repeated_setup(out, [&] {
    State s;
    s.corpus = estimator::load_corpus(opt.corpus_path);
    for (const std::string& name : names) {
      s.ds.push_back(
          std::make_unique<graph::Dataset>(load(name, opt.seed, s.load_s)));
      s.stats.push_back(estimator::compute_dataset_stats(*s.ds.back()));
    }
    return s;
  });
  out.layers["graph.load_s"] = st.load_s;

  const dse::DesignSpace space = dse::DesignSpace::full(dse::BaseSettings{});
  const dse::ExploreTargets priorities[] = {
      dse::targets_balance(), dse::targets_extreme_time_memory(),
      dse::targets_extreme_memory_accuracy(),
      dse::targets_extreme_time_accuracy()};
  // First pass's decisions per held-out dataset, checked on every pass.
  std::vector<std::vector<dse::Candidate>> first(names.size());
  std::vector<double> fit_walls, explore_walls, rows, overlaps;
  std::vector<dse::ExplorationResult> explorations;
  std::vector<ReplayCase> cases;
  std::size_t decisions = 0;

  measure(opt, out, rec, [&](bool measured) -> std::size_t {
    // A pass decides for every held-out dataset; it is the latency sample,
    // as the four held-out operations differ in cost.
    const auto pass_t0 = Clock::now();
    for (std::size_t h = 0; h < names.size(); ++h) {
      ++out.attempted;
      guarded(out, "decide", [&] {
        const auto t0 = Clock::now();
        const ScopedSpan op(rec, "decide.op");
        const std::vector<estimator::ProfiledRun> train_rows =
            rows_without(st.corpus, names[h]);
        estimator::PerfEstimator est(hardware());
        const double fit_s =
            timed_span(rec, "estimator.fit", [&] { est.fit(train_rows); });
        dse::ExplorationResult result;
        const double explore_s = timed_span(rec, "dse.explore", [&] {
          result = dse::Explorer(space, est, st.stats[h])
                       .explore(dse::RuntimeConstraints{},
                                runtime::all_templates());
        });
        std::vector<dse::Candidate> chosen;
        timed_span(rec, "dse.decide", [&] {
          for (const dse::ExploreTargets& target : priorities) {
            chosen.push_back(dse::DecisionMaker(target).decide(result).chosen);
          }
        });
        const double wall = seconds_since(t0);

        if (first[h].empty()) {
          first[h] = chosen;
        } else {
          for (std::size_t p = 0; p < chosen.size(); ++p) {
            const dse::Candidate& a = first[h][p];
            const dse::Candidate& b = chosen[p];
            if (!(a.config == b.config) ||
                a.predicted.time_s != b.predicted.time_s ||
                a.predicted.memory_gb != b.predicted.memory_gb ||
                a.predicted.accuracy != b.predicted.accuracy) {
              out.fail("decide: " + names[h] + " " + priorities[p].name +
                       " decision differs from the first pass");
              return;
            }
          }
        }
        if (measured) {
          out.samples["op_s"].push_back(wall);
          decisions += chosen.size();
        } else {
          fit_walls.push_back(fit_s);
          explore_walls.push_back(explore_s);
          rows.push_back(static_cast<double>(train_rows.size()));
          overlaps.push_back(static_cast<double>(overlap_rows(train_rows)));
          explorations.push_back(std::move(result));
          if (cases.size() < names.size()) {
            cases.push_back({st.ds[h].get(), chosen[0].config});
          }
        }
      });
    }
    if (measured) out.samples["latency_s"].push_back(seconds_since(pass_t0));
    return names.size();
  });

  const std::vector<double>& ops = out.samples["op_s"];
  const double wall = std::accumulate(ops.begin(), ops.end(), 0.0);
  out.values["throughput_per_s"] =
      wall > 0.0 ? static_cast<double>(decisions) / wall : 0.0;
  if (opt.trace) {
    out.layers["estimator.fit_s"] = mean_of(fit_walls);
    out.layers["estimator.corpus_rows"] = mean_of(rows);
    out.layers["estimator.overlap_rows"] = mean_of(overlaps);
    add_exploration_layers(explorations, explore_walls, out);
    add_runtime_layers({}, {}, out);
    add_kernel_layers(cases, opt.seed, rec, out);
  }
}

// ------------------------------------------------------------ write_corpus

void write_corpus(const std::string& path) {
  warm_library();
  estimator::CollectorOptions options;
  options.configs_per_dataset = 12;
  options.epochs = 1;
  options.seed = 99;
  options.backend_id = compute::kBlockedBackendId;
  std::vector<estimator::ProfiledRun> corpus;
  for (const std::string& name : graph::dataset_names()) {
    const std::vector<estimator::ProfiledRun> rows =
        estimator::collect_profiles(graph::load_dataset(name), hardware(),
                                    options);
    corpus.insert(corpus.end(), rows.begin(), rows.end());
  }
  estimator::save_corpus(corpus, path);
}

}  // namespace perfbench
