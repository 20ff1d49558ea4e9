// Per-layer metrics measured from outside the library: runtime fields
// read off TrainReports, and replays of the sampling, cache, tensor,
// compute and nn calls at the shapes a workload's configs produce.
//
// Every FLOP and byte figure here is computed from the call's shapes
// (2·m·k·n for a GEMM, 2·nnz·cols for an SpMM), not counted in hardware.
#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <functional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "cache/device_cache.hpp"
#include "compute/backend.hpp"
#include "nn/loss.hpp"
#include "nn/model.hpp"
#include "nn/optim.hpp"
#include "sampling/batcher.hpp"
#include "sampling/sampler_factory.hpp"
#include "support/rng.hpp"
#include "tensor/ops.hpp"

namespace perfbench {

using namespace gnav;

namespace {

/// Mini-batches replayed per case; enough for stable means, small enough
/// that the replay stays a few seconds on the largest analogue.
constexpr std::size_t kBatchesPerCase = 4;

const char* const kSpmmBackends[] = {compute::kScalarBackendId,
                                     compute::kBlockedBackendId,
                                     compute::kArenaBackendId};

double mean(double total, double count) {
  return count > 0.0 ? total / count : 0.0;
}

/// Accumulated wall and work of one kernel kind.
struct Rate {
  double wall_s = 0.0;
  double work = 0.0;  // FLOPs, bytes or items
  double per_s() const { return wall_s > 0.0 ? work / wall_s : 0.0; }
};

/// Times `fn` under a span named `name` and adds wall and work to `rate`.
template <class Fn>
void timed(SpanRecorder& rec, const std::string& name, Rate& rate,
           double work, Fn&& fn) {
  rate.wall_s += timed_span(rec, name, fn);
  rate.work += work;
}

/// Times every SpMM backend on `g` with `x` and accumulates computed FLOPs
/// (2 per edge per column) and bytes (CSR arrays, gathered source rows,
/// written output rows).
void replay_spmm(const graph::CsrGraph& g, const tensor::Tensor& x,
                 SpanRecorder& rec, std::vector<Rate>& rates, double& bytes) {
  const double nnz = static_cast<double>(g.num_edges());
  const double cols = static_cast<double>(x.cols());
  const double rows = static_cast<double>(g.num_nodes());
  bytes += (rows + 1.0) * sizeof(graph::EdgeId) +
           nnz * sizeof(graph::NodeId) + nnz * cols * sizeof(float) +
           rows * cols * sizeof(float);
  tensor::Tensor y(x.rows(), x.cols());
  for (std::size_t b = 0; b < std::size(kSpmmBackends); ++b) {
    const auto backend = compute::BackendFactory::create(kSpmmBackends[b]);
    timed(rec, std::string("compute.spmm:") + kSpmmBackends[b], rates[b],
          2.0 * nnz * cols,
          [&] { backend->spmm(g, x, y, kernels::SpmmScales{}); });
  }
}

}  // namespace

bool reports_match(const runtime::TrainReport& a,
                   const runtime::TrainReport& b) {
  return a.epoch_loss == b.epoch_loss && a.epoch_times_s == b.epoch_times_s &&
         a.epoch_train_accuracy == b.epoch_train_accuracy &&
         a.epoch_val_accuracy == b.epoch_val_accuracy &&
         a.final_train_accuracy == b.final_train_accuracy &&
         a.val_accuracy == b.val_accuracy &&
         a.test_accuracy == b.test_accuracy &&
         a.epoch_time_s == b.epoch_time_s &&
         a.peak_memory_gb == b.peak_memory_gb &&
         a.mem_model_gb == b.mem_model_gb &&
         a.mem_cache_gb == b.mem_cache_gb &&
         a.mem_runtime_gb == b.mem_runtime_gb &&
         a.cache_hit_rate == b.cache_hit_rate &&
         a.avg_batch_nodes == b.avg_batch_nodes &&
         a.avg_batch_edges == b.avg_batch_edges &&
         a.iterations_per_epoch == b.iterations_per_epoch &&
         a.pipeline.modeled_overlapped_s == b.pipeline.modeled_overlapped_s &&
         a.pipeline.modeled_sequential_s == b.pipeline.modeled_sequential_s;
}

void add_runtime_layers(const std::vector<runtime::TrainReport>& reports,
                        const std::vector<double>& run_walls_s, Result& out) {
  double loop = 0, eval = 0, sample = 0, transfer = 0, compute = 0, push = 0,
         pop = 0, occupancy = 0, efficiency = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const runtime::PipelineReport& p = reports[i].pipeline;
    loop += p.measured_wall_s;
    eval += run_walls_s[i] - p.measured_wall_s;
    sample += p.sample_wall_s;
    transfer += p.transfer_wall_s;
    compute += p.compute_wall_s;
    push += static_cast<double>(p.push_stalls);
    pop += static_cast<double>(p.pop_stalls);
    occupancy += p.mean_queue_occupancy;
    efficiency += p.overlap_efficiency();
  }
  const double n = static_cast<double>(reports.size());
  out.layers["runtime.loop_s"] = mean(loop, n);
  out.layers["runtime.eval_s"] = mean(eval, n);
  out.layers["runtime.sample_wall_s"] = mean(sample, n);
  out.layers["runtime.transfer_wall_s"] = mean(transfer, n);
  out.layers["runtime.compute_wall_s"] = mean(compute, n);
  out.layers["runtime.push_stalls"] = mean(push, n);
  out.layers["runtime.pop_stalls"] = mean(pop, n);
  out.layers["runtime.queue_occupancy"] = mean(occupancy, n);
  out.layers["runtime.overlap_efficiency"] = mean(efficiency, n);
}

void add_kernel_layers(const std::vector<ReplayCase>& cases,
                       std::uint64_t seed, SpanRecorder& rec, Result& out) {
  const bool was_enabled = rec.enabled();
  rec.set_enabled(true);
  const ScopedSpan replay_span(rec, "replay");
  Rate sample, lookup, forward, backward, step, mm, mm_at_b, mm_a_bt;
  std::vector<Rate> spmm(std::size(kSpmmBackends));
  double spmm_bytes = 0.0, nodes = 0.0, edges = 0.0, batches = 0.0;
  std::vector<const graph::Dataset*> full_graph_done;

  for (const ReplayCase& c : cases) {
    const graph::Dataset& ds = *c.dataset;
    const runtime::TrainConfig& cfg = c.config;
    Rng rng(seed);
    cache::DeviceCache device_cache(
        cfg.cache_policy,
        static_cast<std::size_t>(cfg.cache_ratio *
                                 static_cast<double>(ds.num_nodes())),
        ds.graph);
    sampling::SamplerSettings ss;
    ss.kind = cfg.sampler;
    ss.hop_list = cfg.hop_list;
    ss.bias_rate = cfg.bias_rate;
    ss.saint_budget_multiplier = cfg.saint_budget_multiplier;
    ss.cluster_num_parts = static_cast<int>(std::max<std::size_t>(
        4, static_cast<std::size_t>(ds.num_nodes()) * 4 / cfg.batch_size));
    const std::vector<char>* preference =
        cfg.bias_rate > 0.0 ? &device_cache.residency_bitmap() : nullptr;
    const auto sampler = sampling::make_sampler(
        ss, preference,
        preference != nullptr ? std::function<std::uint64_t()>([&] {
          return device_cache.residency_version();
        })
                              : nullptr);
    sampling::SeedBatcher batcher(ds.train_nodes, cfg.batch_size);
    const auto seed_batches = batcher.epoch_batches(rng);

    tensor::Tensor x_full(static_cast<std::size_t>(ds.num_nodes()),
                          static_cast<std::size_t>(ds.feature_dim));
    std::copy(ds.features.begin(), ds.features.end(), x_full.data());
    nn::ModelConfig mc;
    mc.kind = cfg.model;
    mc.in_dim = static_cast<std::size_t>(ds.feature_dim);
    mc.hidden_dim = cfg.hidden_dim;
    mc.out_dim = static_cast<std::size_t>(ds.num_classes);
    mc.num_layers = cfg.num_layers;
    mc.dropout = cfg.dropout;
    nn::GnnModel model(mc, rng);
    nn::Adam optimizer(model.parameters(), cfg.learning_rate);
    const tensor::Tensor weight =
        tensor::Tensor::glorot(mc.in_dim, mc.hidden_dim, rng);

    const std::size_t count = std::min(kBatchesPerCase, seed_batches.size());
    for (std::size_t b = 0; b < count; ++b) {
      sampling::MiniBatch mb;
      timed(rec, "sampling.sample", sample, 1.0, [&] {
        mb = sampler->sample(ds.graph, seed_batches[b], rng);
      });
      nodes += static_cast<double>(mb.num_nodes());
      edges += static_cast<double>(mb.num_edges());
      batches += 1.0;
      if (cfg.cache_policy != cache::CachePolicy::kNone) {
        timed(rec, "cache.lookup", lookup,
              static_cast<double>(mb.nodes.size()),
              [&] { device_cache.lookup_and_update(mb.nodes); });
      }

      const tensor::Tensor x = tensor::gather_rows(x_full, mb.nodes);
      std::vector<int> labels(mb.seed_local.size());
      for (std::size_t s = 0; s < mb.seed_local.size(); ++s) {
        labels[s] = ds.labels[static_cast<std::size_t>(
            mb.nodes[static_cast<std::size_t>(mb.seed_local[s])])];
      }
      tensor::Tensor logits;
      timed(rec, "nn.forward", forward, 1.0,
            [&] { logits = model.forward(mb.subgraph, x, true, rng); });
      const nn::LossResult loss =
          nn::softmax_cross_entropy(logits, mb.seed_local, labels);
      optimizer.zero_grad();
      timed(rec, "nn.backward", backward, 1.0,
            [&] { model.backward(loss.grad_logits); });
      timed(rec, "nn.optim_step", step, 1.0, [&] { optimizer.step(); });

      // The first layer's GEMMs at this batch's shape:
      // [n x in] * [in x hidden], its weight gradient and input gradient.
      const double n = static_cast<double>(x.rows());
      const double flops = 2.0 * n * static_cast<double>(mc.in_dim) *
                           static_cast<double>(mc.hidden_dim);
      tensor::Tensor h;
      timed(rec, "tensor.matmul", mm, flops,
            [&] { h = tensor::matmul(x, weight); });
      timed(rec, "tensor.matmul_at_b", mm_at_b, flops,
            [&] { tensor::matmul_at_b(x, h); });
      timed(rec, "tensor.matmul_a_bt", mm_a_bt, flops,
            [&] { tensor::matmul_a_bt(h, weight); });
      replay_spmm(mb.subgraph, x, rec, spmm, spmm_bytes);
    }
    if (std::find(full_graph_done.begin(), full_graph_done.end(), &ds) ==
        full_graph_done.end()) {
      full_graph_done.push_back(&ds);
      replay_spmm(ds.graph, x_full, rec, spmm, spmm_bytes);
    }
  }

  out.layers["sampling.batches_per_s"] = sample.per_s();
  out.layers["sampling.nodes_per_batch"] = mean(nodes, batches);
  out.layers["sampling.edges_per_batch"] = mean(edges, batches);
  out.layers["cache.lookups_per_s"] = lookup.per_s();
  out.layers["nn.forward_s"] = mean(forward.wall_s, forward.work);
  out.layers["nn.backward_s"] = mean(backward.wall_s, backward.work);
  out.layers["nn.optim_step_s"] = mean(step.wall_s, step.work);
  out.layers["tensor.matmul_gflops"] = mm.per_s() / 1e9;
  out.layers["tensor.matmul_at_b_gflops"] = mm_at_b.per_s() / 1e9;
  out.layers["tensor.matmul_a_bt_gflops"] = mm_a_bt.per_s() / 1e9;
  out.layers["tensor.gemm_flops"] = mm.work + mm_at_b.work + mm_a_bt.work;
  for (std::size_t b = 0; b < std::size(kSpmmBackends); ++b) {
    out.layers[std::string("compute.spmm_gflops.") + kSpmmBackends[b]] =
        spmm[b].per_s() / 1e9;
  }
  out.layers["compute.spmm_gb_computed"] = spmm_bytes / 1e9;
  rec.set_enabled(was_enabled);
}

double process_cpu_s() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(u.ru_utime) + secs(u.ru_stime);
}

void reset_peak_rss() {
  // Writing 5 to clear_refs resets this process's VmHWM (Linux >= 4.0).
  std::ofstream("/proc/self/clear_refs") << "5";
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
    }
  }
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
