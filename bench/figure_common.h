// Shared driver for the per-figure experiment binaries.
//
// Each figure bench runs the paper's experiment — 100 evaluations per
// strategy, 5 strategies, XGB capped at 56 as observed in the paper — on
// the simulated Swing device, prints the minimum-runtime summary
// (the paper's "Minimum runtimes" bar charts) and the head of the
// process-over-time series (the scatter plots), and writes the full data
// series as CSV files under bench_out/.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "codegen/artifact_cache.h"
#include "distd/proc_device.h"
#include "framework/analysis.h"
#include "framework/figures.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/exec_backend.h"
#include "runtime/swing_sim.h"
#include "runtime/trace_log.h"

namespace tvmbo::bench {

struct FigureSpec {
  std::string kernel;
  kernels::Dataset dataset;
  std::string process_figure;  ///< e.g. "Fig4"
  std::string minimum_figure;  ///< e.g. "Fig5"
  double paper_best_runtime_s = 0.0;
  std::string paper_best_config;   ///< the paper's reported tensor size
  std::size_t evaluations = 100;   ///< per strategy, as in §5
  std::uint64_t seed = 2023;
  /// "sim" reproduces the paper's figures deterministically (default);
  /// "cpu" executes the kernel for real through `backend`.
  std::string device = "sim";
  runtime::ExecBackend backend = runtime::ExecBackend::kNative;
  codegen::JitOptions jit_options;  ///< cache dir etc. for kJit
  /// Thread-count cap for the parallel-schedule knobs on cpu TE-program
  /// backends: 1 (default) keeps the space serial, 0 = all cores, N caps
  /// the candidates at N.
  std::int64_t threads = 1;
  /// Widen the cpu TE-program space with the vectorize (vec_axis),
  /// unroll, and pack knobs (see kernels::ScheduleKnobs).
  bool vectorize = false;
  bool unroll = false;
  bool pack = false;
  /// Measurement runner for --device cpu: "local" measures in-process
  /// (default), "proc" in out-of-process workers (src/distd/) with crash
  /// isolation and hard timeouts.
  std::string runner = "local";
  /// Worker-fleet size for runner == "proc".
  std::size_t workers = 2;
};

/// Optional per-bench overrides so every figure binary can rerun its
/// experiment on real hardware:
///   --device sim|cpu   --backend native|interp|closure|jit
///   --size S           --evals N   --seed N   --jit-cache DIR
///   --threads N        (parallel-schedule knobs; see FigureSpec::threads)
///   --vectorize --unroll --pack  (widen the cpu space with the
///                      vec_axis/unroll/pack schedule knobs)
///   --runner local|proc  --workers N  (out-of-process measurement)
/// Exits with usage on unknown flags.
inline void parse_figure_args(int argc, char** argv, FigureSpec* spec) {
  auto usage = [&]() {
    std::fprintf(stderr,
                 "usage: %s [--device sim|cpu] "
                 "[--backend native|interp|closure|jit] [--size S] "
                 "[--evals N] [--seed N] [--jit-cache DIR] [--threads N] "
                 "[--vectorize] [--unroll] [--pack] "
                 "[--runner local|proc] [--workers N]\n",
                 argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--vectorize") {
      spec->vectorize = true;
      continue;
    }
    if (flag == "--unroll") {
      spec->unroll = true;
      continue;
    }
    if (flag == "--pack") {
      spec->pack = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    const std::string value = argv[++i];
    if (flag == "--device") {
      if (value != "sim" && value != "cpu") usage();
      spec->device = value;
    } else if (flag == "--backend") {
      const auto backend = runtime::exec_backend_from_name(value);
      if (!backend.has_value()) usage();
      spec->backend = *backend;
    } else if (flag == "--size") {
      spec->dataset = kernels::dataset_from_name(value);
    } else if (flag == "--evals") {
      spec->evaluations = std::stoul(value);
    } else if (flag == "--seed") {
      spec->seed = std::stoull(value);
    } else if (flag == "--jit-cache") {
      spec->jit_options.cache_dir = value;
    } else if (flag == "--threads") {
      spec->threads = std::stoll(value);
      if (spec->threads < 0) usage();
    } else if (flag == "--runner") {
      if (value != "local" && value != "proc") usage();
      spec->runner = value;
    } else if (flag == "--workers") {
      spec->workers = std::stoul(value);
      if (spec->workers == 0) usage();
    } else {
      usage();
    }
  }
  if (spec->runner == "proc" && spec->device != "cpu") {
    std::fprintf(stderr,
                 "error: --runner proc requires --device cpu\n");
    std::exit(2);
  }
}

inline int run_figure_experiment(const FigureSpec& spec) {
  const bool cpu = spec.device == "cpu";
  kernels::ScheduleKnobs schedule_knobs;
  schedule_knobs.enabled = cpu && spec.threads != 1;
  schedule_knobs.max_threads = spec.threads;
  schedule_knobs.vectorize = cpu && spec.vectorize;
  schedule_knobs.unroll = cpu && spec.unroll;
  schedule_knobs.pack = cpu && spec.pack;
  const autotvm::Task task =
      cpu ? kernels::make_task(spec.kernel, spec.dataset, spec.backend,
                               spec.jit_options, schedule_knobs)
          : kernels::make_task(spec.kernel, spec.dataset);
  const std::string name =
      spec.kernel + "-" + kernels::dataset_name(spec.dataset);

  // Opt-in per-trial provenance: TVMBO_TRACE_DIR=<dir> appends a
  // JSON-lines event log per figure without touching the CSV outputs.
  // Declared before the devices so a ProcDevice's worker pool can still
  // emit its shutdown lifecycle events through it.
  std::unique_ptr<runtime::TraceLog> trace;
  if (const char* trace_dir = std::getenv("TVMBO_TRACE_DIR")) {
    std::filesystem::create_directories(trace_dir);
    trace = std::make_unique<runtime::TraceLog>(
        std::string(trace_dir) + "/" + name + "_trace.jsonl");
  }

  runtime::SwingSimDevice sim_device(spec.seed);
  runtime::CpuDevice cpu_device;
  std::unique_ptr<distd::ProcDevice> proc_device;
  if (cpu && spec.runner == "proc") {
    distd::ProcDeviceOptions proc_options;
    proc_options.backend = spec.backend;
    proc_options.jit = spec.jit_options;
    proc_options.seed = spec.seed;
    proc_options.pool.num_workers = spec.workers;
    proc_options.pool.trace = trace.get();
    proc_device = std::make_unique<distd::ProcDevice>(std::move(proc_options));
  }
  runtime::Device& device =
      proc_device != nullptr
          ? static_cast<runtime::Device&>(*proc_device)
          : cpu ? static_cast<runtime::Device&>(cpu_device) : sim_device;

  framework::SessionOptions options;
  options.max_evaluations = spec.evaluations;
  options.xgb_paper_eval_cap = 56;  // reproduce the paper's XGB artifact
  options.seed = spec.seed;
  // Figures require bit-identical reproduction: keep the measurement
  // engine at one inline slot (the simulated device gets one slot even in
  // parallel mode, but be explicit about the contract).
  options.measure.parallel = false;
  if (trace != nullptr) options.measure.trace = trace.get();

  framework::AutotuningSession session(&task, &device, options);
  const std::vector<framework::SessionResult> results = session.run_all();
  std::printf("=================================================="
              "==============\n");
  std::printf("%s & %s: %s, %s dataset (workload %s)\n",
              spec.process_figure.c_str(), spec.minimum_figure.c_str(),
              spec.kernel.c_str(), kernels::dataset_name(spec.dataset),
              task.workload.id().c_str());
  std::printf("space size: %llu configurations | %zu evaluations per "
              "strategy\n\n",
              static_cast<unsigned long long>(
                  task.config.space().cardinality()),
              spec.evaluations);

  // Minimum-runtime figure (bar chart data).
  std::printf("%s",
              framework::render_minimum_summary(
                  results, spec.minimum_figure + " minimum runtimes",
                  spec.paper_best_runtime_s)
                  .c_str());
  if (!spec.paper_best_config.empty()) {
    std::printf("paper best config: %s\n", spec.paper_best_config.c_str());
  }

  // Process-over-time figure: ASCII scatter on the console (the paper's
  // per-evaluation runtime-vs-process-time plot), full series to CSV.
  std::printf("\n%s process over time:\n%s",
              spec.process_figure.c_str(),
              framework::ascii_scatter(results).c_str());

  // Convergence analytics (beyond the paper's figures).
  std::printf("\nconvergence summary:\n%s",
              framework::render_table(framework::summary_table(results))
                  .c_str());

  // Process-over-time figure (scatter data): first rows on the console,
  // full series to CSV.
  const CsvTable process = framework::process_over_time_table(results);
  std::printf("\n%s process over time (first 3 evaluations per strategy; "
              "full series in bench_out/%s_process.csv):\n",
              spec.process_figure.c_str(), name.c_str());
  CsvTable head(process.header());
  std::size_t shown = 0;
  std::string last_strategy;
  for (std::size_t r = 0; r < process.num_rows(); ++r) {
    const auto& row = process.row(r);
    if (row[0] != last_strategy) {
      last_strategy = row[0];
      shown = 0;
    }
    if (shown++ < 3) head.add_row(row);
  }
  std::printf("%s\n", framework::render_table(head).c_str());

  std::filesystem::create_directories("bench_out");
  process.write_file("bench_out/" + name + "_process.csv");
  framework::minimum_runtimes_table(results).write_file(
      "bench_out/" + name + "_minimum.csv");
  framework::best_so_far_table(results).write_file(
      "bench_out/" + name + "_best_so_far.csv");
  std::printf("CSV series written to bench_out/%s_{process,minimum,"
              "best_so_far}.csv\n",
              name.c_str());

  if (cpu && spec.backend == runtime::ExecBackend::kJit) {
    codegen::ArtifactCache& cache =
        codegen::ArtifactCache::shared(spec.jit_options);
    const codegen::CacheStats stats = cache.stats();
    std::printf("jit cache: %zu hit(s), %zu miss(es), %zu failure(s), "
                "hit rate %.1f%%, %.2f s compiling, dir %s\n",
                stats.hits, stats.misses, stats.failures,
                100.0 * stats.hit_rate(), stats.compile_s,
                cache.dir().c_str());
  }
  return 0;
}

}  // namespace tvmbo::bench
