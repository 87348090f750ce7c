// tvmbo_tune: command-line autotuner.
//
//   tvmbo_tune --kernel lu --size large --strategy all --evals 100
//              --seed 2023 --device sim --objective runtime --out lu_run
//
// Options:
//   --kernel    lu | cholesky | 3mm | gemm | 2mm | syrk      (default lu)
//   --size      mini | small | medium | large | extralarge   (default large)
//   --strategy  ytopt | random | gridsearch | ga | xgb | all (default all)
//   --evals     evaluations per strategy                     (default 100)
//   --seed      RNG seed                                     (default 2023)
//   --device    sim | cpu    (cpu actually executes the kernel; keep the
//                             size small for that)           (default sim)
//   --objective runtime | energy | edp                       (default runtime)
//   --xgb-cap   reproduce the paper's 56-eval XGB artifact   (default 56)
//   --out       prefix for <out>_process.csv / <out>_db.jsonl (optional)
//   --parallel  measure batch members concurrently on the thread pool
//               (per-trial fault isolation; results stay in submission
//               order; stateful devices like sim are auto-serialized)
//   --async     streaming rounds instead of batch barriers: every slot
//               is refilled the moment a trial completes, results are
//               told back to the strategy in completion order, and the
//               process clock is real wall-clock. Pair with --parallel
//               (and --runner proc --workers N) for overlap; without
//               --parallel the async schedule is serial and fixed-seed
//               deterministic
//   --ytopt-batch N  qLCB proposal batch for ytopt (default 1 = paper's
//               sequential AMBS; pair N>1 with --parallel). Streaming
//               asks one configuration at a time, so --async with N > 1
//               is a usage error
//   --retries N re-run transiently failing trials up to N times
//   --trace F   append the per-trial JSON-lines event log to file F
//   --backend B execution tier for --device cpu: native (hand-written
//               tiled kernels, default) | interp | closure | jit. The jit
//               backend emits C, invokes the system compiler, and caches
//               shared objects content-addressed, so repeated
//               configurations — and whole repeated runs — skip
//               compilation; a jit_cache_stats summary is printed (and
//               traced with --trace) at the end
//   --jit-cache D  artifact-cache directory for --backend jit
//               (default $TVMBO_JIT_CACHE, else <tmp>/tvmbo-jit-cache)
//   --warm-start F seed ytopt with the records of a prior run's perf
//               database (the <out>_db.jsonl of that run); records for
//               other workloads or spaces are skipped (counts of seeded
//               vs skipped records are printed per strategy)
//   --transfer F rank configurations with a saved cross-kernel transfer
//               model (tvmbo_transfer train) and queue the predicted
//               top-k as ytopt's first — measured — proposals; works
//               for kernels the model never saw (the features are
//               kernel-agnostic)
//   --transfer-topk N  how many model-ranked seeds to queue (default 5)
//   --transfer-pool N  candidate pool the model ranks (default 256)
//   --threads N add parallel-schedule knobs (parallel_axis, threads) to
//               the tuned space for --device cpu with a TE-program backend
//               (interp/closure/jit). N caps the thread-count candidates;
//               0 means all cores; 1 (default) disables the knobs. The
//               closure tier dispatches on the built-in thread pool, the
//               jit tier emits OpenMP pragmas (compiled with -fopenmp when
//               the toolchain supports it, serial fallback otherwise);
//               float64 outputs stay bit-identical to the interpreter
//               either way
//   --vectorize add a vec_axis knob ({0 = none, 1 = innermost,
//               2 = second-innermost}) to the tuned space; the chosen
//               axis is annotated kVectorized, the race prover certifies
//               it at lowering time, and the jit tier emits `#pragma omp
//               simd` (compiled with -fopenmp-simd, or subsumed by
//               -fopenmp) on exactly the certified loops. Float64 output
//               bits are unchanged (-ffp-contract=off)
//   --unroll    add an unroll knob ({0, 2, 4, 8}) — a structural split
//               whose inner loop is marked kUnrolled, straight-lined by
//               every tier within te::kUnrollMaxExtent
//   --pack      add a pack knob ({0, 1}) — array packing of the strided
//               operand into a contiguous scratch via Stage::cache_write
//               / te::pack_reads (proof-carrying: reads are redirected
//               only when provably in-window)
//   --runner R  measurement runner for --device cpu: local (in-process,
//               default) | proc (trials execute in out-of-process workers
//               with crash isolation and hard kill-based timeouts; see
//               src/distd/). Worker-lifecycle events land in --trace.
//   --workers N worker-fleet size for --runner proc (default 2); pair
//               with --parallel to keep all workers busy
//   --timeout S per-run measurement timeout in seconds (0 = off). With
//               --runner local this is cooperative (checked between
//               runs); with --runner proc a hung run is SIGKILLed at the
//               derived hard deadline
//   --screen    statically pre-screen every candidate (src/analysis/)
//               before dispatching it: configs that fail verification or
//               the race prover come back invalid with an
//               "analysis reject:" error and an analysis_reject trace
//               event, without spending a measurement worker. A summary
//               line reports rejects per strategy.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <type_traits>

#include "analysis/proof_cache.h"
#include "codegen/artifact_cache.h"
#include "codegen/jit_program.h"
#include "common/string_util.h"
#include "distd/proc_device.h"
#include "framework/figures.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/exec_backend.h"
#include "runtime/swing_sim.h"
#include "runtime/trace_log.h"
#include "transfer/cost_model.h"
#include "transfer/model_store.h"

using namespace tvmbo;

namespace {

struct Args {
  std::string kernel = "lu";
  std::string size = "large";
  std::string strategy = "all";
  std::size_t evals = 100;
  std::uint64_t seed = 2023;
  std::string device = "sim";
  std::string objective = "runtime";
  std::size_t xgb_cap = 56;
  std::string out;
  bool parallel = false;
  bool async = false;
  std::size_t ytopt_batch = 1;
  int retries = 0;
  std::string trace;
  std::string backend = "native";
  std::string jit_cache;
  std::string warm_start;
  std::string transfer;
  std::size_t transfer_topk = 5;
  std::size_t transfer_pool = 256;
  std::int64_t threads = 1;
  bool vectorize = false;
  bool unroll = false;
  bool pack = false;
  std::string runner = "local";
  std::size_t workers = 2;
  double timeout_s = 0.0;
  bool screen = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--kernel K] [--size S] [--strategy T] "
               "[--evals N] [--seed N] [--device sim|cpu] "
               "[--objective runtime|energy|edp] [--xgb-cap N] "
               "[--out PREFIX] [--parallel] [--async] [--ytopt-batch N] "
               "[--retries N] [--trace FILE] "
               "[--backend native|interp|closure|jit] [--jit-cache DIR] "
               "[--warm-start DB.jsonl] [--transfer MODEL.json] "
               "[--transfer-topk N] [--transfer-pool N] [--threads N] "
               "[--vectorize] [--unroll] [--pack] "
               "[--runner local|proc] [--workers N] [--timeout S] "
               "[--screen]\n",
               argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // A numeric flag's whole value must parse, or it is a usage error.
    auto number = [&](auto& out) {
      const std::string text = value();
      const auto parsed = parse_number<std::decay_t<decltype(out)>>(text);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n",
                     text.c_str(), flag.c_str());
        usage(argv[0]);
      }
      out = *parsed;
    };
    if (flag == "--kernel") args.kernel = value();
    else if (flag == "--size") args.size = value();
    else if (flag == "--strategy") args.strategy = value();
    else if (flag == "--evals") number(args.evals);
    else if (flag == "--seed") number(args.seed);
    else if (flag == "--device") args.device = value();
    else if (flag == "--objective") args.objective = value();
    else if (flag == "--xgb-cap") number(args.xgb_cap);
    else if (flag == "--out") args.out = value();
    else if (flag == "--parallel") args.parallel = true;
    else if (flag == "--async") args.async = true;
    else if (flag == "--ytopt-batch") number(args.ytopt_batch);
    else if (flag == "--retries") number(args.retries);
    else if (flag == "--trace") args.trace = value();
    else if (flag == "--backend") args.backend = value();
    else if (flag == "--jit-cache") args.jit_cache = value();
    else if (flag == "--warm-start") args.warm_start = value();
    else if (flag == "--transfer") args.transfer = value();
    else if (flag == "--transfer-topk") number(args.transfer_topk);
    else if (flag == "--transfer-pool") number(args.transfer_pool);
    else if (flag == "--threads") number(args.threads);
    else if (flag == "--vectorize") args.vectorize = true;
    else if (flag == "--unroll") args.unroll = true;
    else if (flag == "--pack") args.pack = true;
    else if (flag == "--runner") args.runner = value();
    else if (flag == "--workers") number(args.workers);
    else if (flag == "--timeout") number(args.timeout_s);
    else if (flag == "--screen") args.screen = true;
    else usage(argv[0]);
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  if (args.async && args.ytopt_batch > 1) {
    std::fprintf(stderr,
                 "error: --async streams one proposal per free slot; it "
                 "cannot be combined with --ytopt-batch > 1\n");
    usage(argv[0]);
  }

  const kernels::Dataset dataset = kernels::dataset_from_name(args.size);
  const auto backend = runtime::exec_backend_from_name(args.backend);
  if (!backend.has_value()) usage(argv[0]);
  codegen::JitOptions jit_options;
  jit_options.cache_dir = args.jit_cache;
  if (args.threads < 0) usage(argv[0]);
  kernels::ScheduleKnobs schedule_knobs;
  schedule_knobs.enabled = args.threads != 1;
  schedule_knobs.max_threads = args.threads;
  schedule_knobs.vectorize = args.vectorize;
  schedule_knobs.unroll = args.unroll;
  schedule_knobs.pack = args.pack;
  if (schedule_knobs.extended() && args.device != "cpu") {
    std::fprintf(stderr,
                 "note: --threads/--vectorize/--unroll/--pack only affect "
                 "--device cpu with a TE-program backend; ignoring\n");
    schedule_knobs = kernels::ScheduleKnobs{};
  }

  // Simulated devices never execute the kernel; only a cpu device needs a
  // backend-configured executable task.
  const autotvm::Task task =
      args.device == "cpu"
          ? kernels::make_task(args.kernel, dataset, *backend, jit_options,
                               schedule_knobs)
          : kernels::make_task(args.kernel, dataset, /*executable=*/false);

  // The trace log outlives the device: a ProcDevice's worker pool emits
  // lifecycle events (worker_exit on shutdown) through it from its
  // destructor.
  std::unique_ptr<runtime::TraceLog> trace;
  if (!args.trace.empty()) {
    trace = std::make_unique<runtime::TraceLog>(args.trace);
  }

  if (args.runner != "local" && args.runner != "proc") usage(argv[0]);
  if (args.runner == "proc" && args.device != "cpu") {
    std::fprintf(stderr,
                 "error: --runner proc requires --device cpu (the sim "
                 "device is a model, not a process)\n");
    return 2;
  }

  runtime::SwingSimDevice sim(args.seed);
  runtime::CpuDevice cpu;
  std::unique_ptr<distd::ProcDevice> proc;
  runtime::Device* device = nullptr;
  if (args.device == "sim") {
    device = &sim;
  } else if (args.device == "cpu") {
    if (args.runner == "proc") {
      distd::ProcDeviceOptions proc_options;
      proc_options.backend = *backend;
      proc_options.jit = jit_options;
      proc_options.seed = args.seed;
      proc_options.pool.num_workers = args.workers == 0 ? 1 : args.workers;
      proc_options.pool.trace = trace.get();
      proc = std::make_unique<distd::ProcDevice>(std::move(proc_options));
      device = proc.get();
    } else {
      device = &cpu;
    }
  } else {
    usage(argv[0]);
  }

  framework::SessionOptions options;
  options.max_evaluations = args.evals;
  options.seed = args.seed;
  options.xgb_paper_eval_cap = args.xgb_cap;
  if (args.objective == "runtime") {
    options.objective = framework::Objective::kRuntime;
  } else if (args.objective == "energy") {
    options.objective = framework::Objective::kEnergy;
  } else if (args.objective == "edp") {
    options.objective = framework::Objective::kEnergyDelay;
  } else {
    usage(argv[0]);
  }
  options.measure.parallel = args.parallel;
  options.async = args.async;
  options.measure.prescreen = args.screen;
  options.measure.retry.max_retries = args.retries;
  options.ytopt_batch_size = args.ytopt_batch;
  options.measure_timeout_s = args.timeout_s;
  if (trace != nullptr) options.measure.trace = trace.get();
  runtime::PerfDatabase warm_db;
  if (!args.warm_start.empty()) {
    warm_db = runtime::PerfDatabase::load(args.warm_start);
    options.warm_start = &warm_db;
    std::printf("warm start: %zu prior record(s) from %s\n", warm_db.size(),
                args.warm_start.c_str());
  }
  std::unique_ptr<transfer::CostModel> transfer_model;
  if (!args.transfer.empty()) {
    transfer_model = std::make_unique<transfer::CostModel>(
        transfer::load_model(args.transfer));
    if (!transfer_model->fitted()) {
      std::fprintf(stderr,
                   "error: transfer model %s has too few samples to rank\n",
                   args.transfer.c_str());
      return 2;
    }
    options.transfer_model = transfer_model.get();
    options.transfer_topk = args.transfer_topk;
    options.transfer_pool = args.transfer_pool;
    std::printf("transfer: model from %s (%zu sample(s))\n",
                args.transfer.c_str(), transfer_model->size());
  }
  options.record_backend = args.device == "sim" ? "sim" : args.backend;
  options.record_nthreads = args.threads;
  framework::AutotuningSession session(&task, device, options);

  std::vector<framework::SessionResult> results;
  if (args.strategy == "all") {
    results = session.run_all();
  } else {
    const std::optional<framework::StrategyKind> kind =
        framework::strategy_from_name(args.strategy);
    if (!kind.has_value()) usage(argv[0]);
    results.push_back(session.run(*kind));
  }

  const std::string title = args.kernel + " / " + args.size + " (" +
                            args.device + ", objective " + args.objective +
                            ")";
  std::printf("%s", framework::render_minimum_summary(results, title, 0.0)
                        .c_str());

  if (args.screen) {
    for (const framework::SessionResult& result : results) {
      std::printf("%s: analysis rejects: %zu of %zu evaluation(s)\n",
                  result.strategy.c_str(), result.analysis_rejects,
                  result.evaluations);
    }
    std::printf("%s\n",
                analysis::ProofCache::global().stats().summary().c_str());
  }

  if (!args.warm_start.empty()) {
    for (const framework::SessionResult& result : results) {
      const framework::WarmStartStats& ws = result.warm_start;
      std::printf(
          "%s: warm start seeded %zu record(s), skipped %zu "
          "(%zu other workload, %zu out of space)\n",
          result.strategy.c_str(), ws.seeded,
          ws.skipped_workload + ws.skipped_space, ws.skipped_workload,
          ws.skipped_space);
    }
  }
  if (!args.transfer.empty()) {
    for (const framework::SessionResult& result : results) {
      std::printf("%s: transfer queued %zu model-ranked seed(s)\n",
                  result.strategy.c_str(), result.transfer_seeds);
    }
  }

  if (args.device == "cpu" && *backend == runtime::ExecBackend::kJit) {
    codegen::ArtifactCache& cache = codegen::ArtifactCache::shared(jit_options);
    const codegen::CacheStats stats = cache.stats();
    std::printf(
        "jit cache: %zu hit(s), %zu miss(es), %zu failure(s), "
        "hit rate %.1f%%, %.2f s compiling, dir %s\n",
        stats.hits, stats.misses, stats.failures, 100.0 * stats.hit_rate(),
        stats.compile_s, cache.dir().c_str());
    if (trace != nullptr) {
      Json event = Json::object();
      event.set("event", "jit_cache_stats");
      event.set("hits", stats.hits);
      event.set("misses", stats.misses);
      event.set("failures", stats.failures);
      event.set("hit_rate", stats.hit_rate());
      event.set("compile_s", stats.compile_s);
      event.set("dir", cache.dir());
      // The compile flags (and, when schedule knobs are on, the probe
      // results and knob settings) are part of the cache key, so record
      // them with the stats.
      event.set("flags", jit_options.flags);
      if (schedule_knobs.enabled) {
        event.set("threads", args.threads);
        event.set("openmp", codegen::JitProgram::openmp_available(jit_options));
      }
      if (schedule_knobs.vectorize) {
        event.set("vectorize", true);
        event.set("simd", codegen::JitProgram::simd_available(jit_options));
      }
      if (schedule_knobs.unroll) event.set("unroll", true);
      if (schedule_knobs.pack) event.set("pack", true);
      trace->record(std::move(event));
    }
  }

  if (!args.out.empty()) {
    framework::process_over_time_table(results).write_file(
        args.out + "_process.csv");
    framework::minimum_runtimes_table(results).write_file(
        args.out + "_minimum.csv");
    runtime::PerfDatabase merged;
    for (const auto& result : results) {
      for (const auto& record : result.db.records()) merged.add(record);
    }
    merged.save(args.out + "_db.jsonl");
    std::printf("wrote %s_process.csv, %s_minimum.csv, %s_db.jsonl\n",
                args.out.c_str(), args.out.c_str(), args.out.c_str());
  }
  return 0;
}
