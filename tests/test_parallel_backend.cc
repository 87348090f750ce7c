// The parallel schedule primitive, end to end: lowering-time legality
// (the analysis/ race prover gates concurrent loop kinds — reductions
// stay serial, overlapping compute_at recomputation is rejected), the
// closure tier's thread-pool dispatch, the JIT tier's OpenMP emission,
// and run-to-run determinism — all against the serial interpreter as the
// bit-exactness oracle. Parallel chunks write disjoint output elements,
// so every thread count must reproduce the serial float64 bits exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>
#include <vector>

#include "codegen/c_emitter.h"
#include "codegen/jit_program.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "common/timer.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "kernels/te_kernels.h"
#include "kernels/te_programs.h"
#include "runtime/cpu_device.h"
#include "runtime/exec_backend.h"
#include "te/loop_transform.h"
#include "te/lower.h"
#include "te/transform.h"

namespace tvmbo {
namespace {

using runtime::ExecBackend;

codegen::JitOptions parallel_test_options(const std::string& subdir) {
  codegen::JitOptions options;
  options.cache_dir = testing::TempDir() + "tvmbo-parallel-" + subdir;
  return options;
}

void expect_bits_equal(const runtime::NDArray& a, const runtime::NDArray& b,
                       const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  std::span<const double> av = a.f64(), bv = b.f64();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(av[i], bv[i]) << label << ": flat index " << i;
  }
}

std::int64_t nproc() {
  return std::max<std::int64_t>(
      1, static_cast<std::int64_t>(std::thread::hardware_concurrency()));
}

// --- lowering-time legality --------------------------------------------------

TEST(ParallelLowering, ReductionAxisIsRejected) {
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  te::Schedule sched({t.C});
  te::Stage& stage = sched[t.C];
  stage.parallel(stage.op_reduce_axis()[0]);
  EXPECT_THROW(te::lower(sched), CheckError);
}

TEST(ParallelLowering, SplitChildOfReductionAxisIsRejected) {
  // Split children inherit the parent's IterKind, so annotating the outer
  // half of a split reduction axis must be rejected too.
  kernels::GemmTensors t = kernels::make_gemm(8, 8, 8);
  te::Schedule sched({t.C});
  te::Stage& stage = sched[t.C];
  auto [ko, ki] = stage.split(stage.op_reduce_axis()[0], 2);
  (void)ki;
  stage.parallel(ko);
  EXPECT_THROW(te::lower(sched), CheckError);
}

TEST(ParallelLowering, VectorizedReductionAxisIsRejected) {
  // kVectorized is a concurrent kind too (the JIT tier emits omp simd):
  // vectorizing a reduction axis makes every lane RMW the same
  // accumulator element, and the race prover must reject it just like
  // kParallel — previously this was silently accepted.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  te::Schedule sched({t.C});
  te::Stage& stage = sched[t.C];
  stage.vectorize(stage.op_reduce_axis()[0]);
  try {
    te::lower(sched);
    FAIL() << "expected the race prover to reject the schedule";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel-loop-race"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelLowering, ComputeAtInsideParallelLoopProvenWhenRowDisjoint) {
  // A producer attached at a parallel loop is recomputed per iteration
  // into one shared root-realized buffer. When each iteration writes and
  // reads only its own row of that buffer, the recomputation is disjoint
  // across threads and the race prover admits it — the old hand-written
  // assert rejected this combination conservatively.
  te::Tensor a = te::placeholder({8, 6}, "A");
  te::Tensor b =
      te::compute({8, 6}, "B", [&](const std::vector<te::Var>& i) {
        return te::access(a, {i[0], i[1]}) * te::make_float(2.0);
      });
  te::Tensor c =
      te::compute({8, 6}, "C", [&](const std::vector<te::Var>& i) {
        return te::access(b, {i[0], i[1]}) + te::make_float(1.0);
      });
  te::Schedule sched({c});
  te::Stage& consumer = sched[c];
  sched[b].compute_at(consumer, consumer.op_axis()[0]);
  consumer.parallel(consumer.op_axis()[0]);
  const te::Stmt program = te::lower(sched);
  EXPECT_TRUE(te::has_parallel_loop(program));
}

TEST(ParallelLowering, ComputeAtInsideParallelLoopRejectedWhenRowsOverlap) {
  // The transposed read makes every consumer row need the whole producer
  // buffer: each parallel iteration recomputes all of B, so writes from
  // different threads overlap — a genuine loop-carried race the prover
  // must reject with its rule id.
  te::Tensor a = te::placeholder({8, 8}, "A");
  te::Tensor b =
      te::compute({8, 8}, "B", [&](const std::vector<te::Var>& i) {
        return te::access(a, {i[0], i[1]}) * te::make_float(2.0);
      });
  te::Tensor c =
      te::compute({8, 8}, "C", [&](const std::vector<te::Var>& i) {
        return te::access(b, {i[0], i[1]}) + te::access(b, {i[1], i[0]});
      });
  te::Schedule sched({c});
  te::Stage& consumer = sched[c];
  sched[b].compute_at(consumer, consumer.op_axis()[0]);
  consumer.parallel(consumer.op_axis()[0]);
  try {
    te::lower(sched);
    FAIL() << "expected the race prover to reject the schedule";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel-loop-race"),
              std::string::npos)
        << e.what();
  }
}

TEST(ParallelLowering, AttachmentOutsideParallelLoopIsAllowed) {
  // Attached strictly outside the parallel loop, each outer iteration
  // recomputes the producer serially before the parallel region starts —
  // no race, and the semantics still match the interpreter.
  te::Tensor a = te::placeholder({8, 6}, "A");
  te::Tensor b =
      te::compute({8, 6}, "B", [&](const std::vector<te::Var>& i) {
        return te::access(a, {i[0], i[1]}) * te::make_float(2.0);
      });
  te::Tensor c =
      te::compute({8, 6}, "C", [&](const std::vector<te::Var>& i) {
        return te::access(b, {i[0], i[1]}) + te::make_float(1.0);
      });
  te::Schedule sched({c});
  te::Stage& consumer = sched[c];
  sched[b].compute_at(consumer, consumer.op_axis()[0]);
  consumer.parallel(consumer.op_axis()[1]);
  const te::Stmt program = te::lower(sched);
  EXPECT_TRUE(te::has_parallel_loop(program));
}

TEST(ParallelLowering, AnnotationSurvivesLoweringAndPasses) {
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt serial =
      te::lower(kernels::schedule_gemm(t, 3, 4, /*par_axis=*/0));
  EXPECT_FALSE(te::has_parallel_loop(serial));

  kernels::GemmTensors t2 = kernels::make_gemm(6, 7, 5);
  te::Stmt parallel =
      te::lower(kernels::schedule_gemm(t2, 3, 4, /*par_axis=*/1));
  EXPECT_TRUE(te::has_parallel_loop(parallel));
  // The annotation must survive the standard pass pipeline the backends
  // actually run.
  parallel = te::unroll_loops(te::simplify(parallel));
  EXPECT_TRUE(te::has_parallel_loop(parallel));
}

TEST(ParallelLowering, AnnotateLoopRewritesLoopIrInPlace) {
  // lu/cholesky programs are built directly as loop IR (they never pass
  // through Schedule), so they annotate via te::annotate_loop.
  te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  te::Stmt stmt = te::make_for(i, 4, te::ForKind::kSerial,
                               te::make_store(out, {i}, te::make_float(1.0)));
  EXPECT_FALSE(te::has_parallel_loop(stmt));
  stmt = te::annotate_loop(stmt, i, te::ForKind::kParallel);
  EXPECT_TRUE(te::has_parallel_loop(stmt));

  const te::Var ghost = te::make_var("ghost");
  EXPECT_THROW(te::annotate_loop(stmt, ghost, te::ForKind::kParallel),
               CheckError);
}

// --- closure tier ------------------------------------------------------------

TEST(ParallelClosure, BitIdenticalToInterpreterAcrossThreadCounts) {
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("gemm", kernels::Dataset::kMini);
  const auto data = kernels::make_te_kernel_data("gemm", dims);
  const std::vector<std::int64_t> tiles = {4, 5};

  const runtime::NDArray oracle =
      kernels::run_te_backend(data, tiles, ExecBackend::kInterp);
  for (std::int64_t threads : {std::int64_t{2}, nproc(), std::int64_t{0}}) {
    const std::vector<std::int64_t> extended = {4, 5, 1, threads};
    const runtime::NDArray closure =
        kernels::run_te_backend(data, extended, ExecBackend::kClosure);
    expect_bits_equal(oracle, closure,
                      "closure threads=" + std::to_string(threads));
  }
}

TEST(ParallelClosure, ThreeRunsAreByteIdentical) {
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("3mm", kernels::Dataset::kMini);
  const auto data = kernels::make_te_kernel_data("3mm", dims);
  // All cores (threads = 0), outermost axis parallel.
  const std::vector<std::int64_t> extended = {2, 2, 2, 2, 2, 2, 1, 0};

  const runtime::NDArray first =
      kernels::run_te_backend(data, extended, ExecBackend::kClosure);
  for (int run = 1; run < 3; ++run) {
    const runtime::NDArray again =
        kernels::run_te_backend(data, extended, ExecBackend::kClosure);
    expect_bits_equal(first, again, "run " + std::to_string(run));
  }
}

TEST(ParallelClosure, RunsInlineInsideAPoolWorker) {
  // The measurement engine's --parallel mode executes trials on the same
  // pool the closure tier dispatches on; nested dispatch falls back to a
  // single inline chunk instead of deadlocking, with identical results.
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("gemm", kernels::Dataset::kMini);
  const auto data = kernels::make_te_kernel_data("gemm", dims);
  const std::vector<std::int64_t> tiles = {4, 5};
  const runtime::NDArray oracle =
      kernels::run_te_backend(data, tiles, ExecBackend::kInterp);

  auto future = default_thread_pool().submit([&data] {
    const std::vector<std::int64_t> extended = {4, 5, 1, 0};
    return kernels::run_te_backend(data, extended, ExecBackend::kClosure);
  });
  const runtime::NDArray nested = future.get();
  expect_bits_equal(oracle, nested, "nested closure");
}

// --- jit tier ----------------------------------------------------------------

TEST(ParallelJit, EmitsOpenMpPragmaOnlyWhenRequested) {
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt stmt =
      te::lower(kernels::schedule_gemm(t, 3, 4, /*par_axis=*/1));
  const std::vector<te::Tensor> params = {t.A, t.B, t.C};

  // Default options: serial emission, byte-for-byte free of pragmas (this
  // keeps pre-parallel artifact-cache keys stable).
  const std::string serial = codegen::emit_c_source(stmt, params);
  EXPECT_EQ(serial.find("#pragma omp"), std::string::npos);

  codegen::EmitOptions capped;
  capped.parallel = true;
  capped.num_threads = 4;
  const std::string with_cap =
      codegen::emit_c_source(stmt, params, "tvmbo_kernel", capped);
  EXPECT_NE(with_cap.find("#pragma omp parallel for schedule(static)"),
            std::string::npos);
  EXPECT_NE(with_cap.find("num_threads(4)"), std::string::npos);

  codegen::EmitOptions uncapped;
  uncapped.parallel = true;
  const std::string all_cores =
      codegen::emit_c_source(stmt, params, "tvmbo_kernel", uncapped);
  EXPECT_NE(all_cores.find("#pragma omp parallel for schedule(static)"),
            std::string::npos);
  EXPECT_EQ(all_cores.find("num_threads("), std::string::npos);
}

TEST(ParallelJit, PragmaOnlyLandsOnParallelLoops) {
  // A serial schedule emitted with parallel options must stay pragma-free
  // — the option gates emission, the annotation selects the loop.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt stmt =
      te::lower(kernels::schedule_gemm(t, 3, 4, /*par_axis=*/0));
  codegen::EmitOptions options;
  options.parallel = true;
  const std::string source =
      codegen::emit_c_source(stmt, {t.A, t.B, t.C}, "tvmbo_kernel", options);
  EXPECT_EQ(source.find("#pragma omp"), std::string::npos);
}

TEST(ParallelJit, BitIdenticalToInterpreterAcrossThreadCounts) {
  const codegen::JitOptions base = parallel_test_options("bits");
  if (!codegen::JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("gemm", kernels::Dataset::kMini);
  const auto data = kernels::make_te_kernel_data("gemm", dims);
  const std::vector<std::int64_t> tiles = {4, 5};

  const runtime::NDArray oracle =
      kernels::run_te_backend(data, tiles, ExecBackend::kInterp);
  for (std::int64_t threads : {std::int64_t{2}, std::int64_t{0}}) {
    const std::vector<std::int64_t> extended = {4, 5, 1, threads};
    const runtime::NDArray jitted =
        kernels::run_te_backend(data, extended, ExecBackend::kJit, base);
    expect_bits_equal(oracle, jitted,
                      "jit threads=" + std::to_string(threads));
  }
}

TEST(ParallelJit, ThreeRunsAreByteIdentical) {
  const codegen::JitOptions base = parallel_test_options("determinism");
  if (!codegen::JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("3mm", kernels::Dataset::kMini);
  const auto data = kernels::make_te_kernel_data("3mm", dims);
  const std::vector<std::int64_t> extended = {2, 2, 2, 2, 2, 2, 1, 0};

  const runtime::NDArray first =
      kernels::run_te_backend(data, extended, ExecBackend::kJit, base);
  for (int run = 1; run < 3; ++run) {
    const runtime::NDArray again =
        kernels::run_te_backend(data, extended, ExecBackend::kJit, base);
    expect_bits_equal(first, again, "run " + std::to_string(run));
  }
}

TEST(ParallelJit, ParallelBeatsSerialOn3mmLarge) {
  // The PR's acceptance bar: on a >= 4-core machine with OpenMP, the
  // parallel jit must run the paper's 3mm large instance at least 2x
  // faster than the serial jit on the same tile configuration — without
  // changing a single output bit (serial jit is itself differentially
  // verified against the interpreter at mini size).
  const codegen::JitOptions options = parallel_test_options("speedup");
  if (nproc() < 4) {
    GTEST_SKIP() << "needs >= 4 cores, have " << nproc();
  }
  if (!codegen::JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  if (!codegen::JitProgram::openmp_available(options)) {
    GTEST_SKIP() << "toolchain has no OpenMP support";
  }

  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("3mm", kernels::Dataset::kLarge);
  const auto data = kernels::make_te_kernel_data("3mm", dims);
  const std::vector<std::int64_t> tiles = {40, 40, 40, 40, 40, 40};
  std::vector<std::int64_t> serial_cfg = tiles;
  serial_cfg.insert(serial_cfg.end(), {0, 1});
  std::vector<std::int64_t> parallel_cfg = tiles;
  parallel_cfg.insert(parallel_cfg.end(), {1, 0});  // yo across all cores

  const runtime::Workload workload =
      kernels::make_workload("3mm", kernels::Dataset::kLarge);
  runtime::MeasureInput serial = kernels::make_te_measure_input(
      data, workload, serial_cfg, ExecBackend::kJit, options);
  runtime::MeasureInput parallel = kernels::make_te_measure_input(
      data, workload, parallel_cfg, ExecBackend::kJit, options);
  serial.prepare();
  parallel.prepare();
  serial.run();    // warm up (page-in the fresh mappings)
  parallel.run();  // warm up (and spin up the OpenMP team)

  constexpr int kRuns = 2;
  Stopwatch serial_timer;
  for (int i = 0; i < kRuns; ++i) serial.run();
  const double serial_s = serial_timer.elapsed_seconds() / kRuns;
  Stopwatch parallel_timer;
  for (int i = 0; i < kRuns; ++i) parallel.run();
  const double parallel_s = parallel_timer.elapsed_seconds() / kRuns;

  EXPECT_GE(serial_s / parallel_s, 2.0)
      << "serial " << serial_s << " s vs parallel " << parallel_s << " s on "
      << nproc() << " cores";

  // Same bits, just faster.
  const runtime::NDArray serial_out =
      kernels::run_te_backend(data, serial_cfg, ExecBackend::kJit, options);
  const runtime::NDArray parallel_out =
      kernels::run_te_backend(data, parallel_cfg, ExecBackend::kJit, options);
  expect_bits_equal(serial_out, parallel_out, "3mm large");
}

// --- tuning-session determinism ----------------------------------------------

TEST(ParallelDeterminism, FixedSeedSessionsReplayIdentically) {
  // A thread-count knob must not perturb the search itself: two sessions
  // with the same seed over a space that includes parallel configurations
  // propose the same configuration sequence and complete every
  // evaluation, even though the measured kernels dispatch across threads.
  if (nproc() < 2) {
    GTEST_SKIP() << "single-core machine; parallel configs degenerate";
  }
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims("gemm", kernels::Dataset::kMini);
  const runtime::Workload workload =
      kernels::make_workload("gemm", kernels::Dataset::kMini);
  const auto data = kernels::make_te_kernel_data("gemm", dims);

  autotvm::Task task;
  task.name = "gemm_parallel_determinism";
  task.workload = workload;
  // As many distinct thread budgets as evaluations, so the session can
  // complete its budget without exhausting the space.
  task.config.define_knob("threads", {1, 2, 3, 4});
  task.instantiate = [data,
                      workload](const std::vector<std::int64_t>& knobs) {
    // Fixed tiles, parallel axis yo; only the thread budget is tuned.
    const std::vector<std::int64_t> extended = {4, 5, 1, knobs[0]};
    return kernels::make_te_measure_input(data, workload, extended,
                                          ExecBackend::kClosure);
  };

  runtime::CpuDevice device;
  framework::SessionOptions options;
  options.max_evaluations = 4;
  options.seed = 99;
  options.charge_strategy_overhead = false;

  auto tile_sequence = [&]() {
    framework::AutotuningSession session(&task, &device, options);
    const framework::SessionResult result =
        session.run(framework::StrategyKind::kAutotvmRandom);
    EXPECT_EQ(result.evaluations, options.max_evaluations);
    EXPECT_TRUE(result.best.has_value());
    std::vector<std::vector<std::int64_t>> sequence;
    for (const auto& record : result.db.records()) {
      EXPECT_TRUE(record.valid);
      sequence.push_back(record.tiles);
    }
    return sequence;
  };

  const auto first = tile_sequence();
  const auto second = tile_sequence();
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace tvmbo
