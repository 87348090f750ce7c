// Micro-benchmarks (google-benchmark) for the framework's moving parts:
// surrogate fit/predict (the per-iteration BO overhead), TE lowering and
// interpretation, configuration-space operations, the simulated device,
// and the tiled native kernels.
#include <benchmark/benchmark.h>

#include "codegen/jit_program.h"
#include "configspace/divisors.h"
#include "kernels/native.h"
#include "kernels/polybench.h"
#include "kernels/reference.h"
#include "kernels/te_kernels.h"
#include "kernels/te_programs.h"
#include "runtime/swing_sim.h"
#include "surrogate/gbt.h"
#include "surrogate/random_forest.h"
#include "te/compile.h"
#include "te/interp.h"
#include "ytopt/bayes_opt.h"

using namespace tvmbo;

namespace {

cs::ConfigurationSpace lu_space() {
  cs::ConfigurationSpace space;
  space.add(cs::tile_factor_param("P0", 2000));
  space.add(cs::tile_factor_param("P1", 2000));
  return space;
}

surrogate::Dataset make_dataset(std::size_t n) {
  Rng rng(1);
  surrogate::Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform(), x1 = rng.uniform();
    data.add({x0, x1, x0 * x1, x0 - x1},
             (x0 - 0.4) * (x0 - 0.4) + 0.2 * x1);
  }
  return data;
}

void BM_RandomForestFit(benchmark::State& state) {
  const auto data = make_dataset(static_cast<std::size_t>(state.range(0)));
  surrogate::ForestOptions options;
  options.num_trees = 100;
  for (auto _ : state) {
    Rng rng(7);
    surrogate::RandomForest forest(options);
    forest.fit(data, rng);
    benchmark::DoNotOptimize(forest);
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(20)->Arg(50)->Arg(100);

void BM_RandomForestPredict(benchmark::State& state) {
  const auto data = make_dataset(100);
  surrogate::RandomForest forest;
  Rng rng(7);
  forest.fit(data, rng);
  const std::vector<double> x{0.3, 0.6, 0.18, -0.3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_with_std(x));
  }
}
BENCHMARK(BM_RandomForestPredict);

void BM_GbtFit(benchmark::State& state) {
  const auto data = make_dataset(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    Rng rng(7);
    surrogate::GradientBoostedTrees gbt;
    gbt.fit(data, rng);
    benchmark::DoNotOptimize(gbt);
  }
}
BENCHMARK(BM_GbtFit)->Arg(50)->Arg(100);

void BM_BoAskTell(benchmark::State& state) {
  // Full per-iteration BO cost at a 60-observation history.
  const auto space = lu_space();
  for (auto _ : state) {
    state.PauseTiming();
    ytopt::BayesianOptimizer bo(&space, 3);
    Rng rng(4);
    for (int i = 0; i < 60; ++i) {
      const auto config = bo.ask();
      bo.tell(config, 1.0 + rng.uniform());
    }
    state.ResumeTiming();
    const auto config = bo.ask();
    bo.tell(config, 1.5);
  }
}
BENCHMARK(BM_BoAskTell);

void BM_ConfigSpaceSample(benchmark::State& state) {
  const auto space = lu_space();
  Rng rng(5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.sample(rng));
  }
}
BENCHMARK(BM_ConfigSpaceSample);

void BM_ConfigSpaceFlatIndex(benchmark::State& state) {
  const auto space = lu_space();
  std::uint64_t flat = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(space.from_flat_index(flat));
    flat = (flat + 1) % space.cardinality();
  }
}
BENCHMARK(BM_ConfigSpaceFlatIndex);

void BM_SwingSimSurface(benchmark::State& state) {
  runtime::SwingSimDevice device;
  const auto workload = kernels::make_workload(
      "lu", kernels::Dataset::kLarge);
  const std::int64_t tiles[2] = {400, 50};
  for (auto _ : state) {
    benchmark::DoNotOptimize(device.surface_runtime(workload, tiles));
  }
}
BENCHMARK(BM_SwingSimSurface);

void BM_TeLower3mm(benchmark::State& state) {
  const auto t = kernels::make_3mm(16, 18, 20, 22, 24);
  const std::int64_t tiles[6] = {4, 5, 4, 2, 4, 6};
  for (auto _ : state) {
    te::Schedule sched = kernels::schedule_3mm(t, tiles);
    benchmark::DoNotOptimize(te::lower(sched));
  }
}
BENCHMARK(BM_TeLower3mm);

void BM_TeInterpMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto t = kernels::make_gemm(n, n, n);
  te::Schedule sched = kernels::schedule_gemm(t, 4, 4);
  const te::Stmt program = te::lower(sched);
  runtime::NDArray a({n, n}), b({n, n}), c({n, n});
  kernels::init_gemm(a, b);
  for (auto _ : state) {
    te::Interpreter interp;
    interp.bind(t.A, &a);
    interp.bind(t.B, &b);
    interp.bind(t.C, &c);
    interp.run(program);
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TeInterpMatmul)->Arg(16)->Arg(32);

// Args: n, then the two tiles. {4,4} is the interpreter bench's schedule;
// {2,1} makes the closure tier's strided nest enter its innermost level
// (extent 2) n^3 / 2 times per run, so it times nest entries as much as
// the MACs.
void BM_TeCompiledMatmul(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const auto t = kernels::make_gemm(n, n, n);
  te::Schedule sched =
      kernels::schedule_gemm(t, state.range(1), state.range(2));
  const te::Stmt program = te::lower(sched);
  runtime::NDArray a({n, n}), b({n, n}), c({n, n});
  kernels::init_gemm(a, b);
  const te::CompiledProgram compiled = te::CompiledProgram::compile(
      program, {{t.A, &a}, {t.B, &b}, {t.C, &c}});
  for (auto _ : state) {
    compiled.run();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TeCompiledMatmul)
    ->Args({16, 4, 4})
    ->Args({32, 4, 4})
    ->Args({32, 2, 1});

// LU through the serve path's closure tier. Args: n, then the two tiles.
// The trailing update runs as one strided nest per pivot k, its
// `i > k && j > k` guard solved into each level's iteration range rather
// than tested per iteration. Tiles {1,2} make the innermost level (the
// j tile, extent 2) be entered ~n^3 / 4 times per run, so that case times
// nest entries as much as the MACs.
void BM_TeCompiledLu(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  const std::vector<std::int64_t> tiles = {state.range(1), state.range(2)};
  kernels::TeProgramInstance instance(kernels::make_te_kernel_data("lu", {n}),
                                      tiles);
  const te::CompiledProgram compiled =
      te::CompiledProgram::compile(instance.stmt(), instance.bindings());
  for (auto _ : state) {
    instance.reset();  // element-wise refill, O(n^2) next to the O(n^3) run
    compiled.run();
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TeCompiledLu)
    ->Args({40, 8, 8})
    ->Args({64, 8, 8})
    ->Args({40, 1, 2});

void BM_TeJitMatmul(benchmark::State& state) {
  if (!codegen::JitProgram::toolchain_available()) {
    state.SkipWithError("no C compiler available for the jit backend");
    return;
  }
  const std::int64_t n = state.range(0);
  const auto t = kernels::make_gemm(n, n, n);
  te::Schedule sched = kernels::schedule_gemm(t, 4, 4);
  const te::Stmt program = te::lower(sched);
  runtime::NDArray a({n, n}), b({n, n}), c({n, n});
  kernels::init_gemm(a, b);
  const codegen::JitProgram jit = codegen::JitProgram::compile(
      program, {{t.A, &a}, {t.B, &b}, {t.C, &c}});
  for (auto _ : state) {
    jit.run();
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_TeJitMatmul)->Arg(16)->Arg(32);

void BM_NativeMatmulTiled(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  runtime::NDArray a({n, n}), b({n, n}), c({n, n});
  kernels::init_gemm(a, b);
  for (auto _ : state) {
    kernels::matmul_tiled(a, b, c, 32, 32);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_NativeMatmulTiled)->Arg(64)->Arg(128);

void BM_NativeLuTiled(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  runtime::NDArray original({n, n});
  kernels::init_lu(original);
  for (auto _ : state) {
    runtime::NDArray work = original;
    kernels::lu_tiled(work, 16, 32);
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_NativeLuTiled)->Arg(64)->Arg(128);

void BM_NativeCholeskyTiled(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  runtime::NDArray original({n, n});
  kernels::init_spd(original);
  for (auto _ : state) {
    runtime::NDArray work = original;
    kernels::cholesky_tiled(work, 16, 32);
    benchmark::DoNotOptimize(work.data());
  }
}
BENCHMARK(BM_NativeCholeskyTiled)->Arg(64)->Arg(128);

// --- array packing: strided vs packed column traversal -----------------------

// What Stage::cache_write buys: walking a column of a row-major matrix
// strides n doubles per step; the packed scratch makes the identical
// traversal stride-1. The pack copy itself is amortized across the tile
// loops that reuse the window, so the benchmarks compare steady-state
// traversal only. CI runs the pair as an advisory smoke: the stride-1
// walk should be >= 1.3x the strided one on items/s (logged, not gating —
// cache geometry varies across runners).
void BM_ColumnTraversalStrided(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  runtime::NDArray a({n, n});
  kernels::init_lu(a);
  const double* av = a.f64().data();
  double sink = 0.0;
  for (auto _ : state) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < n; ++i) acc += av[i * n + j];
      sink += acc;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ColumnTraversalStrided)->Arg(512)->Arg(1024);

void BM_ColumnTraversalPacked(benchmark::State& state) {
  const std::int64_t n = state.range(0);
  runtime::NDArray a({n, n});
  kernels::init_lu(a);
  // The packed layout: column j contiguous (what pack_reads's permuted
  // scratch holds). Packed once outside the timing loop — steady state.
  runtime::NDArray packed({n, n});
  {
    const double* av = a.f64().data();
    double* pv = packed.f64().data();
    for (std::int64_t j = 0; j < n; ++j) {
      for (std::int64_t i = 0; i < n; ++i) pv[j * n + i] = av[i * n + j];
    }
  }
  const double* pv = packed.f64().data();
  double sink = 0.0;
  for (auto _ : state) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t i = 0; i < n; ++i) acc += pv[j * n + i];
      sink += acc;
    }
    benchmark::DoNotOptimize(sink);
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_ColumnTraversalPacked)->Arg(512)->Arg(1024);

}  // namespace

BENCHMARK_MAIN();
