#include <gtest/gtest.h>

#include <bit>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/logging.h"
#include "common/thread_pool.h"
#include "kernels/polybench.h"
#include "runtime/cpu_device.h"
#include "runtime/swing_sim.h"

namespace tvmbo::runtime {
namespace {

Workload lu_workload(std::int64_t n, const char* size = "large") {
  Workload w;
  w.kernel = "lu";
  w.size_name = size;
  w.dims = {n};
  w.flops = 2.0 / 3.0 * static_cast<double>(n) * n * n;
  return w;
}

TEST(Workload, IdFormatting) {
  const Workload w = kernels::make_workload("3mm", kernels::Dataset::kLarge);
  EXPECT_EQ(w.id(), "3mm/large[800x900x1000x1100x1200]");
}

TEST(CpuDevice, MeasuresRunAndCompile) {
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  input.tiles = {2, 2};
  int prepares = 0, runs = 0;
  input.prepare = [&] { ++prepares; };
  input.run = [&] {
    ++runs;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  };
  MeasureOption option;
  option.repeat = 3;
  option.warmup = 1;
  const MeasureResult result = device.measure(input, option);
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(prepares, 1);
  EXPECT_EQ(runs, 4);  // 1 warmup + 3 timed
  EXPECT_GE(result.runtime_s, 0.0015);
}

TEST(CpuDevice, TimeoutMarksInvalid) {
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  input.run = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  };
  MeasureOption option;
  option.repeat = 2;
  option.timeout_s = 0.001;
  const MeasureResult result = device.measure(input, option);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.error.rfind("timeout", 0), 0u);
}

TEST(CpuDevice, WarmupRunsHonorTimeout) {
  // Regression: a pathological configuration used to stall the tuning
  // loop through untimed warmup runs, which ignored timeout_s entirely.
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  int runs = 0;
  input.run = [&runs] {
    ++runs;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  };
  MeasureOption option;
  option.repeat = 3;
  option.warmup = 5;
  option.timeout_s = 0.002;
  const MeasureResult result = device.measure(input, option);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.error.rfind("timeout", 0), 0u);
  EXPECT_NE(result.error.find("warmup"), std::string::npos);
  EXPECT_EQ(runs, 1);  // aborted on the first warmup run
}

TEST(CpuDevice, TimeoutReportsMeanOfCompletedRuns) {
  // Regression: a late timeout used to report only the offending run's
  // elapsed time, discarding every completed repeat.
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  int calls = 0;
  input.run = [&calls] {
    ++calls;
    // Two fast runs, then one far over the timeout.
    std::this_thread::sleep_for(
        std::chrono::milliseconds(calls <= 2 ? 1 : 50));
  };
  MeasureOption option;
  option.repeat = 3;
  option.timeout_s = 0.02;
  const MeasureResult result = device.measure(input, option);
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.error.rfind("timeout", 0), 0u);
  // The mean of the two completed ~1 ms runs, not the ~50 ms outlier.
  EXPECT_LT(result.runtime_s, 0.02);
  EXPECT_GT(result.runtime_s, 0.0);
}

TEST(CpuDevice, FirstRunTimeoutFallsBackToElapsed) {
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  input.run = [] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  MeasureOption option;
  option.repeat = 3;
  option.timeout_s = 0.005;
  const MeasureResult result = device.measure(input, option);
  EXPECT_FALSE(result.valid);
  // No completed repeats: the offending run's elapsed time is the only
  // available estimate.
  EXPECT_GE(result.runtime_s, 0.02);
}

TEST(CpuDevice, ExceptionInKernelIsCaptured) {
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  input.run = [] { throw std::runtime_error("kernel exploded"); };
  const MeasureResult result = device.measure(input, MeasureOption{});
  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.error, "kernel exploded");
}

TEST(CpuDevice, MissingRunnableThrows) {
  CpuDevice device;
  MeasureInput input;
  input.workload = lu_workload(8);
  EXPECT_THROW(device.measure(input, MeasureOption{}), tvmbo::CheckError);
}

TEST(SwingSim, DeterministicSurface) {
  SwingSimDevice a(1), b(2);  // different jitter seeds, same surface
  const Workload w = lu_workload(2000);
  const std::int64_t tiles[2] = {400, 50};
  EXPECT_DOUBLE_EQ(a.surface_runtime(w, tiles), b.surface_runtime(w, tiles));
}

TEST(SwingSim, MeasurementJitterIsSmall) {
  SwingSimDevice device(7);
  MeasureInput input;
  input.workload = lu_workload(2000);
  input.tiles = {400, 50};
  MeasureOption option;
  option.repeat = 3;
  const double surface =
      device.surface_runtime(input.workload, input.tiles);
  const MeasureResult result = device.measure(input, option);
  EXPECT_TRUE(result.valid);
  EXPECT_NEAR(result.runtime_s, surface, surface * 0.05);
  EXPECT_GT(result.compile_s, 0.0);
}

TEST(SwingSim, TileChoiceChangesRuntime) {
  SwingSimDevice device;
  const Workload w = lu_workload(2000);
  const std::int64_t good[2] = {16, 2000};
  const std::int64_t bad[2] = {2000, 1};
  EXPECT_LT(device.surface_runtime(w, good),
            device.surface_runtime(w, bad));
}

TEST(SwingSim, WorkScalesWithProblemSize) {
  SwingSimDevice device;
  const std::int64_t tiles[2] = {40, 32};
  const double large = device.model_runtime(lu_workload(2000), tiles);
  const double xlarge = device.model_runtime(
      lu_workload(4000, "extralarge"), tiles);
  // 8x the flops; calibration scales differ slightly, so allow a band.
  EXPECT_GT(xlarge / large, 5.0);
  EXPECT_LT(xlarge / large, 13.0);
}

TEST(SwingSim, CalibratedMinimaMatchPaper) {
  // The surface minimum over the paper's exact space must equal the best
  // runtime the paper reports (the calibration contract).
  SwingSimDevice device;
  struct Case {
    const char* kernel;
    kernels::Dataset dataset;
    double paper_best;
  };
  for (const Case& c :
       {Case{"lu", kernels::Dataset::kLarge, 1.659},
        Case{"lu", kernels::Dataset::kExtraLarge, 13.77},
        Case{"cholesky", kernels::Dataset::kLarge, 1.65},
        Case{"cholesky", kernels::Dataset::kExtraLarge, 13.99}}) {
    const Workload w = kernels::make_workload(c.kernel, c.dataset);
    const cs::ConfigurationSpace space =
        kernels::build_space(c.kernel, w.dims);
    double best = std::numeric_limits<double>::infinity();
    for (std::uint64_t flat = 0; flat < space.cardinality(); ++flat) {
      const auto tiles = space.values_int(space.from_flat_index(flat));
      best = std::min(best, device.surface_runtime(w, tiles));
    }
    EXPECT_NEAR(best, c.paper_best, c.paper_best * 0.02)
        << c.kernel << "/" << kernels::dataset_name(c.dataset);
  }
}

TEST(SwingSim, CholeskyCheaperThanLu) {
  // Half the flops in the trailing update -> consistently cheaper.
  SwingSimDevice device;
  const std::int64_t tiles[2] = {40, 32};
  Workload lu = lu_workload(2000);
  Workload chol = lu;
  chol.kernel = "cholesky";
  EXPECT_LT(device.model_runtime(chol, tiles) /
                device.model_runtime(lu, tiles),
            1.1);
}

TEST(SwingSim, ThreeMmUsesAllSixTiles) {
  SwingSimDevice device;
  const Workload w = kernels::make_workload("3mm", kernels::Dataset::kLarge);
  const std::int64_t base[6] = {10, 50, 20, 40, 24, 32};
  std::int64_t worse[6] = {10, 50, 20, 40, 24, 32};
  worse[4] = 800;  // de-tile the final stage only
  worse[5] = 1;
  EXPECT_LT(device.model_runtime(w, base), device.model_runtime(w, worse));
}

TEST(SwingSim, InvalidTileCountThrows) {
  SwingSimDevice device;
  const Workload w = lu_workload(2000);
  const std::int64_t three[3] = {1, 2, 3};
  EXPECT_THROW(device.model_runtime(w, three), tvmbo::CheckError);
  const std::int64_t nonpositive[2] = {0, 4};
  EXPECT_THROW(device.model_runtime(w, nonpositive), tvmbo::CheckError);
}

TEST(SwingSim, CompileTimeIsSecondsScale) {
  SwingSimDevice device;
  const Workload w = lu_workload(2000);
  const std::int64_t tiles[2] = {40, 32};
  const double compile = device.compile_time(w, tiles);
  EXPECT_GT(compile, 0.5);
  EXPECT_LT(compile, 10.0);
}

TEST(SwingSim, TimeoutHonored) {
  SwingSimDevice device;
  MeasureInput input;
  input.workload = lu_workload(2000);
  input.tiles = {2000, 1};  // pathologically slow configuration
  MeasureOption option;
  option.repeat = 1;
  option.timeout_s = 0.001;
  const MeasureResult result = device.measure(input, option);
  EXPECT_FALSE(result.valid);
}

TEST(MeasureResult, EvaluationCostCombinesCompileAndRepeats) {
  MeasureResult result;
  result.compile_s = 2.5;
  result.runtime_s = 1.5;
  MeasureOption option;
  option.repeat = 3;
  EXPECT_DOUBLE_EQ(result.evaluation_cost_s(option), 2.5 + 3 * 1.5);
}

TEST(MeasureResult, EvaluationCostChargesWarmupRuns) {
  // Regression: warmup executions burn the same wall-clock as timed ones
  // but used to be omitted, undercharging any warmup > 0 strategy.
  MeasureResult result;
  result.compile_s = 2.5;
  result.runtime_s = 1.5;
  MeasureOption option;
  option.repeat = 3;
  option.warmup = 2;
  EXPECT_DOUBLE_EQ(result.evaluation_cost_s(option),
                   2.5 + (2 + 3) * 1.5);
}

TEST(SwingSim, PlateauExponentCompressesSpread) {
  // With compression disabled the surface spreads out much further from
  // its minimum than with the default plateau model.
  SwingSimParams flat_params;
  SwingSimParams raw_params;
  raw_params.plateau_exponent = 1.0;
  SwingSimDevice flat(flat_params, 1);
  SwingSimDevice raw(raw_params, 1);
  const Workload w = lu_workload(2000);
  const std::int64_t good[2] = {25, 50};
  const std::int64_t bad[2] = {2000, 1};
  const double flat_ratio = flat.model_runtime(w, bad) /
                            flat.model_runtime(w, good);
  const double raw_ratio =
      raw.model_runtime(w, bad) / raw.model_runtime(w, good);
  // Per-stage compression is t^0.5, so the spread ratio roughly squares
  // when compression is disabled (approximate: stages sum, overheads add).
  EXPECT_GT(raw_ratio, flat_ratio * 1.2);
  EXPECT_NEAR(flat_ratio, std::sqrt(raw_ratio), 0.2);
}

TEST(SwingSim, NoiseSigmaZeroMakesSurfaceEqualModel) {
  SwingSimParams params;
  params.noise_sigma = 0.0;
  params.pathological_fraction = 0.0;
  SwingSimDevice device(params, 1);
  const Workload w = lu_workload(2000);
  const std::int64_t tiles[2] = {25, 50};
  EXPECT_DOUBLE_EQ(device.surface_runtime(w, tiles),
                   device.model_runtime(w, tiles));
}

TEST(SwingSim, MeasureIsBitIdenticalToSurfaceAndPowerModels) {
  // measure() evaluates the analytic model once and shares it between the
  // runtime surface and the power model; every field must still equal the
  // public per-quantity functions bit for bit.
  for (const char* kernel : {"lu", "cholesky", "3mm"}) {
    const Workload w = kernels::make_workload(kernel, kernels::Dataset::kLarge);
    const auto space = kernels::build_space(kernel, w.dims);
    SwingSimDevice device(11);
    Rng jitter(11);  // the device's per-measurement jitter stream
    Rng sampler(12);
    MeasureOption option;
    option.repeat = 3;
    for (int i = 0; i < 20; ++i) {
      MeasureInput input;
      input.workload = w;
      input.tiles = space.values_int(space.sample(sampler));
      const MeasureResult result = device.measure(input, option);
      const double surface = device.surface_runtime(w, input.tiles);
      double total = 0.0;
      for (int r = 0; r < option.repeat; ++r) {
        total += surface *
                 std::exp(device.params().jitter_sigma * jitter.normal());
      }
      const double runtime = total / static_cast<double>(option.repeat);
      EXPECT_EQ(result.runtime_s, runtime) << kernel << " config " << i;
      EXPECT_EQ(result.energy_j,
                device.power_watts(w, input.tiles) * runtime)
          << kernel << " config " << i;
      EXPECT_EQ(result.compile_s, device.compile_time(w, input.tiles));
    }
  }
}

// Hash of the bit patterns of `model` (model_runtime or surface_runtime)
// over every configuration of the lu and cholesky spaces at large and
// extralarge: the elimination-step model at every shape it is tuned on.
template <class Model>
std::uint64_t step_model_hash(const Model& model) {
  std::uint64_t hash = 0;
  for (const char* kernel : {"lu", "cholesky"}) {
    for (kernels::Dataset dataset :
         {kernels::Dataset::kLarge, kernels::Dataset::kExtraLarge}) {
      const Workload w = kernels::make_workload(kernel, dataset);
      const cs::ConfigurationSpace space =
          kernels::build_space(kernel, w.dims);
      for (std::uint64_t flat = 0; flat < space.cardinality(); ++flat) {
        const auto tiles = space.values_int(space.from_flat_index(flat));
        hash = hash_combine(hash,
                            std::bit_cast<std::uint64_t>(model(w, tiles)));
      }
    }
  }
  return hash;
}

TEST(SwingSim, StepSumIsBitIdentical) {
  // The hashes come from the serial step loop (one stage_time term added
  // after another); the step terms may be evaluated anywhere as long as
  // they are summed in that order.
  constexpr std::uint64_t kModelHash = 0xfbc5b7011c357ff3ull;
  constexpr std::uint64_t kSurfaceHash = 0x86cbaad280987a58ull;
  const SwingSimDevice device;
  const auto model = [&](const Workload& w, std::span<const std::int64_t> t) {
    return device.model_runtime(w, t);
  };
  const auto surface = [&](const Workload& w,
                           std::span<const std::int64_t> t) {
    return device.surface_runtime(w, t);
  };
  EXPECT_EQ(step_model_hash(model), kModelHash);

  // From inside a pool task, where the steps run inline.
  ThreadPool& pool = default_thread_pool();
  EXPECT_EQ(pool.submit([&] {
                  EXPECT_TRUE(pool.in_worker_thread());
                  return step_model_hash(model);
                }).get(),
            kModelHash);

  // Two callers at once, each with its own pass over the pool.
  std::uint64_t hashes[2] = {};
  std::thread other([&] { hashes[1] = step_model_hash(surface); });
  hashes[0] = step_model_hash(surface);
  other.join();
  EXPECT_EQ(hashes[0], kSurfaceHash);
  EXPECT_EQ(hashes[1], kSurfaceHash);
}

TEST(SwingSim, PathologicalConfigsAreDeterministicallySlower) {
  // With pathological_fraction = 1, every config carries the 1.5x-5.5x
  // multiplier; the surface must be uniformly above the base model.
  SwingSimParams params;
  params.pathological_fraction = 1.0;
  SwingSimDevice device(params, 1);
  const Workload w = lu_workload(2000);
  Rng rng(5);
  const auto space = kernels::build_space("lu", w.dims);
  for (int i = 0; i < 30; ++i) {
    const auto tiles = space.values_int(space.sample(rng));
    const double ratio = device.surface_runtime(w, tiles) /
                         device.model_runtime(w, tiles);
    EXPECT_GE(ratio, 1.5);
    EXPECT_LE(ratio, 5.5);
  }
}

}  // namespace
}  // namespace tvmbo::runtime
