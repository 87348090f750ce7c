// SwingSimDevice: analytic performance model of one A100 GPU of Argonne's
// Swing cluster, standing in for the hardware the paper measured on.
//
// Why simulate: the paper's evaluation compares *search strategies* on a
// fixed configuration -> runtime surface. What the comparison needs from
// the hardware is (a) a rugged, non-convex surface whose structure comes
// from real architectural effects (block occupancy, coalescing, cache
// footprint, padding waste from non-dividing trailing sizes, kernel-launch
// overhead across LU/Cholesky's sequential steps), (b) measurement noise,
// and (c) realistic magnitudes so that process-time accounting (compile +
// repeats x runtime) reproduces the paper's ordering. The model below
// provides all three, deterministically, so every figure regenerates
// bit-for-bit in seconds.
//
// The per-(kernel, dataset) calibration scales were fit once so that the
// surface minimum over the paper's exact parameter space matches the best
// runtime the paper reports (e.g. LU-large 1.659 s, LU-extralarge 13.77 s,
// Cholesky-extralarge 13.99 s, 3mm-extralarge ~31 s). Shapes — who wins,
// crossovers — are produced by the model, not hand-placed.
//
// Supported workload kernels and their tile-parameter layout:
//   "lu", "cholesky": tiles = {ty, tx}; dims = {N}
//   "gemm":           tiles = {ty, tx}; dims = {M, N, K}
//   "2mm":            tiles = {y0, x0, y1, x1}; dims = {NI, NJ, NK, NL}
//   "3mm":            tiles = {y0, x0, y1, x1, y2, x2};
//                     dims = {N, L, M, O, P}
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "common/rng.h"
#include "runtime/measure.h"

namespace tvmbo::runtime {

/// Architectural constants of the modeled device. Defaults approximate an
/// A100-40GB driven by unoptimized generated code (the paper's TE kernels
/// reach a few GFLOP/s, far from peak — consistent with its reported
/// seconds-scale runtimes).
struct SwingSimParams {
  double peak_gflops = 190.0;       ///< attainable FP32 rate, ideal config
  double mem_bandwidth_gbs = 95.0;  ///< attainable DRAM bandwidth
  double cache_bytes = 4.0 * 1024 * 1024;  ///< modeled reuse window (L2 slice)
  double launch_overhead_us = 8.0;  ///< per kernel launch
  int warp_size = 32;
  int max_threads_per_block = 1024;
  double element_bytes = 4.0;       ///< float32, as TVM GPU kernels default
  double noise_sigma = 0.045;       ///< lognormal surface noise (per config)
  double jitter_sigma = 0.01;       ///< per-measurement jitter
  double pathological_fraction = 0.03;  ///< configs that behave erratically
  /// Compresses each stage's time toward its roofline-ideal bound:
  /// t = t_ideal * (t_raw / t_ideal)^plateau_exponent. Models the broad
  /// near-optimal plateau the paper's searches exhibit (its 3mm-XL best
  /// configurations differ wildly yet land within 0.4% in runtime): on
  /// latency/bandwidth-bound generated kernels, many tilings saturate the
  /// same bound. 1.0 disables the compression.
  double plateau_exponent = 0.5;
  std::uint64_t surface_seed = 0x5717F6A100ull;  ///< seeds the noise field
};

class SwingSimDevice final : public Device {
 public:
  explicit SwingSimDevice(std::uint64_t seed = 2023);
  SwingSimDevice(const SwingSimParams& params, std::uint64_t seed);

  std::string name() const override { return "swing-sim(a100)"; }

  /// Simulated measurement: never touches input.prepare / input.run.
  MeasureResult measure(const MeasureInput& input,
                        const MeasureOption& option) override;

  /// The deterministic config -> runtime surface (base model + per-config
  /// noise, no per-measurement jitter). Exposed for exhaustive-analysis
  /// tests and the ablation benches.
  double surface_runtime(const Workload& workload,
                         std::span<const std::int64_t> tiles) const;

  /// Base analytic model only (no noise); useful for unit-testing the
  /// architectural effects in isolation.
  double model_runtime(const Workload& workload,
                       std::span<const std::int64_t> tiles) const;

  /// Simulated compile (TVM build) time for a configuration.
  double compile_time(const Workload& workload,
                      std::span<const std::int64_t> tiles) const;

  /// Average board power (watts) while running this configuration.
  /// Modeled as idle power plus a dynamic component that grows with how
  /// well the configuration utilizes the device: fast configurations burn
  /// more watts but usually less energy (they finish much sooner) — the
  /// standard race-to-idle tension ytopt's energy-tuning work targets.
  double power_watts(const Workload& workload,
                     std::span<const std::int64_t> tiles) const;

  /// Energy (joules) of one kernel execution: power * surface runtime.
  double surface_energy(const Workload& workload,
                        std::span<const std::int64_t> tiles) const;

  const SwingSimParams& params() const { return params_; }

 private:
  double stage_time(std::int64_t rows, std::int64_t cols,
                    std::int64_t depth, std::int64_t ty, std::int64_t tx,
                    double flops_per_element) const;
  /// LU/Cholesky: the n-1 elimination steps, each a pivot-column stage
  /// and a trailing-update stage with the given flops per element.
  double elimination_time(std::int64_t n, std::int64_t ty, std::int64_t tx,
                          double pivot_flops, double update_flops) const;
  double matmul_chain_time(const Workload& workload,
                           std::span<const std::int64_t> tiles) const;
  double calibration_scale(const Workload& workload) const;
  /// surface_runtime / power_watts given the configuration's
  /// model_runtime, so measure() evaluates the analytic model once.
  double surface_from_model(const Workload& workload,
                            std::span<const std::int64_t> tiles,
                            double model) const;
  double power_from_model(const Workload& workload,
                          std::span<const std::int64_t> tiles,
                          double model) const;
  std::uint64_t config_hash(const Workload& workload,
                            std::span<const std::int64_t> tiles) const;

  SwingSimParams params_;
  mutable Rng jitter_rng_;
};

}  // namespace tvmbo::runtime
