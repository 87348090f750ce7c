#include "runtime/swing_sim.h"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace tvmbo::runtime {

namespace {

// FNV-1a over a string, for workload identity hashing.
std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ull;
  }
  return h;
}

inline std::int64_t ceil_div(std::int64_t a, std::int64_t b) {
  return (a + b - 1) / b;
}

// Deterministic uniform in [0,1) derived from a hash.
inline double hash_uniform(std::uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Deterministic standard normal from a hash (Box-Muller on two derived
// uniforms).
double hash_normal(std::uint64_t h) {
  double u1 = hash_uniform(hash64(h ^ 0x9E3779B97F4A7C15ull));
  const double u2 = hash_uniform(hash64(h ^ 0xD1B54A32D192ED03ull));
  if (u1 <= 0.0) u1 = 0x1.0p-53;
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * std::numbers::pi * u2);
}

struct Calibration {
  const char* kernel;
  const char* size_name;
  double scale;
};

// Fit once (tools/calibrate_swing_sim) so the surface minimum over the
// paper's exact parameter space equals the paper's reported best runtime:
//   LU      large 1.659 s | extralarge 13.77 s   (Figs 5, 7)
//   Cholesky large 1.65 s | extralarge 13.99 s   (Figs 9, 11)
//   3mm     extralarge 30.99 s                   (Fig 13)
//   3mm     large: no figure; scaled by the XL ratio applied to Table 1's
//   problem sizes.
// Values updated by the calibration pass recorded in EXPERIMENTS.md.
constexpr Calibration kCalibration[] = {
    {"lu", "large", 6.668},        // -> exhaustive surface min 1.659 s
    {"lu", "extralarge", 7.656},   // -> 13.77 s
    {"cholesky", "large", 6.890},  // -> 1.65 s
    {"cholesky", "extralarge", 7.785},  // -> 13.99 s
    {"3mm", "large", 123.9},       // same hardware scale as extralarge
    {"3mm", "extralarge", 123.9},  // -> sampled surface min 30.99 s
    {"gemm", "large", 123.9},      // extensions share the matmul-chain
    {"gemm", "extralarge", 123.9},  // calibration (not in the paper)
    {"2mm", "large", 123.9},
    {"2mm", "extralarge", 123.9},
    {"syrk", "large", 123.9},
    {"syrk", "extralarge", 123.9},
    {"atax", "large", 123.9},  // matvec extensions share the hardware
    {"bicg", "large", 123.9},  // scale (not in the paper)
    {"mvt", "large", 123.9},
};

}  // namespace

SwingSimDevice::SwingSimDevice(std::uint64_t seed)
    : SwingSimDevice(SwingSimParams{}, seed) {}

SwingSimDevice::SwingSimDevice(const SwingSimParams& params,
                               std::uint64_t seed)
    : params_(params), jitter_rng_(seed) {}

double SwingSimDevice::calibration_scale(const Workload& workload) const {
  for (const auto& entry : kCalibration) {
    if (workload.kernel == entry.kernel &&
        workload.size_name == entry.size_name) {
      return entry.scale;
    }
  }
  return 1.0;
}

std::uint64_t SwingSimDevice::config_hash(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  std::uint64_t h = fnv1a(workload.kernel);
  h = hash_combine(h, fnv1a(workload.size_name));
  for (std::int64_t d : workload.dims) {
    h = hash_combine(h, static_cast<std::uint64_t>(d));
  }
  for (std::int64_t t : tiles) {
    h = hash_combine(h, static_cast<std::uint64_t>(t));
  }
  return hash_combine(h, params_.surface_seed);
}

double SwingSimDevice::stage_time(std::int64_t rows, std::int64_t cols,
                                  std::int64_t depth, std::int64_t ty,
                                  std::int64_t tx,
                                  double flops_per_element) const {
  if (rows <= 0 || cols <= 0 || depth <= 0) return 0.0;
  ty = std::clamp<std::int64_t>(ty, 1, std::max<std::int64_t>(rows, 1));
  tx = std::clamp<std::int64_t>(tx, 1, std::max<std::int64_t>(cols, 1));

  const double threads = static_cast<double>(ty) * static_cast<double>(tx);
  const std::int64_t blocks_y = ceil_div(rows, ty);
  const std::int64_t blocks_x = ceil_div(cols, tx);
  const double blocks =
      static_cast<double>(blocks_y) * static_cast<double>(blocks_x);
  // Padding waste: partially filled edge tiles still burn full blocks.
  const double padded_elems = static_cast<double>(blocks_y * ty) *
                              static_cast<double>(blocks_x * tx);
  const double flops =
      padded_elems * static_cast<double>(depth) * flops_per_element;

  // --- compute-side efficiency -------------------------------------------
  const double warp = static_cast<double>(params_.warp_size);
  // Blocks smaller than a warp leave lanes idle; saturation near 512.
  double occupancy;
  if (threads < warp) {
    occupancy = 0.30 + 0.50 * threads / warp;
  } else {
    occupancy = std::min(1.0, 0.55 + 0.45 * std::min(threads, 512.0) / 512.0);
  }
  // Oversized logical blocks serialize in waves; latency hiding recovers
  // part of it (sub-linear exponent).
  const double limit = static_cast<double>(params_.max_threads_per_block);
  const double oversub =
      threads > limit ? std::pow(limit / threads, 0.35) : 1.0;
  // Coalescing along the contiguous x axis.
  double coalesce;
  if (tx % params_.warp_size == 0) {
    coalesce = 1.0;
  } else if (tx >= params_.warp_size) {
    coalesce = 0.80;
  } else {
    coalesce = 0.30 + 0.55 * static_cast<double>(tx) / warp;
  }
  // Too few blocks cannot fill the SM array (108 SMs, ~2 blocks each).
  const double fill = std::min(1.0, 0.15 + 0.85 * blocks / 216.0);

  const double efficiency =
      std::max(0.02, occupancy * oversub * coalesce * fill);
  const double flop_time = flops / (params_.peak_gflops * 1e9 * efficiency);

  // --- memory-side time ----------------------------------------------------
  const double w = params_.element_bytes;
  const double depth_chunk = std::min<double>(static_cast<double>(depth), 64);
  const double footprint =
      w * (static_cast<double>(ty) * depth_chunk +
           depth_chunk * static_cast<double>(tx) + threads);
  const double cache_penalty =
      footprint > params_.cache_bytes
          ? 1.0 + 0.45 * std::log2(footprint / params_.cache_bytes)
          : 1.0;
  // Classic tiled-contraction traffic: each operand re-read once per tile
  // in the other dimension, plus the output write.
  const double traffic =
      w * padded_elems *
      (static_cast<double>(depth) * (1.0 / static_cast<double>(tx) +
                                     1.0 / static_cast<double>(ty)) +
       2.0);
  const double mem_time = traffic * cache_penalty /
                          (params_.mem_bandwidth_gbs * 1e9 *
                           (0.5 + 0.5 * coalesce));

  const double raw = std::max(flop_time, mem_time);
  // Roofline-ideal time for this stage shape: perfect efficiency, no
  // padding, each operand streamed once. raw >= ideal by construction
  // (every inefficiency above multiplies on top of these bounds).
  const double elems = static_cast<double>(rows) *
                       static_cast<double>(cols);
  const double flop_ideal = elems * static_cast<double>(depth) *
                            flops_per_element /
                            (params_.peak_gflops * 1e9);
  const double traffic_ideal =
      w * (static_cast<double>(rows) * static_cast<double>(depth) +
           static_cast<double>(depth) * static_cast<double>(cols) +
           2.0 * elems) /
      (params_.mem_bandwidth_gbs * 1e9);
  const double ideal = std::max(flop_ideal, traffic_ideal);
  const double compressed =
      ideal * std::pow(std::max(raw / ideal, 1.0),
                       params_.plateau_exponent);
  return compressed + params_.launch_overhead_us * 1e-6;
}

double SwingSimDevice::elimination_time(std::int64_t n, std::int64_t ty,
                                        std::int64_t tx, double pivot_flops,
                                        double update_flops) const {
  if (n < 2) return 0.0;
  // n-1 sequential elimination steps. Step k scales the pivot column (m
  // elements) then updates the m x m trailing submatrix, m = n - 1 - k.
  // Each step is (at least) two kernel launches; the tiles block the
  // update's (i, j) loops. The terms are independent, so chunks of steps
  // are evaluated on the pool (inline when called from a pool worker);
  // the sum then runs serially in step order (pivot_0, update_0, pivot_1,
  // ...), which keeps every bit of the serial loop's result.
  const auto steps = static_cast<std::size_t>(n - 1);
  std::vector<double> terms(2 * steps);
  default_thread_pool().parallel_for_chunks(
      steps, 0, [&](std::size_t begin, std::size_t end) {
        for (std::size_t k = begin; k < end; ++k) {
          const std::int64_t m = n - 1 - static_cast<std::int64_t>(k);
          // Pivot-column scale: a thin kernel, tiled along y only.
          terms[2 * k] = stage_time(m, 1, 1, std::min(ty, m), 1, pivot_flops);
          // Trailing update: A[i][j] -= A[i][k] * A[k][j].
          terms[2 * k + 1] = stage_time(m, m, 1, ty, tx, update_flops);
        }
      });
  double total = 0.0;
  for (double term : terms) total += term;
  return total;
}

double SwingSimDevice::matmul_chain_time(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  const auto& dims = workload.dims;
  if (workload.kernel == "gemm") {
    TVMBO_CHECK_EQ(dims.size(), 3u) << "gemm dims must be {M, N, K}";
    TVMBO_CHECK_EQ(tiles.size(), 2u) << "gemm tiles must be {ty, tx}";
    return stage_time(dims[0], dims[1], dims[2], tiles[0], tiles[1], 2.0);
  }
  if (workload.kernel == "2mm") {
    TVMBO_CHECK_EQ(dims.size(), 4u) << "2mm dims must be {NI, NJ, NK, NL}";
    TVMBO_CHECK_EQ(tiles.size(), 4u) << "2mm tiles must be {y0,x0,y1,x1}";
    // tmp = A(NIxNK) * B(NKxNJ); D = tmp(NIxNJ) * C(NJxNL)
    return stage_time(dims[0], dims[1], dims[2], tiles[0], tiles[1], 2.0) +
           stage_time(dims[0], dims[3], dims[1], tiles[2], tiles[3], 2.0);
  }
  if (workload.kernel == "syrk") {
    TVMBO_CHECK_EQ(dims.size(), 2u) << "syrk dims must be {N, M}";
    TVMBO_CHECK_EQ(tiles.size(), 2u) << "syrk tiles must be {ty, tx}";
    // Triangular N x N output with depth M: half the flops of a gemm.
    return stage_time(dims[0], dims[0], dims[1], tiles[0], tiles[1], 1.0);
  }
  if (workload.kernel == "atax" || workload.kernel == "bicg") {
    TVMBO_CHECK_EQ(dims.size(), 2u)
        << workload.kernel << " dims must be 2-D";
    TVMBO_CHECK_EQ(tiles.size(), 2u)
        << workload.kernel << " tiles must be {ti, tj}";
    // Two bandwidth-bound traversals of A, blocked (ti, tj), 2 flops per
    // element each; depth 1 (the tile reuses the x/y vector slices).
    return stage_time(dims[0], dims[1], 1, tiles[0], tiles[1], 2.0) * 2.0;
  }
  if (workload.kernel == "mvt") {
    TVMBO_CHECK_EQ(dims.size(), 1u) << "mvt dims must be {N}";
    TVMBO_CHECK_EQ(tiles.size(), 2u) << "mvt tiles must be {ti, tj}";
    return stage_time(dims[0], dims[0], 1, tiles[0], tiles[1], 2.0) * 2.0;
  }
  TVMBO_CHECK(workload.kernel == "3mm")
      << "unsupported matmul-chain kernel '" << workload.kernel << "'";
  TVMBO_CHECK_EQ(dims.size(), 5u) << "3mm dims must be {N, L, M, O, P}";
  TVMBO_CHECK_EQ(tiles.size(), 6u)
      << "3mm tiles must be {y0,x0,y1,x1,y2,x2}";
  const std::int64_t N = dims[0], L = dims[1], M = dims[2], O = dims[3],
                     P = dims[4];
  // E(N x M) = A * B (depth L); F(M x P) = C * D (depth O);
  // G(N x P) = E * F (depth M).
  return stage_time(N, M, L, tiles[0], tiles[1], 2.0) +
         stage_time(M, P, O, tiles[2], tiles[3], 2.0) +
         stage_time(N, P, M, tiles[4], tiles[5], 2.0);
}

double SwingSimDevice::model_runtime(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  for (std::int64_t t : tiles) {
    TVMBO_CHECK_GT(t, 0) << "tile factors must be positive";
  }
  double base = 0.0;
  if (workload.kernel == "lu") {
    TVMBO_CHECK_EQ(workload.dims.size(), 1u) << "lu dims must be {N}";
    TVMBO_CHECK_EQ(tiles.size(), 2u) << "lu tiles must be {ty, tx}";
    // LU without pivoting: the pivot column is scaled (1 flop per
    // element), the trailing update is a rank-1 update (2 flops).
    base = elimination_time(workload.dims[0], tiles[0], tiles[1], 1.0, 2.0);
  } else if (workload.kernel == "cholesky") {
    TVMBO_CHECK_EQ(workload.dims.size(), 1u) << "cholesky dims must be {N}";
    TVMBO_CHECK_EQ(tiles.size(), 2u) << "cholesky tiles must be {ty, tx}";
    // Right-looking Cholesky: sqrt + column scale, then a symmetric rank-1
    // update of the lower-triangular trailing matrix (half the elements of
    // the LU update, same launch structure).
    base = elimination_time(workload.dims[0], tiles[0], tiles[1], 2.0, 1.0);
  } else {
    base = matmul_chain_time(workload, tiles);
  }
  return base * calibration_scale(workload);
}

double SwingSimDevice::surface_runtime(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  return surface_from_model(workload, tiles, model_runtime(workload, tiles));
}

double SwingSimDevice::surface_from_model(
    const Workload& workload, std::span<const std::int64_t> tiles,
    double base) const {
  const std::uint64_t h = config_hash(workload, tiles);
  const double select = hash_uniform(hash64(h ^ 0xA0A0A0A0A0A0A0A0ull));
  double multiplier;
  if (select < params_.pathological_fraction) {
    // Config-deterministic pathology: register spill / bank conflicts /
    // scheduler artifact; such configs are consistently 1.5x-5.5x slower.
    multiplier = 1.5 + 4.0 * hash_uniform(hash64(h ^ 0x0F0F0F0F0F0F0F0Full));
  } else {
    multiplier = std::exp(params_.noise_sigma * hash_normal(h));
  }
  return base * multiplier;
}

double SwingSimDevice::compile_time(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  const std::uint64_t h =
      hash64(config_hash(workload, tiles) ^ 0xC0117113ull);
  double flops = std::max(workload.flops, 1.0);
  // TVM build + CUDA codegen: grows weakly with kernel complexity, with
  // config-dependent variation (larger unrolled tiles take longer).
  const double base = 0.9 + 0.22 * std::log10(flops);
  const double spread = 0.85 + 0.30 * hash_uniform(h);
  return base * spread;
}

double SwingSimDevice::power_watts(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  return power_from_model(workload, tiles, model_runtime(workload, tiles));
}

double SwingSimDevice::power_from_model(
    const Workload& workload, std::span<const std::int64_t> tiles,
    double runtime) const {
  // Utilization proxy: the ratio of the best runtime the hardware could
  // reach (perfect-efficiency roofline, approximated by the calibrated
  // surface minimum region) to this configuration's runtime. Rather than
  // recomputing an exhaustive minimum, use flops/runtime against the
  // device's peak as achieved efficiency.
  const double achieved =
      std::max(workload.flops, 1.0) / std::max(runtime, 1e-9);
  const double efficiency =
      std::clamp(achieved / (params_.peak_gflops * 1e9), 0.0, 1.0);
  const double idle_watts = 55.0;          // A100 idle board power
  const double dynamic_range_watts = 345.0;  // up to the 400 W TDP
  // Dynamic power grows sub-linearly with utilization (voltage/frequency
  // scaling keeps low-utilization kernels from idling at full power).
  const double h = hash_uniform(
      hash64(config_hash(workload, tiles) ^ 0x9033E77A775ull));
  const double variation = 0.95 + 0.10 * h;
  return (idle_watts +
          dynamic_range_watts * std::pow(efficiency, 0.6)) *
         variation;
}

double SwingSimDevice::surface_energy(
    const Workload& workload, std::span<const std::int64_t> tiles) const {
  return power_watts(workload, tiles) * surface_runtime(workload, tiles);
}

MeasureResult SwingSimDevice::measure(const MeasureInput& input,
                                      const MeasureOption& option) {
  TVMBO_CHECK_GT(option.repeat, 0) << "repeat must be positive";
  MeasureResult result;
  // The analytic model is most of a measurement's cost: evaluate it once
  // for both the runtime surface and the power model.
  const double model = model_runtime(input.workload, input.tiles);
  const double surface = surface_from_model(input.workload, input.tiles, model);
  // Per-measurement jitter averaged over `repeat` runs.
  double total = 0.0;
  for (int i = 0; i < option.repeat; ++i) {
    total += surface * std::exp(params_.jitter_sigma * jitter_rng_.normal());
  }
  result.runtime_s = total / static_cast<double>(option.repeat);
  result.compile_s = compile_time(input.workload, input.tiles);
  result.energy_j =
      power_from_model(input.workload, input.tiles, model) * result.runtime_s;
  if (option.timeout_s > 0.0 && result.runtime_s > option.timeout_s) {
    result.valid = false;
    result.error = "timeout";
  }
  return result;
}

}  // namespace tvmbo::runtime
