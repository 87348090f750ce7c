// jit-cold: a seeded list of distinct lu, cholesky and 3mm configs at the
// small size, drawn from the widened space with the thread budget fixed
// at 1, measured through a single-slot MeasureRunner on CpuDevice with the
// jit backend and an empty artifact cache (a fresh cache directory every
// round). Each op is prescreen -> lower -> emit C -> cc -> dlopen ->
// warmup -> timed runs: the cost of every new config in a real tune. The
// tuner is bypassed, so a tuner change should leave this workload flat.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <map>
#include <unordered_set>

#include "analysis/proof_cache.h"
#include "bench.h"
#include "codegen/artifact_cache.h"
#include "codegen/c_emitter.h"
#include "codegen/jit_module.h"
#include "codegen/jit_program.h"
#include "common/rng.h"
#include "kernels/polybench.h"
#include "kernels/reference.h"
#include "kernels/te_programs.h"
#include "runtime/cpu_device.h"
#include "runtime/measure_runner.h"
#include "te/transform.h"

namespace perfbench {
namespace {

using namespace tvmbo;

constexpr std::size_t kConfigsPerKernel = 20;
constexpr int kWarmup = 1;
constexpr int kRepeat = 5;
const char* const kKernels[] = {"lu", "cholesky", "3mm"};

struct KernelCase {
  std::string kernel;
  runtime::Workload workload;
  std::shared_ptr<kernels::TeKernelData> data;
};

struct Config {
  std::size_t kernel = 0;  ///< index into cases_
  std::vector<std::int64_t> tiles;
};

/// The reference output for a kernel instance (kernels/reference.h),
/// computed independently of the TE/codegen path.
runtime::NDArray reference_output(const kernels::TeKernelData& data) {
  const std::vector<runtime::NDArray>& in = data.inputs;
  if (data.kernel == "3mm") {
    const std::vector<std::int64_t>& d = data.dims;  // {N, L, M, O, P}
    runtime::NDArray e({d[0], d[2]}), f({d[2], d[4]}), g({d[0], d[4]});
    kernels::ref_3mm(in[0], in[1], in[2], in[3], e, f, g);
    return g;
  }
  runtime::NDArray a = in[0];
  if (data.kernel == "lu") {
    kernels::ref_lu(a);
  } else {
    kernels::ref_cholesky(a);
  }
  return a;
}

/// Largest elementwise difference; Cholesky compares the factor L only
/// (the strict upper triangle is left as input by the TE program).
double max_abs_diff(const std::string& kernel, const runtime::NDArray& got,
                    const runtime::NDArray& want) {
  if (kernel != "cholesky") return got.max_abs_diff(want);
  double diff = 0.0;
  const std::int64_t n = want.shape()[0];
  for (std::int64_t i = 0; i < n; ++i) {
    for (std::int64_t j = 0; j <= i; ++j) {
      diff = std::max(diff, std::abs(got.at2(i, j) - want.at2(i, j)));
    }
  }
  return diff;
}

class JitCold final : public Workload {
 public:
  explicit JitCold(const RunOptions& options) : options_(options) {}

  void setup() override {
    cases_.clear();
    configs_.clear();
    Rng rng(options_.seed * 0x9e3779b97f4a7c15ull + 11);
    kernels::ScheduleKnobs knobs;
    knobs.enabled = true;
    knobs.max_threads = 1;
    knobs.vectorize = true;
    knobs.unroll = true;
    knobs.pack = true;
    for (std::size_t k = 0; k < std::size(kKernels); ++k) {
      KernelCase kc;
      kc.kernel = kKernels[k];
      kc.workload = kernels::make_workload(kc.kernel, kernels::Dataset::kSmall);
      kc.data = kernels::make_te_kernel_data(kc.kernel, kc.workload.dims);
      const cs::ConfigurationSpace space =
          kernels::build_space(kc.kernel, kc.workload.dims, knobs);
      std::unordered_set<std::uint64_t> seen;
      std::vector<Config> drawn;
      while (drawn.size() < kConfigsPerKernel) {
        const cs::Configuration config = space.sample(rng);
        if (seen.insert(config.hash()).second) {
          drawn.push_back(Config{k, space.values_int(config)});
        }
      }
      configs_.insert(configs_.end(), drawn.begin(), drawn.end());
      cases_.push_back(std::move(kc));
    }
    // Interleave kernels so every round mixes them in a fixed order.
    Rng order(options_.seed + 5);
    order.shuffle(configs_);
    codegen::JitOptions probe;
    probe.cache_dir = options_.run_dir + "/jit-probe";
    toolchain_ = codegen::JitProgram::toolchain_available(probe) &&
                 codegen::JitProgram::simd_available(probe);
  }

  std::string round(Pass& pass, Tracer* tracer) override {
    const std::size_t round_index = rounds_++;
    const codegen::JitOptions jit = jit_options(round_index);
    codegen::ArtifactCache& cache = codegen::ArtifactCache::shared(jit);
    runtime::CpuDevice cpu;
    TracedDevice traced_cpu(cpu, tracer);
    runtime::MeasureRunnerOptions runner_options;
    runner_options.prescreen = true;
    runtime::MeasureRunner runner(
        tracer ? static_cast<runtime::Device*>(&traced_cpu) : &cpu,
        runner_options);
    runtime::MeasureOption option;
    option.warmup = kWarmup;
    option.repeat = kRepeat;

    // Both caches start empty: the artifact cache by directory, the proof
    // cache behind prescreen and lowering by clearing it.
    analysis::ProofCache& proofs = analysis::ProofCache::global();
    proofs.clear();
    proofs.reset_stats();
    Fingerprint fp;
    std::size_t rejects = 0;
    const std::size_t round_misses = cache.stats().misses;
    for (std::size_t i = 0; i < configs_.size(); ++i) {
      const Config& config = configs_[i];
      const KernelCase& kc = cases_[config.kernel];
      const std::int64_t op = static_cast<std::int64_t>(
          round_index * configs_.size() + i);
      const double start = now_s();
      runtime::MeasureInput input = kernels::make_te_measure_input(
          kc.data, kc.workload, config.tiles, runtime::ExecBackend::kJit, jit);
      if (tracer != nullptr) wrap(input, kc, config, jit, *tracer, op);
      const std::size_t misses_before = cache.stats().misses;
      const std::size_t split_misses_before = split_misses_;
      const runtime::MeasureResult result = runner.measure_one(input, option);
      const double wall = now_s() - start;
      pass.latency_ms.push_back(wall * 1e3);
      pass.busy_s += wall;
      if (tracer != nullptr) op_wall_.emplace_back(op, wall);
      // Every compile of the op must be the split's (with the toolchain
      // probes it set off): otherwise the product compiled source other
      // than what the split emitted.
      if (tracer != nullptr && cache.stats().misses - misses_before !=
                                   split_misses_ - split_misses_before) {
        split_mismatch_ = true;
      }

      const bool rejected = result.error.rfind("analysis reject", 0) == 0;
      rejects += rejected ? 1 : 0;
      ++pass.ops;
      ++pass.attempted;
      if (!result.valid && !rejected) {
        ++pass.failed;
        failures_.push_back(kc.kernel + ": " + result.error);
      }
      fp.add(kc.kernel);
      fp.add(config.tiles);
      fp.add(static_cast<std::uint64_t>(rejected));
      if (round_index == 0 && result.valid) {
        geomean_in_.push_back(result.runtime_s);
      }
    }
    rejects_ = rejects;
    fp.add(static_cast<std::uint64_t>(cache.stats().misses - round_misses));
    const analysis::AnalysisCacheStats proof_stats = proofs.stats();
    fp.add(static_cast<std::uint64_t>(proof_stats.prover_runs));
    // The traced split lowers once more per op, so the cache figures come
    // from an untraced round: the product's own queries only.
    if (tracer == nullptr) proof_stats_ = proof_stats;
    if (round_index > 0) {
      std::error_code ec;
      std::filesystem::remove_all(jit.cache_dir, ec);
    }
    return fp.hex();
  }

  void check(Report& report) override {
    report.check(toolchain_, "jit-cold: no working C toolchain");
    // Every config's output must match the reference result. The cache of
    // round 0 still holds each artifact, so this re-runs the measured code.
    const codegen::JitOptions jit = jit_options(0);
    std::size_t checked = 0;
    for (const Config& config : configs_) {
      const KernelCase& kc = cases_[config.kernel];
      runtime::NDArray got(std::vector<std::int64_t>{1});
      try {
        got = kernels::run_te_backend(kc.data, config.tiles,
                                      runtime::ExecBackend::kJit, jit);
      } catch (const std::exception& e) {
        continue;  // statically rejected configs never ran
      }
      const runtime::NDArray want = reference_output(*kc.data);
      const double diff = max_abs_diff(kc.kernel, got, want);
      double scale = 0.0;
      for (double v : want.f64()) scale = std::max(scale, std::abs(v));
      report.check(diff <= 1e-9 * std::max(1.0, scale),
                   "jit-cold: " + kc.kernel + " output differs from the "
                   "reference by " + std::to_string(diff));
      ++checked;
    }
    report.check(checked + rejects_ == configs_.size(),
                 "jit-cold: some configs could not be re-run for checking");
    report.check(!split_mismatch_,
                 "jit-cold: traced emit/compile split missed the product's "
                 "artifact");
    for (const std::string& failure : failures_) report.note(failure);
  }

  void layers(const Tracer& tracer, const Pass&, Report& report) override {
    report.layer("te.lower_ms", median(tracer.durations_ms("te.lower")), "ms");
    report.layer("analysis.screen_ms",
                 median(tracer.durations_ms("analysis.screen")), "ms");
    auto ratio = [](std::size_t hits, std::size_t queries) {
      return queries == 0 ? 0.0
                          : static_cast<double>(hits) /
                                static_cast<double>(queries);
    };
    report.layer("analysis.loop_hit_ratio",
                 ratio(proof_stats_.loop_hits, proof_stats_.loop_queries),
                 "ratio");
    report.layer("analysis.verify_hit_ratio",
                 ratio(proof_stats_.verify_hits, proof_stats_.verify_queries),
                 "ratio");
    report.layer("analysis.prover_runs",
                 static_cast<double>(proof_stats_.prover_runs), "count");
    report.layer("codegen.emit_ms", median(tracer.durations_ms("codegen.emit")),
                 "ms");
    report.layer("codegen.source_kb", median(source_kb_), "kB");
    report.layer("codegen.compile_ms",
                 median(tracer.durations_ms("codegen.compile")), "ms");
    report.layer("codegen.load_ms", median(tracer.durations_ms("codegen.load")),
                 "ms");
    report.layer("codegen.cache_hit_ratio",
                 lookups_ == 0 ? 0.0
                               : static_cast<double>(hits_) /
                                     static_cast<double>(lookups_),
                 "ratio");
    report.layer("runtime.device_measure_us",
                 median(tracer.durations_ms("runtime.device_measure")) * 1e3,
                 "us");
    report.layer("runtime.warmup_ms",
                 median(tracer.durations_ms("runtime.warmup")), "ms");
    report.layer("runtime.run_ms", median(tracer.durations_ms("runtime.run")),
                 "ms");
    // Per op: median timed run; then the geometric mean over the ops. The
    // device span (op -1) encloses prepare/warmup/run, so it is not summed.
    std::map<std::int64_t, std::vector<double>> runs;
    std::map<std::int64_t, double> covered;
    for (const Span& span : tracer.spans()) {
      if (span.name == "runtime.run") runs[span.op].push_back(span.ms());
      covered[span.op] += span.end - span.start;
    }
    std::vector<double> medians_us;
    for (const auto& [op, values] : runs) {
      medians_us.push_back(median(values) * 1e3);
    }
    report.layer("runtime.kernel_geomean_us", geomean(medians_us), "us");
    std::vector<double> overhead_us;
    for (std::size_t i = 0; i < op_wall_.size(); ++i) {
      overhead_us.push_back((op_wall_[i].second - covered[op_wall_[i].first]) *
                            1e6);
    }
    report.layer("runtime.loop_overhead_us", median(overhead_us), "us");
    double min_remainder = 1e300;
    for (double v : overhead_us) min_remainder = std::min(min_remainder, v);
    char line[200];
    std::snprintf(line, sizeof(line),
                  "span accounting: %zu ops, lower+emit+compile+load+screen+"
                  "prepare+warmup+runs+remainder = wall; min remainder %.3f us",
                  overhead_us.size(), min_remainder);
    report.note(line);
    report.check(min_remainder > -1.0,
                 "jit-cold: per-op spans exceed the op's wall-clock");
  }

  void notes(Report& report) override {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "kernel_geomean_us: %.3f us (mean of %d timed runs per "
                  "config, %zu configs); analysis rejects %zu of %zu",
                  geomean(geomean_in_) * 1e6, kRepeat, geomean_in_.size(),
                  rejects_, configs_.size());
    report.note(line);
  }

 private:
  codegen::JitOptions jit_options(std::size_t round_index) const {
    codegen::JitOptions jit;
    jit.cache_dir =
        options_.run_dir + "/jit-cache-" + std::to_string(round_index);
    return jit;
  }

  /// The finer compile split, on the same inputs the product's prepare
  /// will use: lower, emit C, compile through the artifact cache, dlopen.
  /// It runs after the product's screen has returned, so the screen sees
  /// the proof cache as the untraced path does; the product's prepare then
  /// resolves the artifact from the cache.
  void split_phases(const KernelCase& kc, const Config& config,
                    const codegen::JitOptions& jit, Tracer& tracer,
                    std::int64_t op) {
    codegen::ArtifactCache& cache = codegen::ArtifactCache::shared(jit);
    const std::size_t misses_before = cache.stats().misses;
    const kernels::TeLoweredProgram program = traced(
        &tracer, "te.lower", op, [&] {
          return kernels::lower_te_program(kc.kernel, kc.workload.dims,
                                           config.tiles);
        });
    std::string flags = jit.flags;
    const std::string source = traced(&tracer, "codegen.emit", op, [&] {
      te::Stmt working = program.stmt;
      if (te::has_loop_kind(working, te::ForKind::kUnrolled)) {
        working = te::unroll_loops(working);
      }
      codegen::EmitOptions emit;
      if (te::has_loop_kind(working, te::ForKind::kVectorized)) {
        emit.vectorize = true;
        if (codegen::JitProgram::simd_available(jit)) flags += " -fopenmp-simd";
      }
      if (te::has_loop_kind(working, te::ForKind::kUnrolled)) {
        emit.unroll = true;
        emit.unroll_factor = program.unroll_factor;
      }
      return codegen::emit_c_source(working, program.params, "tvmbo_kernel",
                                    emit);
    });
    source_kb_.push_back(static_cast<double>(source.size()) / 1024.0);
    const codegen::Artifact artifact =
        traced(&tracer, "codegen.compile", op, [&] {
          return cache.get_or_compile(source, jit.resolved_compiler(), flags);
        });
    ++lookups_;
    hits_ += artifact.cache_hit ? 1 : 0;
    traced(&tracer, "codegen.load", op,
           [&] { return codegen::JitModule::load(artifact.so_path); });
    split_misses_ += cache.stats().misses - misses_before;
  }

  /// Wraps the product's callbacks so their time shows as spans; the
  /// screen's wrapper also runs the compile split for configs it passes.
  void wrap(runtime::MeasureInput& input, const KernelCase& kc,
            const Config& config, const codegen::JitOptions& jit,
            Tracer& tracer, std::int64_t op) {
    auto check = input.static_check;
    input.static_check = [this, check, &kc, &config, jit, &tracer, op] {
      std::string violation = traced(&tracer, "analysis.screen", op, check);
      if (violation.empty()) split_phases(kc, config, jit, tracer, op);
      return violation;
    };
    auto prepare = input.prepare;
    input.prepare = [prepare, &tracer, op] {
      traced(&tracer, "codegen.prepare", op, prepare);
    };
    auto run = input.run;
    auto calls = std::make_shared<int>(0);
    input.run = [run, calls, &tracer, op] {
      traced(&tracer, (*calls)++ < kWarmup ? "runtime.warmup" : "runtime.run",
             op, run);
    };
  }

  RunOptions options_;
  std::vector<KernelCase> cases_;
  std::vector<Config> configs_;
  bool toolchain_ = false;
  std::size_t rounds_ = 0;
  std::size_t rejects_ = 0;
  std::vector<double> geomean_in_;
  std::vector<std::string> failures_;
  // Traced-pass bookkeeping.
  std::vector<double> source_kb_;
  std::size_t lookups_ = 0;
  std::size_t hits_ = 0;
  std::size_t split_misses_ = 0;  ///< compiles, probes included, by the split
  bool split_mismatch_ = false;
  analysis::AnalysisCacheStats proof_stats_;  ///< the last untraced round's
  std::vector<std::pair<std::int64_t, double>> op_wall_;  ///< (op, seconds)
};

}  // namespace

std::unique_ptr<Workload> make_jit_cold(const RunOptions& options) {
  return std::make_unique<JitCold>(options);
}

}  // namespace perfbench
