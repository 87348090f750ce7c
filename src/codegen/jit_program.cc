#include "codegen/jit_program.h"

#include <mutex>
#include <unordered_map>

#include "codegen/c_emitter.h"
#include "common/logging.h"
#include "te/transform.h"

namespace tvmbo::codegen {

namespace {

constexpr const char* kKernelSymbol = "tvmbo_kernel";
constexpr const char* kSimdSymbol = "tvmbo_simd_probe";
constexpr const char* kToolchainProbe = "toolchain";
constexpr const char* kOpenmpProbe = "openmp";

// Hand-written probe functions (not emit_c_source) with a known result:
// 64 ones summed by a reduction under the pragma being probed.
constexpr const char* kSimdProbeSource =
    "void tvmbo_simd_probe(double** bufs) {\n"
    "  double acc = 0.0;\n"
    "  #pragma omp simd reduction(+:acc)\n"
    "  for (int i = 0; i < 64; ++i) acc += 1.0;\n"
    "  bufs[0][0] = acc;\n"
    "}\n";
constexpr const char* kOpenmpProbeSource =
    "void tvmbo_kernel(double** bufs) {\n"
    "  double acc = 0.0;\n"
    "  #pragma omp parallel for reduction(+:acc) schedule(static)\n"
    "  for (int i = 0; i < 64; ++i) acc += 1.0;\n"
    "  bufs[0][0] = acc;\n"
    "}\n";

/// What one probe compile proved.
struct ProbeVerdict {
  bool ok = false;    ///< the probe compiled, loaded and computed its value
  bool simd = false;  ///< so did its `#pragma omp simd` part, -fopenmp-simd on
};

using ProbeFn = ProbeVerdict (*)(const JitOptions&);

/// Runs `probe` once per (probe name, compiler, flags, cache dir) and
/// records its verdict; a probe that throws proves nothing. One lock
/// covers every probe, so concurrent first callers compile once.
ProbeVerdict probe_once(const char* name, const JitOptions& options,
                        ProbeFn probe) {
  static std::mutex mutex;
  static std::unordered_map<std::string, ProbeVerdict>* probed =
      new std::unordered_map<std::string, ProbeVerdict>();
  const std::string key = std::string(name) + "\x1f" +
                          options.resolved_compiler() + "\x1f" +
                          options.flags + "\x1f" +
                          options.resolved_cache_dir();
  std::lock_guard<std::mutex> lock(mutex);
  if (auto it = probed->find(key); it != probed->end()) return it->second;
  ProbeVerdict verdict;
  try {
    verdict = probe(options);
  } catch (const std::exception&) {
    // Leaves both verdicts false.
  }
  (*probed)[key] = verdict;
  return verdict;
}

/// Calls a probe function of `module` on a one-element buffer and returns
/// what it wrote there.
double call_probe(const JitModule& module, const char* symbol) {
  double value = 0.0;
  double* buf = &value;
  reinterpret_cast<void (*)(double**)>(module.symbol(symbol))(&buf);
  return value;
}

/// One compile answers both toolchain_available and simd_available: a
/// translation unit holding an emitted one-store kernel (the full emit ->
/// cc -> dlopen -> dlsym pipeline) and the simd reduction, built with
/// -fopenmp-simd. When that build fails, the kernel alone with the plain
/// flags still proves the toolchain, and simd is off.
ProbeVerdict probe_toolchain(const JitOptions& options) {
  const te::Tensor out = te::placeholder({1}, "probe");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 1, te::ForKind::kSerial,
      te::make_store(out, {i}, te::make_float(1.0)));
  const std::string kernel = emit_c_source(stmt, {out}, kKernelSymbol);
  ArtifactCache& cache = ArtifactCache::shared(options);
  const std::string compiler = options.resolved_compiler();
  try {
    const Artifact artifact = cache.get_or_compile(
        kernel + "\n" + kSimdProbeSource, compiler,
        options.flags + " -fopenmp-simd");
    const std::shared_ptr<JitModule> module = JitModule::load(artifact.so_path);
    return {call_probe(*module, kKernelSymbol) == 1.0,
            call_probe(*module, kSimdSymbol) == 64.0};
  } catch (const std::exception&) {
    // Fall through to the plain build.
  }
  const Artifact artifact =
      cache.get_or_compile(kernel, compiler, options.flags);
  const std::shared_ptr<JitModule> module = JitModule::load(artifact.so_path);
  return {call_probe(*module, kKernelSymbol) == 1.0, false};
}

/// Compiles and runs a real OpenMP reduction, proving both -fopenmp
/// acceptance and a working runtime (libgomp/libomp), not just flag
/// parsing.
ProbeVerdict probe_openmp(const JitOptions& options) {
  const Artifact artifact = ArtifactCache::shared(options).get_or_compile(
      kOpenmpProbeSource, options.resolved_compiler(),
      options.flags + " -fopenmp");
  // Pinned like every OpenMP kernel (see JitModule::load).
  const std::shared_ptr<JitModule> module =
      JitModule::load(artifact.so_path, /*pin=*/true);
  return {call_probe(*module, kKernelSymbol) == 64.0, false};
}

}  // namespace

JitProgram JitProgram::compile(
    const te::Stmt& stmt,
    const std::vector<std::pair<te::Tensor, runtime::NDArray*>>& bindings,
    const JitOptions& options) {
  TVMBO_CHECK(stmt != nullptr) << "compile of null statement";

  std::vector<te::Tensor> params;
  std::vector<double*> args;
  params.reserve(bindings.size());
  args.reserve(bindings.size());
  for (const auto& [tensor, array] : bindings) {
    TVMBO_CHECK(tensor != nullptr && array != nullptr)
        << "null binding passed to JIT compile";
    TVMBO_CHECK(array->dtype() == runtime::DType::kFloat64)
        << "JIT programs support float64 buffers only";
    TVMBO_CHECK(tensor->shape == array->shape())
        << "shape mismatch binding tensor '" << tensor->name << "'";
    params.push_back(tensor);
    args.push_back(array->f64().data());
  }

  // Structural unroll pre-pass: kUnrolled loops within the shared
  // te::kUnrollMaxExtent limit are straight-lined before emission, exactly
  // like the interpreter-side pass pipeline would expand them — same
  // bodies in the same order, so float64 bits are unchanged. Larger
  // kUnrolled loops survive and pick up a `#pragma GCC unroll` hint below.
  // Un-annotated programs skip the pass entirely and emit byte-identical
  // source (stable cache keys).
  te::Stmt working = stmt;
  if (te::has_loop_kind(stmt, te::ForKind::kUnrolled)) {
    working = te::unroll_loops(stmt);
  }

  // Parallel builds: emit OpenMP pragmas on kParallel loops and add
  // -fopenmp when the toolchain supports it. The pragma goes in even
  // without -fopenmp (the compiler ignores it -> serial fallback), so the
  // source text alone already separates parallel from serial cache keys.
  // The same contract covers kVectorized (`#pragma omp simd` +
  // -fopenmp-simd; a full -fopenmp build subsumes the flag) and residual
  // kUnrolled loops (`#pragma GCC unroll`, no flag needed).
  EmitOptions emit_options;
  std::string flags = options.flags;
  bool openmp = false;
  if (options.parallel_threads != 1 && te::has_parallel_loop(working)) {
    emit_options.parallel = true;
    emit_options.num_threads =
        options.parallel_threads > 0 ? options.parallel_threads : 0;
    openmp = openmp_available(options);
    if (openmp) flags += " -fopenmp";
  }
  if (te::has_loop_kind(working, te::ForKind::kVectorized)) {
    emit_options.vectorize = true;
    if (!openmp && simd_available(options)) flags += " -fopenmp-simd";
  }
  if (te::has_loop_kind(working, te::ForKind::kUnrolled)) {
    emit_options.unroll = true;
    emit_options.unroll_factor = options.unroll_factor;
  }

  JitProgram program;
  program.source_ = std::make_shared<const std::string>(
      emit_c_source(working, params, kKernelSymbol, emit_options));
  const Artifact artifact = ArtifactCache::shared(options).get_or_compile(
      *program.source_, options.resolved_compiler(), flags);
  program.cache_hit_ = artifact.cache_hit;
  program.compile_s_ = artifact.compile_s;
  // OpenMP kernels stay pinned: unmapping them can tear the OpenMP
  // runtime out from under its parked worker threads (see JitModule::load).
  program.module_ = JitModule::load(artifact.so_path, /*pin=*/openmp);
  program.fn_ = reinterpret_cast<KernelFn>(
      program.module_->symbol(kKernelSymbol));
  program.args_ = std::move(args);
  return program;
}

void JitProgram::run() const {
  TVMBO_CHECK(fn_ != nullptr) << "run of empty JIT program";
  // The generated kernel only reads the pointer array; const_cast keeps
  // the emitted double** signature simple.
  fn_(const_cast<double**>(args_.data()));
}

bool JitProgram::toolchain_available(const JitOptions& options) {
  return probe_once(kToolchainProbe, options, probe_toolchain).ok;
}

bool JitProgram::simd_available(const JitOptions& options) {
  return probe_once(kToolchainProbe, options, probe_toolchain).simd;
}

bool JitProgram::openmp_available(const JitOptions& options) {
  return probe_once(kOpenmpProbe, options, probe_openmp).ok;
}

}  // namespace tvmbo::codegen
