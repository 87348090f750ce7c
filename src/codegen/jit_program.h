// JIT execution backend for lowered loop IR — the native-speed tier of the
// execution ladder (interpreter -> closure compiler -> JIT -> hand-written
// kernels). compile() emits the statement as C (c_emitter.h), resolves a
// shared object through the content-addressed artifact cache
// (artifact_cache.h; repeated configurations skip the compiler entirely),
// dlopens it (jit_module.h), and binds the caller's buffers — after which
// run() is a single indirect call into optimized machine code.
//
// The interface mirrors te::CompiledProgram: bindings are fixed at compile
// time, Realize intermediates are managed by the generated code, and only
// float64 buffers are supported. The bound arrays must outlive the
// program and must not be reallocated (refill them in place between runs).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "codegen/artifact_cache.h"
#include "codegen/jit_module.h"
#include "runtime/buffer.h"
#include "te/ir.h"

namespace tvmbo::codegen {

class JitProgram {
 public:
  /// Emits, compiles (or cache-resolves), loads, and binds `stmt` against
  /// the given tensor -> array bindings (placeholders and outputs;
  /// intermediates come from Realize regions). Throws CheckError on shape
  /// or dtype mismatch, free tensors, or compiler failure.
  static JitProgram compile(
      const te::Stmt& stmt,
      const std::vector<std::pair<te::Tensor, runtime::NDArray*>>& bindings,
      const JitOptions& options = {});

  /// Executes the kernel against the buffers captured at compile time.
  void run() const;

  /// The emitted C translation unit (for tests and debugging).
  const std::string& source() const { return *source_; }
  /// True when the artifact cache already held the shared object.
  bool cache_hit() const { return cache_hit_; }
  /// Seconds spent in the C compiler (0 on a cache hit).
  double compile_s() const { return compile_s_; }
  /// Path of the shared object backing this program.
  const std::string& artifact_path() const { return module_->path(); }

  /// True when a working C compiler + dlopen toolchain is available (the
  /// result of a one-time probe compile; tests use this to skip). The same
  /// compile answers simd_available: one translation unit holds an emitted
  /// kernel and a `#pragma omp simd` reduction, built with -fopenmp-simd;
  /// only when that build fails does a plain build of the kernel decide.
  static bool toolchain_available(const JitOptions& options = {});

  /// True when the toolchain accepts -fopenmp and the resulting kernel
  /// actually runs multithreaded OpenMP code correctly (one-time probe
  /// compile, like toolchain_available). When false, parallel requests
  /// fall back to serial builds (the pragma alone is ignored without
  /// -fopenmp, so this only loses speed, never correctness).
  static bool openmp_available(const JitOptions& options = {});

  /// True when the toolchain accepts -fopenmp-simd and a `#pragma omp
  /// simd` kernel built with it runs correctly (the toolchain_available
  /// probe; whichever of the two runs first compiles it). -fopenmp-simd activates only the simd
  /// constructs — no OpenMP runtime, no thread pool — so it is the right
  /// flag for vectorized-but-serial builds; a full -fopenmp build
  /// subsumes it. When false, vectorize requests keep the pragma but
  /// drop the flag (ignored pragma -> serial loop, bits unchanged).
  static bool simd_available(const JitOptions& options = {});

 private:
  JitProgram() = default;

  using KernelFn = void (*)(double**);
  std::shared_ptr<JitModule> module_;
  KernelFn fn_ = nullptr;
  std::vector<double*> args_;
  std::shared_ptr<const std::string> source_;
  bool cache_hit_ = false;
  double compile_s_ = 0.0;
};

}  // namespace tvmbo::codegen
