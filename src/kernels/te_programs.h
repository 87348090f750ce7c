// Backend-agnostic TE program instances for the PolyBench kernels — the
// bridge between the kernel definitions (te_kernels.h) and the three
// IR-level execution tiers (interpreter, closure compiler, JIT).
//
// A TeKernelData holds the initialized *input* arrays for one kernel
// instance, shared read-only across every configuration tried during a
// tuning run (and across concurrent measurement threads). A
// TeProgramInstance is one configured program: schedule applied for a
// concrete tile vector, lowered to loop IR, with per-instance output/work
// buffers so parallel trials never alias each other's writes.
//
// make_te_measure_input() wires an instance into the runtime's measurement
// contract: `prepare` lowers + compiles for the chosen backend (CpuDevice
// times it into MeasureResult::compile_s), `run` executes it. This is what
// kernels::make_task uses for every backend other than the hand-written
// native kernels.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "codegen/jit_program.h"
#include "runtime/buffer.h"
#include "runtime/exec_backend.h"
#include "runtime/measure.h"
#include "te/ir.h"

namespace tvmbo::kernels {

/// Kernels with a TE/loop-IR program: 3mm, gemm, 2mm, syrk, lu, cholesky.
bool te_backend_supported(const std::string& kernel);

/// Tile-vector length the kernel's schedule expects (3mm: 6, 2mm: 4,
/// others: 2). Matches build_space's parameter count for these kernels.
std::size_t te_num_tiles(const std::string& kernel);

/// Number of distinct parallel-axis choices (beyond 0 = serial) the
/// kernel's schedule exposes: compute-DAG kernels offer 2 (1 = yo,
/// 2 = xo per stage), lu/cholesky offer 1 (1 = the trailing-update row
/// loop io). All choices are data axes, so every backend stays
/// bit-identical to the interpreter.
std::size_t te_num_parallel_axes(const std::string& kernel);

/// Initialized input arrays for one kernel instance (PolyBench-style
/// deterministic init). Shared across configurations and threads; every
/// backend only reads them.
struct TeKernelData {
  std::string kernel;
  std::vector<std::int64_t> dims;
  std::vector<runtime::NDArray> inputs;  ///< kernel-specific order
};

/// Builds + initializes the shared inputs. Throws CheckError for kernels
/// without a TE program (see te_backend_supported).
std::shared_ptr<TeKernelData> make_te_kernel_data(
    const std::string& kernel, const std::vector<std::int64_t>& dims);

/// Lowered loop IR of one configured program, without allocating or
/// initializing any buffer — the cheap schedule-only path shared by
/// TeProgramInstance, the lint CLI, and the transfer-learning feature
/// extractor (transfer/features.h), which must lower hundreds of
/// candidate configurations per ranking pass.
///
/// `params` lists the program's parameter tensors in binding order:
/// the kernel's inputs in TeKernelData order followed by the output
/// (lu/cholesky expose a single in/out work matrix instead).
struct TeLoweredProgram {
  te::Stmt stmt;
  std::vector<te::Tensor> params;
  int parallel_threads = 1;  ///< thread budget from the extended tiles
  int unroll_factor = 0;     ///< unroll knob from the extended tiles
};

/// Applies the kernel's schedule for `tiles` (base or extended form, as
/// documented on TeProgramInstance) and lowers to loop IR. Throws
/// CheckError on invalid kernels or tile vectors.
TeLoweredProgram lower_te_program(const std::string& kernel,
                                  const std::vector<std::int64_t>& dims,
                                  std::span<const std::int64_t> tiles);

/// One configured, lowered program plus its buffer bindings.
class TeProgramInstance {
 public:
  /// Applies the kernel's schedule for `tiles` and lowers to loop IR.
  /// Output/work arrays are freshly allocated per instance; inputs alias
  /// the shared TeKernelData.
  ///
  /// `tiles` is the base tile vector (te_num_tiles entries, fully
  /// serial), or an extended form with trailing knobs appended:
  /// [parallel_axis, threads] (two extras) or
  /// [parallel_axis, threads, vec_axis, unroll, pack] (five extras).
  /// parallel_axis in [0, te_num_parallel_axes] selects the kParallel
  /// loop (0 = serial); threads is the worker budget handed to the
  /// execution tier (1 = serial dispatch, 0 = all cores, N >= 2 caps at
  /// N); vec_axis marks an inner data axis kVectorized (0 = none, 1 =
  /// innermost, 2 = second-innermost — lowering insists on a
  /// machine-checked race proof); unroll (0 or >= 2) structurally splits
  /// a data axis and marks the new inner loop kUnrolled; pack (0/1)
  /// snapshots the strided operand into a contiguous scratch
  /// (Stage::cache_write / te::pack_reads).
  TeProgramInstance(std::shared_ptr<TeKernelData> data,
                    std::span<const std::int64_t> tiles);

  /// Instantiates an already lowered program (lower_te_program of the
  /// same kernel and dims), allocating its buffers as above.
  TeProgramInstance(std::shared_ptr<TeKernelData> data,
                    TeLoweredProgram lowered);

  const te::Stmt& stmt() const { return stmt_; }

  /// Thread budget from the extended tile vector (1 when absent).
  int parallel_threads() const { return parallel_threads_; }

  /// Unroll factor from the extended tile vector (0 when absent). Handed
  /// to JitOptions::unroll_factor so residual kUnrolled loops keep their
  /// `#pragma GCC unroll` hint in emitted C.
  int unroll_factor() const { return unroll_factor_; }

  /// Tensor -> array bindings for the program's parameters (inputs plus
  /// outputs; Realize intermediates are not bound). Stable for the
  /// lifetime of the instance — compiled programs capture the base
  /// pointers, so the arrays are never reallocated, only refilled.
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>>& bindings()
      const {
    return bindings_;
  }

  /// Restores in-place-factorized buffers (lu/cholesky) to their pristine
  /// contents by copying element-wise — never reallocates (see bindings()).
  /// No-op for the pure compute kernels, whose lowered programs
  /// re-initialize their outputs on every run.
  void reset();

  /// The kernel's primary output (G, C, D, Cout, or the factored matrix),
  /// for differential comparison across backends.
  const runtime::NDArray& output() const { return *output_; }

 private:
  std::shared_ptr<TeKernelData> data_;
  te::Stmt stmt_;
  std::vector<std::pair<te::Tensor, runtime::NDArray*>> bindings_;
  std::vector<std::unique_ptr<runtime::NDArray>> owned_;
  runtime::NDArray* output_ = nullptr;
  const runtime::NDArray* pristine_ = nullptr;  ///< reset() source, or null
  int parallel_threads_ = 1;
  int unroll_factor_ = 0;
};

/// Builds a MeasureInput whose `prepare` instantiates + compiles the
/// configured program for `backend` (kInterp skips compilation) and whose
/// `run` executes it once. Its `static_check` lowers and screens the
/// config and hands a passing program to the next `prepare`, so a
/// screened trial lowers once; an unscreened `prepare`, or a second one
/// (a retry), lowers itself. kNative is not valid here — native kernels
/// don't go through the TE program path.
runtime::MeasureInput make_te_measure_input(
    std::shared_ptr<TeKernelData> data, const runtime::Workload& workload,
    const std::vector<std::int64_t>& tiles, runtime::ExecBackend backend,
    const codegen::JitOptions& jit_options = {});

/// Differential-test helper: instantiate, execute once via `backend`, and
/// return a copy of the output array.
runtime::NDArray run_te_backend(const std::shared_ptr<TeKernelData>& data,
                                std::span<const std::int64_t> tiles,
                                runtime::ExecBackend backend,
                                const codegen::JitOptions& jit_options = {});

}  // namespace tvmbo::kernels
