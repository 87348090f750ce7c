// Closure compilation backend for lowered loop IR — the middle ground
// between the tree-walking interpreter (semantics oracle, slow) and the
// hand-specialized native kernels (fast, fixed shape).
//
// compile() resolves everything resolvable ahead of time:
//   * every loop variable gets a fixed register slot (no environment
//     scans at run time),
//   * every tensor access is reduced to base pointer + precomputed
//     strides (buffers must be bound at compile time; Realize regions
//     allocate owned buffers),
//   * every integer subexpression that analysis::analyze_affine accepts —
//     each access's whole flattened offset, with the strides multiplied
//     in, and each guard compare — folds into one `c + Σ k·r[slot]` node;
//     non-affine integer ops (floordiv, mod, min, max, select, var×var)
//     stay closures whose operands re-enter the folded path,
//   * every other expression/statement becomes one std::function node —
//     no kind dispatch per visit. Float operations and their order match
//     the interpreter, so results are bit-identical to it.
//
// The compiled program is reusable: run() executes against the buffers
// captured at compile time. Only float64 buffers are supported.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "runtime/buffer.h"
#include "te/ir.h"

namespace tvmbo::te {

/// Knobs for the closure compiler.
struct CompileOptions {
  /// Worker budget for kParallel loops: 1 (default) compiles them as
  /// plain serial loops, 0 uses every default_thread_pool() worker, and
  /// N >= 2 caps the dispatch at N static chunks. Parallel chunks write
  /// disjoint output elements (lowering rejects anything else), so
  /// float64 results are bit-identical to the serial interpreter at any
  /// setting.
  int parallel_threads = 1;
};

class CompiledProgram {
 public:
  /// Compiles `stmt` against the given tensor -> array bindings
  /// (placeholders and outputs; intermediates come from Realize regions).
  static CompiledProgram compile(
      const Stmt& stmt,
      const std::vector<std::pair<Tensor, runtime::NDArray*>>& bindings,
      const CompileOptions& options = {});

  /// Executes the program.
  void run() const;

  /// Number of registers (loop variables) the program uses.
  std::size_t num_registers() const { return num_registers_; }

 private:
  CompiledProgram() = default;

  std::function<void(std::int64_t*)> entry_;
  std::size_t num_registers_ = 0;
  /// Buffers owned by the program (Realize-allocated intermediates).
  std::vector<std::shared_ptr<runtime::NDArray>> owned_;
};

}  // namespace tvmbo::te
