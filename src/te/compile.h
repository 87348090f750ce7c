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
//   * every perfect nest of serially run loops (a kParallel loop
//     dispatched on the pool is no part of one) over one store — each
//     loop's body one loop, else-less guards of affine conjuncts anywhere
//     in between — becomes one strided nest when the store is
//       T[f] = T[f] ± (X[g] * Y[h]),  T[f] = T[f] op X[g],
//       T[f] = X[g]  or  T[f] = const
//     and every offset folds. Loops of extent 1 are no level of it (their
//     index is 0); past 8 levels or 8 conjuncts, the outer loops stay
//     closures around the nest that fits inside them. Each offset is
//     split into `start(r) + Σ s_l·i_l` over the nest's levels l; `start`
//     reads only registers outside the nest and is computed once per
//     entry, and the offset then steps by s_l at each level (s_l = 0,
//     e.g. a reduction, is fine). Nest indices never
//     reach the register file. Each guard conjunct is decided at the
//     deepest level whose index it mentions: `h0 + c·i >= 0`, h0 stepped
//     like an offset through the levels above, narrows that level's
//     interval [lo, hi) on every entry to it (c > 0 raises lo to
//     −floor(h0/c), c < 0 lowers hi to floor(h0/−c) + 1), and a conjunct
//     that mentions no nest index is decided once at entry. Memory is
//     touched only by iterations in [lo, hi), and nothing is computed for
//     an empty interval,
//   * every other expression/statement becomes one std::function node —
//     no kind dispatch per visit. Float operations and their order match
//     the interpreter, so results are bit-identical to it. The strided
//     nest keeps that by construction: a conjunct never mentions an index
//     deeper than its level, so the nest runs the same operations in the
//     same order on exactly the iterations whose guard holds, and each
//     iteration reads every operand from memory (no restrict, nothing
//     held in registers), so a store that a later iteration reads through
//     the same base — lu updates A[i,*] while reading A[k,*] of the same
//     matrix — is seen as the interpreter sees it.
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

  /// Number of loop nests compiled to the strided form (see the file
  /// comment).
  std::size_t num_strided_loops() const { return num_strided_loops_; }

  /// Number of loop levels those nests run, extent-1 loops excluded.
  std::size_t num_strided_levels() const { return num_strided_levels_; }

 private:
  CompiledProgram() = default;

  std::function<void(std::int64_t*)> entry_;
  std::size_t num_registers_ = 0;
  std::size_t num_strided_loops_ = 0;
  std::size_t num_strided_levels_ = 0;
  /// Buffers owned by the program (Realize-allocated intermediates).
  std::vector<std::shared_ptr<runtime::NDArray>> owned_;
};

}  // namespace tvmbo::te
