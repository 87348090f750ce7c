#include "te/compile.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <optional>
#include <tuple>

#include "analysis/affine.h"
#include "common/logging.h"
#include "common/thread_pool.h"

namespace tvmbo::te {

namespace {

using Regs = std::int64_t*;
using FExpr = std::function<double(Regs)>;
using FIndex = std::function<std::int64_t(Regs)>;
using FStmt = std::function<void(Regs)>;

/// Register files up to this many slots live on the stack.
constexpr std::size_t kStackRegisters = 16;

/// Runs `body` on a fresh register file of `slots` registers, copied from
/// `init` when given (a parallel chunk's private copy) and zeroed
/// otherwise.
template <class Body>
void with_registers(const std::int64_t* init, std::size_t slots,
                    const Body& body) {
  if (slots <= kStackRegisters) {
    std::array<std::int64_t, kStackRegisters> regs{};
    if (init != nullptr) std::copy(init, init + slots, regs.begin());
    body(regs.data());
    return;
  }
  std::vector<std::int64_t> regs(slots, 0);
  if (init != nullptr) std::copy(init, init + slots, regs.begin());
  body(regs.data());
}

/// One `coefficient * r[slot]` term of a folded affine form.
struct SlotTerm {
  std::size_t slot = 0;
  std::int64_t coeff = 0;
  bool operator==(const SlotTerm&) const = default;
};

/// An affine integer expression folded over the register file:
/// `constant + Σ coeff·r[slot]`, terms sorted by slot, no zero coefficient.
struct SlotForm {
  std::int64_t constant = 0;
  std::vector<SlotTerm> terms;
  bool operator==(const SlotForm&) const = default;

  /// Adds `scale * other` (unnormalized; call normalize() afterwards).
  void add(const SlotForm& other, std::int64_t scale) {
    constant += scale * other.constant;
    for (const SlotTerm& t : other.terms) {
      terms.push_back({t.slot, scale * t.coeff});
    }
  }

  /// Sorts terms by slot, merges duplicates and drops cancelled terms.
  void normalize() {
    std::sort(terms.begin(), terms.end(),
              [](const SlotTerm& a, const SlotTerm& b) {
                return a.slot < b.slot;
              });
    std::vector<SlotTerm> merged;
    for (const SlotTerm& t : terms) {
      if (!merged.empty() && merged.back().slot == t.slot) {
        merged.back().coeff += t.coeff;
      } else {
        merged.push_back(t);
      }
    }
    std::erase_if(merged, [](const SlotTerm& t) { return t.coeff == 0; });
    terms = std::move(merged);
  }
};

// Straight-line evaluators of a SlotForm, one per term count, so a folded
// index costs one call and no loop.
struct Affine0 {
  std::int64_t c;
  std::int64_t operator()(Regs) const { return c; }
};
struct Affine1 {
  std::int64_t c;
  SlotTerm t0;
  std::int64_t operator()(Regs r) const { return c + t0.coeff * r[t0.slot]; }
};
struct Affine2 {
  std::int64_t c;
  SlotTerm t0, t1;
  std::int64_t operator()(Regs r) const {
    return c + t0.coeff * r[t0.slot] + t1.coeff * r[t1.slot];
  }
};
struct Affine3 {
  std::int64_t c;
  SlotTerm t0, t1, t2;
  std::int64_t operator()(Regs r) const {
    return c + t0.coeff * r[t0.slot] + t1.coeff * r[t1.slot] +
           t2.coeff * r[t2.slot];
  }
};
/// Fixed-array fallback for longer forms (and for strided nests' start
/// values): the first four terms are evaluated straight-line, unused ones
/// being zero terms on slot 0.
constexpr std::size_t kMaxFixedTerms = 8;
struct AffineN {
  std::int64_t c = 0;
  std::size_t n = 0;
  std::array<SlotTerm, kMaxFixedTerms> t{};
  std::int64_t operator()(Regs r) const {
    std::int64_t v = c + t[0].coeff * r[t[0].slot] +
                     t[1].coeff * r[t[1].slot] + t[2].coeff * r[t[2].slot] +
                     t[3].coeff * r[t[3].slot];
    for (std::size_t i = 4; i < n; ++i) v += t[i].coeff * r[t[i].slot];
    return v;
  }
};
/// A form of at most three terms as an Affine3, padded with zero terms on
/// slot 0 (every register file has one): the fixed-size form that guard
/// conjunctions and fused load pairs store inline.
std::optional<Affine3> padded3(const SlotForm& form) {
  const auto& t = form.terms;
  if (t.size() > 3) return std::nullopt;
  auto term = [&t](std::size_t i) { return i < t.size() ? t[i] : SlotTerm{}; };
  return Affine3{form.constant, term(0), term(1), term(2)};
}

/// A guard folded to the conjunction `h_i(r) >= 0` of its affine
/// constraints (the normal form of analysis::collect_constraints_checked).
constexpr std::size_t kMaxConjuncts = 4;
struct Conjunction {
  std::size_t n = 0;
  std::array<Affine3, kMaxConjuncts> h{};
  bool operator()(Regs r) const {
    for (std::size_t i = 0; i < n; ++i) {
      if (h[i](r) < 0) return false;
    }
    return true;
  }
};

/// A tensor load whose offset has at most three terms.
struct Load3 {
  const double* base;
  Affine3 offset;
  double operator()(Regs r) const { return base[offset(r)]; }
};

/// Any other integer index: a closure.
struct AffineFn {
  FIndex f;
  std::int64_t operator()(Regs r) const { return f(r); }
};

FIndex index_fn(const SlotForm& form);

/// Calls `visit` with the straight-line evaluator for `form`.
template <class Visit>
auto with_form(const SlotForm& form, const Visit& visit) {
  const auto& t = form.terms;
  const std::int64_t c = form.constant;
  switch (t.size()) {
    case 0: return visit(Affine0{c});
    case 1: return visit(Affine1{c, t[0]});
    case 2: return visit(Affine2{c, t[0], t[1]});
    case 3: return visit(Affine3{c, t[0], t[1], t[2]});
    default: break;
  }
  if (t.size() <= kMaxFixedTerms) {
    AffineN fixed{c, t.size(), {}};
    std::copy(t.begin(), t.end(), fixed.t.begin());
    return visit(fixed);
  }
  // Longer than the fixed array: the head's evaluator plus the tail's.
  SlotForm head{c, {t.begin(), t.begin() + kMaxFixedTerms}};
  SlotForm tail{0, {t.begin() + kMaxFixedTerms, t.end()}};
  return visit(AffineFn{[head_fn = index_fn(head),
                         tail_fn = index_fn(tail)](Regs r) {
    return head_fn(r) + tail_fn(r);
  }});
}

/// A folded form as a stand-alone index closure.
FIndex index_fn(const SlotForm& form) {
  return with_form(form, [](auto f) -> FIndex { return f; });
}

/// A tensor access's flattened offset: folded when every index is affine,
/// otherwise a closure (affine dimensions still folded inside it).
struct Offset {
  std::optional<SlotForm> folded;
  FIndex fn;
};

template <class Visit>
auto with_offset(const Offset& offset, const Visit& visit) {
  if (offset.folded) return with_form(*offset.folded, visit);
  return visit(AffineFn{offset.fn});
}

/// Calls `visit` with the float64 functor of `op`, shared by value
/// expressions and read-modify-write stores.
template <class Visit>
auto with_value_op(BinaryOp op, const Visit& visit) {
  switch (op) {
    case BinaryOp::kAdd:
      return visit([](double a, double b) { return a + b; });
    case BinaryOp::kSub:
      return visit([](double a, double b) { return a - b; });
    case BinaryOp::kMul:
      return visit([](double a, double b) { return a * b; });
    case BinaryOp::kDiv:
      return visit([](double a, double b) { return a / b; });
    case BinaryOp::kFloorDiv:
      return visit([](double a, double b) { return std::floor(a / b); });
    case BinaryOp::kMod:
      return visit(
          [](double a, double b) { return a - std::floor(a / b) * b; });
    case BinaryOp::kMin:
      return visit([](double a, double b) { return std::min(a, b); });
    case BinaryOp::kMax:
      return visit([](double a, double b) { return std::max(a, b); });
  }
  TVMBO_CHECK(false) << "unknown binary op";
  return visit([](double a, double) { return a; });
}

template <class Visit>
auto with_compare(CmpOp op, const Visit& visit) {
  using I = std::int64_t;
  switch (op) {
    case CmpOp::kLt: return visit([](I a, I b) { return a < b; });
    case CmpOp::kLe: return visit([](I a, I b) { return a <= b; });
    case CmpOp::kGt: return visit([](I a, I b) { return a > b; });
    case CmpOp::kGe: return visit([](I a, I b) { return a >= b; });
    case CmpOp::kEq: return visit([](I a, I b) { return a == b; });
    case CmpOp::kNe: return visit([](I a, I b) { return a != b; });
  }
  TVMBO_CHECK(false) << "unknown compare op";
  return visit([](I, I) { return false; });
}

/// floor(a / b) for b > 0; b = 1, the usual guard coefficient, skips the
/// division.
std::int64_t floor_div_pos(std::int64_t a, std::int64_t b) {
  if (b == 1) return a;
  const std::int64_t q = a / b;
  return (a % b != 0 && a < 0) ? q - 1 : q;
}

// A strided nest runs a perfect chain of serial loops over one store as
// native loops. Past these caps a chain is not a nest, and its outer loops
// stay closures around the nest that fits below them.
constexpr std::size_t kMaxNestLevels = 8;
constexpr std::size_t kMaxNestConjuncts = 8;
constexpr std::size_t kMaxNestAccesses = 3;

/// An affine form split over a nest: `start(r)` over the registers outside
/// it plus `step[l]·i_l` for each level l.
struct NestSplit {
  AffineN start{};
  std::array<std::int64_t, kMaxNestLevels> step{};
  /// One past the deepest level whose index the form mentions (0: none).
  std::size_t depth = 0;
};

/// One level of a nest: a loop over [0, extent) whose interval is narrowed
/// by the guard conjuncts [first, last), the ones whose deepest index is
/// this level's.
struct NestLevel {
  std::int64_t extent = 0;
  std::size_t first = 0;
  std::size_t last = 0;
  std::array<std::int64_t, kMaxNestAccesses> access_step{};
  std::array<std::int64_t, kMaxNestConjuncts> guard_step{};

  /// The iterations [lo, hi) that pass every conjunct `h[k] + c_k·i >= 0`
  /// decided here, h[k] being the conjunct's value at i = 0.
  std::pair<std::int64_t, std::int64_t> range(const std::int64_t* h) const {
    std::int64_t lo = 0;
    std::int64_t hi = extent;
    for (std::size_t k = first; k < last; ++k) {
      const std::int64_t c = guard_step[k];
      if (c > 0) {
        lo = std::max(lo, -floor_div_pos(h[k], c));
      } else if (c < 0) {
        hi = std::min(hi, floor_div_pos(h[k], -c) + 1);
      } else if (h[k] < 0) {
        return {0, 0};
      }
    }
    return {lo, hi};
  }
};

/// Levels, guard conjuncts (sorted by the level that decides them; the
/// first `entry` mention no nest index) and access start offsets.
struct NestShape {
  std::size_t depth = 0;
  std::array<NestLevel, kMaxNestLevels> level{};
  std::size_t entry = 0;
  std::size_t guards = 0;
  std::array<AffineN, kMaxNestConjuncts> guard_start{};
  std::array<AffineN, kMaxNestAccesses> access_start{};
};

/// A perfect nest of serial loops over one store, run as native loops:
/// each access offset and guard value is evaluated once at entry over the
/// outer registers and then stepped by each level's stride, each level
/// running only the iterations its conjuncts allow. `body` takes the
/// current offsets, the destination's first, and reads and writes memory
/// through them exactly as the per-iteration closures would.
template <std::size_t N, class Body>
struct StridedNest {
  using Offsets = std::array<std::int64_t, N>;
  using Guards = std::array<std::int64_t, kMaxNestConjuncts>;

  NestShape shape;
  Body body;

  void operator()(Regs r) const {
    Guards h{};
    for (std::size_t k = 0; k < shape.guards; ++k) {
      h[k] = shape.guard_start[k](r);
      if (k < shape.entry && h[k] < 0) return;
    }
    Offsets offset{};
    for (std::size_t k = 0; k < N; ++k) offset[k] = shape.access_start[k](r);
    if (shape.depth == 0) {
      std::apply(body, offset);
    } else {
      run(0, offset, h);
    }
  }

  /// Runs level l and the levels inside it from the values `at` and `h_at`
  /// of the offsets and guard conjuncts at index 0 of this level and every
  /// deeper one.
  void run(std::size_t l, const Offsets& at, const Guards& h_at) const {
    const NestLevel& level = shape.level[l];
    const auto [lo, hi] = level.range(h_at.data());
    if (lo >= hi) return;
    if (l + 1 == shape.depth) {
      innermost(level, lo, hi, at);
    } else if (l + 2 == shape.depth) {
      // The innermost level is entered most often: inline, not a call.
      const NestLevel& inner = shape.level[l + 1];
      walk(level, lo, hi, at, h_at, [&](const Offsets& o, const Guards& h) {
        const auto [inner_lo, inner_hi] = inner.range(h.data());
        if (inner_lo < inner_hi) innermost(inner, inner_lo, inner_hi, o);
      });
    } else {
      walk(level, lo, hi, at, h_at, [&](const Offsets& o, const Guards& h) {
        run(l + 1, o, h);
      });
    }
  }

  /// Calls `visit` with the offsets and guard values of every index in
  /// [lo, hi) of `level`, stepped from `at` and `h_at`. Each call gets this
  /// level's own copies, so the level inside starts afresh from them.
  template <class Visit>
  void walk(const NestLevel& level, std::int64_t lo, std::int64_t hi,
            const Offsets& at, const Guards& h_at, const Visit& visit) const {
    Offsets offset{};
    Offsets step{};
    for (std::size_t k = 0; k < N; ++k) {
      step[k] = level.access_step[k];
      offset[k] = at[k] + lo * step[k];
    }
    // Only conjuncts decided deeper still change with this level's index.
    Guards h{};
    for (std::size_t k = level.last; k < shape.guards; ++k) {
      h[k] = h_at[k] + lo * level.guard_step[k];
    }
    for (std::int64_t i = lo; i < hi; ++i) {
      visit(offset, h);
      for (std::size_t k = 0; k < N; ++k) offset[k] += step[k];
      for (std::size_t k = level.last; k < shape.guards; ++k) {
        h[k] += level.guard_step[k];
      }
    }
  }

  /// The innermost level, over [lo, hi). Its offsets are scalars rather
  /// than an array, which the compiler would carry from one iteration to
  /// the next through memory once it vectorizes the steps.
  void innermost(const NestLevel& level, std::int64_t lo, std::int64_t hi,
                 const Offsets& at) const {
    const std::array<std::int64_t, kMaxNestAccesses>& step =
        level.access_step;
    std::int64_t o0 = at[0] + lo * step[0];
    if constexpr (N == 1) {
      for (std::int64_t i = lo; i < hi; ++i, o0 += step[0]) body(o0);
    } else if constexpr (N == 2) {
      std::int64_t o1 = at[1] + lo * step[1];
      for (std::int64_t i = lo; i < hi; ++i, o0 += step[0], o1 += step[1]) {
        body(o0, o1);
      }
    } else {
      std::int64_t o1 = at[1] + lo * step[1];
      std::int64_t o2 = at[2] + lo * step[2];
      for (std::int64_t i = lo; i < hi;
           ++i, o0 += step[0], o1 += step[1], o2 += step[2]) {
        body(o0, o1, o2);
      }
    }
  }
};

template <std::size_t N, class Body>
FStmt strided_nest(NestShape shape, const std::array<NestSplit, N>& access,
                   Body body) {
  static_assert(N <= kMaxNestAccesses);
  for (std::size_t k = 0; k < N; ++k) {
    shape.access_start[k] = access[k].start;
    for (std::size_t l = 0; l < shape.depth; ++l) {
      shape.level[l].access_step[k] = access[k].step[l];
    }
  }
  return StridedNest<N, Body>{shape, std::move(body)};
}

/// The registers of a loop chain compiled as a nest: slots below `outer`
/// are outside it, and slot outer + k is the chain's k-th loop, at level
/// level_of[k] or, for an extent-1 loop, at none (kMaxNestLevels).
struct NestFrame {
  std::size_t outer = 0;
  std::vector<std::size_t> level_of;

  /// Splits a folded form over the nest's levels; nullopt when its outer
  /// terms do not fit the fixed array.
  std::optional<NestSplit> split(const SlotForm& form) const {
    NestSplit out;
    out.start.c = form.constant;
    for (const SlotTerm& t : form.terms) {
      if (t.slot < outer) {
        if (out.start.n == kMaxFixedTerms) return std::nullopt;
        out.start.t[out.start.n++] = t;
        continue;
      }
      const std::size_t l = level_of[t.slot - outer];
      if (l == kMaxNestLevels) continue;  // an extent-1 loop's index is 0
      out.step[l] = t.coeff;
      out.depth = std::max(out.depth, l + 1);
    }
    return out;
  }
};

template <class Condition>
FStmt if_stmt(Condition condition, FStmt then_case, FStmt else_case) {
  if (else_case) {
    return [condition, then_case = std::move(then_case),
            else_case = std::move(else_case)](Regs r) {
      if (condition(r)) {
        then_case(r);
      } else {
        else_case(r);
      }
    };
  }
  return [condition, then_case = std::move(then_case)](Regs r) {
    if (condition(r)) then_case(r);
  };
}

/// Compile-time context: register allocation and buffer resolution.
struct Compiler {
  /// Size of the run-time register file (set before compile_stmt); chunks
  /// of a parallel loop copy it so each worker sees the outer indices.
  std::size_t scratch_slots = 1;
  /// Worker budget for kParallel loops (CompileOptions::parallel_threads).
  int parallel_threads = 1;
  std::vector<const VarNode*> registers;
  std::vector<std::pair<const TensorNode*, double*>> buffers;
  std::vector<std::pair<const TensorNode*, std::vector<std::int64_t>>>
      strides;
  std::vector<std::shared_ptr<runtime::NDArray>> owned;
  /// Nests compiled by compile_strided, and the levels they run.
  std::size_t strided_nests = 0;
  std::size_t strided_levels = 0;

  /// Whether `loop` is a kParallel loop dispatched on the pool.
  bool dispatches(const ForNode* loop) const {
    return loop->for_kind == ForKind::kParallel && parallel_threads != 1 &&
           loop->extent > 1;
  }

  std::size_t slot_of(const VarNode* var) const {
    for (std::size_t i = 0; i < registers.size(); ++i) {
      if (registers[i] == var) return i;
    }
    TVMBO_CHECK(false) << "unbound variable '" << var->name
                       << "' at compile time";
    return 0;
  }

  std::size_t bind_var(const VarNode* var) {
    registers.push_back(var);
    return registers.size() - 1;
  }

  void bind_buffer(const TensorNode* tensor, runtime::NDArray* array) {
    TVMBO_CHECK(array->dtype() == runtime::DType::kFloat64)
        << "compiled programs support float64 buffers only";
    TVMBO_CHECK(tensor->shape == array->shape())
        << "shape mismatch binding tensor '" << tensor->name << "'";
    buffers.emplace_back(tensor, array->f64().data());
    std::vector<std::int64_t> s(tensor->shape.size(), 1);
    for (std::size_t d = tensor->shape.size() - 1; d > 0; --d) {
      s[d - 1] = s[d] * tensor->shape[d];
    }
    strides.emplace_back(tensor, std::move(s));
  }

  double* base_of(const TensorNode* tensor) const {
    for (const auto& [t, base] : buffers) {
      if (t == tensor) return base;
    }
    TVMBO_CHECK(false) << "tensor '" << tensor->name
                       << "' not bound at compile time";
    return nullptr;
  }

  const std::vector<std::int64_t>& strides_of(
      const TensorNode* tensor) const {
    for (const auto& [t, s] : strides) {
      if (t == tensor) return s;
    }
    TVMBO_CHECK(false) << "tensor '" << tensor->name
                       << "' not bound at compile time";
    static const std::vector<std::int64_t> empty;
    return empty;
  }

  std::optional<SlotForm> fold(const ExprNode* expr) const;
  SlotForm to_slots(const analysis::AffineForm& affine) const;
  std::optional<Conjunction> fold_guard(const Expr& condition) const;
  Offset compile_offset(const TensorNode* tensor,
                        const std::vector<Expr>& indices);
  FIndex compile_index(const ExprNode* expr);
  std::optional<Load3> fold_load(const ExprNode* expr);
  FExpr compile_value(const ExprNode* expr);
  FStmt compile_store(const StoreNode* node);
  std::optional<FStmt> compile_strided(const ForNode* loop);
  std::optional<FStmt> strided_store(const StoreNode* store,
                                     const NestShape& shape,
                                     const NestFrame& frame);
  FStmt compile_stmt(const StmtNode* stmt);
};

/// Folds `expr` into register-slot form when analysis::analyze_affine
/// accepts it (add/sub/mul-by-constant over loop vars and int immediates).
std::optional<SlotForm> Compiler::fold(const ExprNode* expr) const {
  const analysis::AffineForm affine = analysis::analyze_affine(expr);
  if (!affine.affine) return std::nullopt;
  return to_slots(affine);
}

SlotForm Compiler::to_slots(const analysis::AffineForm& affine) const {
  SlotForm form;
  form.constant = affine.constant;
  for (const auto& [var, coeff] : affine.terms) {
    form.terms.push_back({slot_of(var), coeff});
  }
  form.normalize();
  return form;
}

/// Folds a guard whose every conjunct is an affine compare (joined by the
/// `select(a, b, 0)` encoding of logical_and) into one Conjunction.
std::optional<Conjunction> Compiler::fold_guard(const Expr& condition) const {
  std::vector<analysis::AffineForm> constraints;
  if (!analysis::collect_constraints_checked(condition, constraints) ||
      constraints.size() > kMaxConjuncts) {
    return std::nullopt;
  }
  Conjunction guard;
  for (const analysis::AffineForm& constraint : constraints) {
    const std::optional<Affine3> h = padded3(to_slots(constraint));
    if (!h) return std::nullopt;
    guard.h[guard.n++] = *h;
  }
  return guard;
}

Offset Compiler::compile_offset(const TensorNode* tensor,
                                const std::vector<Expr>& indices) {
  const auto& s = strides_of(tensor);
  SlotForm folded;
  std::vector<std::pair<FIndex, std::int64_t>> rest;
  for (std::size_t d = 0; d < indices.size(); ++d) {
    if (auto form = fold(indices[d].get())) {
      folded.add(*form, s[d]);
    } else {
      rest.emplace_back(compile_index(indices[d].get()), s[d]);
    }
  }
  folded.normalize();
  if (rest.empty()) return {std::move(folded), {}};
  return {std::nullopt, [part = index_fn(folded), rest](Regs r) {
            std::int64_t flat = part(r);
            for (const auto& [dim, stride] : rest) flat += dim(r) * stride;
            return flat;
          }};
}

FIndex Compiler::compile_index(const ExprNode* expr) {
  if (auto form = fold(expr)) return index_fn(*form);
  switch (expr->kind()) {
    case ExprKind::kBinary: {
      const auto* node = static_cast<const BinaryNode*>(expr);
      FIndex a = compile_index(node->a.get());
      FIndex b = compile_index(node->b.get());
      switch (node->op) {
        case BinaryOp::kAdd:
          return [a, b](Regs r) { return a(r) + b(r); };
        case BinaryOp::kSub:
          return [a, b](Regs r) { return a(r) - b(r); };
        case BinaryOp::kMul:
          return [a, b](Regs r) { return a(r) * b(r); };
        case BinaryOp::kDiv:
          return [a, b](Regs r) { return a(r) / b(r); };
        case BinaryOp::kFloorDiv:
          return [a, b](Regs r) {
            const std::int64_t x = a(r), y = b(r);
            std::int64_t q = x / y;
            if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
            return q;
          };
        case BinaryOp::kMod:
          return [a, b](Regs r) {
            const std::int64_t x = a(r), y = b(r);
            std::int64_t q = x / y;
            if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
            return x - q * y;
          };
        case BinaryOp::kMin:
          return [a, b](Regs r) { return std::min(a(r), b(r)); };
        case BinaryOp::kMax:
          return [a, b](Regs r) { return std::max(a(r), b(r)); };
      }
      break;
    }
    case ExprKind::kCompare: {
      const auto* node = static_cast<const CompareNode*>(expr);
      auto lhs = fold(node->a.get());
      auto rhs = fold(node->b.get());
      if (lhs && rhs) {
        // a OP b  ==>  (a - b) OP 0, one folded form.
        SlotForm diff = *lhs;
        diff.add(*rhs, -1);
        diff.normalize();
        return with_compare(node->op, [&](auto cmp) {
          return with_form(diff, [cmp](auto f) -> FIndex {
            return [f, cmp](Regs r) -> std::int64_t { return cmp(f(r), 0); };
          });
        });
      }
      FIndex a = compile_index(node->a.get());
      FIndex b = compile_index(node->b.get());
      return with_compare(node->op, [&](auto cmp) -> FIndex {
        return [a, b, cmp](Regs r) -> std::int64_t {
          return cmp(a(r), b(r));
        };
      });
    }
    case ExprKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(expr);
      FIndex c = compile_index(node->condition.get());
      FIndex t = compile_index(node->true_value.get());
      FIndex f = compile_index(node->false_value.get());
      return [c, t, f](Regs r) { return c(r) != 0 ? t(r) : f(r); };
    }
    default:
      break;
  }
  TVMBO_CHECK(false) << "expression is not integer-compilable";
  return {};
}

std::optional<Load3> Compiler::fold_load(const ExprNode* expr) {
  if (expr->kind() != ExprKind::kTensorAccess) return std::nullopt;
  const auto* node = static_cast<const TensorAccessNode*>(expr);
  const Offset offset = compile_offset(node->tensor.get(), node->indices);
  if (!offset.folded) return std::nullopt;
  const std::optional<Affine3> padded = padded3(*offset.folded);
  if (!padded) return std::nullopt;
  return Load3{base_of(node->tensor.get()), *padded};
}

FExpr Compiler::compile_value(const ExprNode* expr) {
  switch (expr->kind()) {
    case ExprKind::kIntImm: {
      const double value = static_cast<double>(
          static_cast<const IntImmNode*>(expr)->value);
      return [value](Regs) { return value; };
    }
    case ExprKind::kFloatImm: {
      const double value = static_cast<const FloatImmNode*>(expr)->value;
      return [value](Regs) { return value; };
    }
    case ExprKind::kVar: {
      const std::size_t slot = slot_of(static_cast<const VarNode*>(expr));
      return [slot](Regs r) { return static_cast<double>(r[slot]); };
    }
    case ExprKind::kBinary: {
      const auto* node = static_cast<const BinaryNode*>(expr);
      // Two loads (the A[..] * B[..] of every MAC): one node.
      const std::optional<Load3> x = fold_load(node->a.get());
      const std::optional<Load3> y = fold_load(node->b.get());
      if (x && y) {
        return with_value_op(node->op, [&](auto op) -> FExpr {
          return [x = *x, y = *y, op](Regs r) { return op(x(r), y(r)); };
        });
      }
      FExpr a = compile_value(node->a.get());
      FExpr b = compile_value(node->b.get());
      return with_value_op(node->op, [&](auto op) -> FExpr {
        return [a, b, op](Regs r) { return op(a(r), b(r)); };
      });
    }
    case ExprKind::kUnary: {
      const auto* node = static_cast<const UnaryNode*>(expr);
      FExpr x = compile_value(node->operand.get());
      switch (node->op) {
        case UnaryOp::kNeg: return [x](Regs r) { return -x(r); };
        case UnaryOp::kAbs:
          return [x](Regs r) { return std::fabs(x(r)); };
        case UnaryOp::kSqrt:
          return [x](Regs r) { return std::sqrt(x(r)); };
        case UnaryOp::kExp:
          return [x](Regs r) { return std::exp(x(r)); };
        case UnaryOp::kLog:
          return [x](Regs r) { return std::log(x(r)); };
      }
      break;
    }
    case ExprKind::kCompare: {
      FIndex c = compile_index(expr);
      return [c](Regs r) { return static_cast<double>(c(r)); };
    }
    case ExprKind::kSelect: {
      const auto* node = static_cast<const SelectNode*>(expr);
      FIndex c = compile_index(node->condition.get());
      FExpr t = compile_value(node->true_value.get());
      FExpr f = compile_value(node->false_value.get());
      return [c, t, f](Regs r) { return c(r) != 0 ? t(r) : f(r); };
    }
    case ExprKind::kTensorAccess: {
      const auto* node = static_cast<const TensorAccessNode*>(expr);
      double* base = base_of(node->tensor.get());
      return with_offset(compile_offset(node->tensor.get(), node->indices),
                         [base](auto off) -> FExpr {
                           return [base, off](Regs r) { return base[off(r)]; };
                         });
    }
    case ExprKind::kReduce:
      break;
  }
  TVMBO_CHECK(false) << "expression is not value-compilable";
  return {};
}

FStmt Compiler::compile_store(const StoreNode* node) {
  double* base = base_of(node->tensor.get());
  const Offset dest = compile_offset(node->tensor.get(), node->indices);
  // Read-modify-write `T[f] = T[f] op e`: one offset computation serves
  // both the load and the store.
  if (dest.folded && node->value->kind() == ExprKind::kBinary) {
    const auto* binary = static_cast<const BinaryNode*>(node->value.get());
    if (binary->a->kind() == ExprKind::kTensorAccess) {
      const auto* load =
          static_cast<const TensorAccessNode*>(binary->a.get());
      if (load->tensor.get() == node->tensor.get() &&
          compile_offset(load->tensor.get(), load->indices).folded ==
              dest.folded) {
        FExpr rhs = compile_value(binary->b.get());
        return with_value_op(binary->op, [&](auto op) {
          return with_form(*dest.folded, [base, rhs, op](auto off) -> FStmt {
            return [base, rhs, op, off](Regs r) {
              double* p = base + off(r);
              *p = op(*p, rhs(r));
            };
          });
        });
      }
    }
  }
  FExpr value = compile_value(node->value.get());
  return with_offset(dest, [base, value](auto off) -> FStmt {
    return [base, value, off](Regs r) { base[off(r)] = value(r); };
  });
}

/// Compiles the perfect chain of serial loops from `loop` down — each
/// loop's body one loop, else-less guards of affine conjuncts anywhere in
/// between, then one store — into one StridedNest when the store has one
/// of the shapes
///   T[f] = T[f] ± (X[g] * Y[h]),   T[f] = T[f] op X[g],
///   T[f] = X[g],                  T[f] = const
/// and every offset folds. Extent-1 loops (a split by 1) run their body
/// once at index 0, so they are no level of the nest. Binds the chain's
/// registers for folding (the caller unbinds them). nullopt otherwise.
std::optional<FStmt> Compiler::compile_strided(const ForNode* loop) {
  NestFrame frame{registers.size(), {}};
  NestShape shape;
  std::vector<analysis::AffineForm> constraints;
  const StmtNode* body = loop;
  for (;;) {
    if (body->kind() == StmtKind::kFor) {
      const auto* node = static_cast<const ForNode*>(body);
      if (dispatches(node)) return std::nullopt;
      bind_var(node->var.get());
      if (node->extent == 1) {
        frame.level_of.push_back(kMaxNestLevels);
      } else if (shape.depth == kMaxNestLevels) {
        return std::nullopt;
      } else {
        frame.level_of.push_back(shape.depth);
        shape.level[shape.depth++].extent = node->extent;
      }
      body = node->body.get();
    } else if (body->kind() == StmtKind::kIfThenElse) {
      const auto* node = static_cast<const IfThenElseNode*>(body);
      if (node->else_case || !analysis::collect_constraints_checked(
                                 node->condition, constraints)) {
        return std::nullopt;
      }
      body = node->then_case.get();
    } else {
      break;
    }
  }
  if (body->kind() != StmtKind::kStore ||
      constraints.size() > kMaxNestConjuncts) {
    return std::nullopt;
  }
  // Each conjunct is decided at the deepest level whose index it mentions
  // (at entry when none): sorted by that level, each level's are a range.
  std::vector<NestSplit> conjuncts;
  conjuncts.reserve(constraints.size());
  for (const analysis::AffineForm& constraint : constraints) {
    const std::optional<NestSplit> h = frame.split(to_slots(constraint));
    if (!h) return std::nullopt;
    conjuncts.push_back(*h);
  }
  std::stable_sort(conjuncts.begin(), conjuncts.end(),
                   [](const NestSplit& a, const NestSplit& b) {
                     return a.depth < b.depth;
                   });
  shape.guards = conjuncts.size();
  for (std::size_t k = 0; k < conjuncts.size(); ++k) {
    shape.guard_start[k] = conjuncts[k].start;
    if (conjuncts[k].depth == 0) ++shape.entry;
    for (std::size_t l = 0; l < shape.depth; ++l) {
      shape.level[l].guard_step[k] = conjuncts[k].step[l];
    }
  }
  std::size_t next = shape.entry;
  for (std::size_t l = 0; l < shape.depth; ++l) {
    shape.level[l].first = next;
    while (next < conjuncts.size() && conjuncts[next].depth == l + 1) ++next;
    shape.level[l].last = next;
  }
  std::optional<FStmt> nest =
      strided_store(static_cast<const StoreNode*>(body), shape, frame);
  if (nest) {
    ++strided_nests;
    strided_levels += shape.depth;
  }
  return nest;
}

/// The StridedNest of `shape` over `store`, when the store has one of the
/// strided shapes and every offset folds.
std::optional<FStmt> Compiler::strided_store(const StoreNode* store,
                                             const NestShape& shape,
                                             const NestFrame& frame) {
  double* t = base_of(store->tensor.get());
  const std::optional<SlotForm> dest_form =
      compile_offset(store->tensor.get(), store->indices).folded;
  if (!dest_form) return std::nullopt;
  const std::optional<NestSplit> dest = frame.split(*dest_form);
  if (!dest) return std::nullopt;
  // A load as its base and split offset, when the offset folds.
  auto load = [&](const ExprNode* expr)
      -> std::optional<std::pair<const double*, NestSplit>> {
    if (expr->kind() != ExprKind::kTensorAccess) return std::nullopt;
    const auto* node = static_cast<const TensorAccessNode*>(expr);
    const std::optional<SlotForm> form =
        compile_offset(node->tensor.get(), node->indices).folded;
    if (!form) return std::nullopt;
    const std::optional<NestSplit> offset = frame.split(*form);
    if (!offset) return std::nullopt;
    return std::pair{base_of(node->tensor.get()), *offset};
  };

  const ExprNode* value = store->value.get();
  switch (value->kind()) {
    case ExprKind::kIntImm:
    case ExprKind::kFloatImm: {
      const double c =
          value->kind() == ExprKind::kIntImm
              ? static_cast<double>(
                    static_cast<const IntImmNode*>(value)->value)
              : static_cast<const FloatImmNode*>(value)->value;
      return strided_nest(shape, std::array{*dest},
                          [t, c](std::int64_t d) { t[d] = c; });
    }
    case ExprKind::kTensorAccess: {
      const auto x = load(value);
      if (!x) return std::nullopt;
      return strided_nest(
          shape, std::array{*dest, x->second},
          [t, x = x->first](std::int64_t d, std::int64_t a) {
            t[d] = x[a];
          });
    }
    case ExprKind::kBinary:
      break;
    default:
      return std::nullopt;
  }
  // Read-modify-write: the left operand reads the destination element.
  const auto* binary = static_cast<const BinaryNode*>(value);
  if (binary->a->kind() != ExprKind::kTensorAccess) return std::nullopt;
  const auto* self = static_cast<const TensorAccessNode*>(binary->a.get());
  if (self->tensor.get() != store->tensor.get() ||
      compile_offset(self->tensor.get(), self->indices).folded != dest_form) {
    return std::nullopt;
  }
  const ExprNode* rhs = binary->b.get();
  if (const auto x = load(rhs)) {
    return with_value_op(binary->op, [&](auto op) {
      return strided_nest(
          shape, std::array{*dest, x->second},
          [t, x = x->first, op](std::int64_t d, std::int64_t a) {
            t[d] = op(t[d], x[a]);
          });
    });
  }
  // The three-access nest is instantiated only for the multiply-accumulate
  // forms the TE kernels produce (add or sub over mul); any other pair
  // takes the general closure path.
  if (rhs->kind() != ExprKind::kBinary) return std::nullopt;
  const auto* product = static_cast<const BinaryNode*>(rhs);
  if (product->op != BinaryOp::kMul ||
      (binary->op != BinaryOp::kAdd && binary->op != BinaryOp::kSub)) {
    return std::nullopt;
  }
  const auto x = load(product->a.get());
  const auto y = load(product->b.get());
  if (!x || !y) return std::nullopt;
  const auto mac = [&](auto op) {
    return strided_nest(
        shape, std::array{*dest, x->second, y->second},
        [t, x = x->first, y = y->first, op](std::int64_t d, std::int64_t a,
                                            std::int64_t b) {
          t[d] = op(t[d], x[a] * y[b]);
        });
  };
  if (binary->op == BinaryOp::kAdd) {
    return mac([](double a, double b) { return a + b; });
  }
  return mac([](double a, double b) { return a - b; });
}

FStmt Compiler::compile_stmt(const StmtNode* stmt) {
  switch (stmt->kind()) {
    case StmtKind::kFor: {
      const auto* node = static_cast<const ForNode*>(stmt);
      if (!dispatches(node)) {
        const std::size_t outer = registers.size();
        std::optional<FStmt> nest = compile_strided(node);
        registers.resize(outer);
        if (nest) return *std::move(nest);
      }
      const std::size_t slot = bind_var(node->var.get());
      const std::int64_t extent = node->extent;
      FStmt body = compile_stmt(node->body.get());
      registers.pop_back();
      if (dispatches(node)) {
        const std::size_t slots = scratch_slots;
        const int threads = parallel_threads;
        return [slot, extent, body, slots, threads](Regs r) {
          ThreadPool& pool = default_thread_pool();
          const std::size_t max_chunks =
              threads == 0 ? pool.num_threads()
                           : static_cast<std::size_t>(threads);
          pool.parallel_for_chunks(
              static_cast<std::size_t>(extent), max_chunks,
              [&](std::size_t begin, std::size_t end) {
                // Private register-file copy per chunk: outer loop indices
                // stay visible, inner loop slots never race. (Nested
                // dispatch from a worker runs inline via the pool.)
                with_registers(r, slots, [&](Regs local) {
                  for (std::size_t i = begin; i < end; ++i) {
                    local[slot] = static_cast<std::int64_t>(i);
                    body(local);
                  }
                });
              });
        };
      }
      return [slot, extent, body](Regs r) {
        for (std::int64_t i = 0; i < extent; ++i) {
          r[slot] = i;
          body(r);
        }
      };
    }
    case StmtKind::kStore:
      return compile_store(static_cast<const StoreNode*>(stmt));
    case StmtKind::kSeq: {
      const auto* node = static_cast<const SeqNode*>(stmt);
      std::vector<FStmt> children;
      children.reserve(node->stmts.size());
      for (const Stmt& child : node->stmts) {
        children.push_back(compile_stmt(child.get()));
      }
      return [children](Regs r) {
        for (const FStmt& child : children) child(r);
      };
    }
    case StmtKind::kIfThenElse: {
      const auto* node = static_cast<const IfThenElseNode*>(stmt);
      FStmt then_case = compile_stmt(node->then_case.get());
      FStmt else_case;
      if (node->else_case) else_case = compile_stmt(node->else_case.get());
      if (auto guard = fold_guard(node->condition)) {
        return if_stmt(*guard, std::move(then_case), std::move(else_case));
      }
      return if_stmt(compile_index(node->condition.get()),
                     std::move(then_case), std::move(else_case));
    }
    case StmtKind::kRealize: {
      const auto* node = static_cast<const RealizeNode*>(stmt);
      // Intermediates get a compile-time-allocated buffer the program
      // owns; re-zero it on entry each run (the init nest normally
      // overwrites it anyway, but fresh state matches the interpreter).
      auto buffer = std::make_shared<runtime::NDArray>(node->tensor->shape);
      owned.push_back(buffer);
      bind_buffer(node->tensor.get(), buffer.get());
      FStmt body = compile_stmt(node->body.get());
      buffers.pop_back();
      strides.pop_back();
      runtime::NDArray* raw = buffer.get();
      return [raw, body](Regs r) {
        raw->fill(0.0);
        body(r);
      };
    }
  }
  TVMBO_CHECK(false) << "uncompilable statement";
  return {};
}

}  // namespace

CompiledProgram CompiledProgram::compile(
    const Stmt& stmt,
    const std::vector<std::pair<Tensor, runtime::NDArray*>>& bindings,
    const CompileOptions& options) {
  TVMBO_CHECK(stmt != nullptr) << "compile of null statement";
  Compiler compiler;
  for (const auto& [tensor, array] : bindings) {
    TVMBO_CHECK(tensor != nullptr && array != nullptr)
        << "null binding passed to compile";
    compiler.bind_buffer(tensor.get(), array);
  }
  CompiledProgram program;
  // Register count upper bound: loop depth; measure via a pre-pass.
  program.num_registers_ = loop_depth(stmt);
  compiler.scratch_slots = std::max<std::size_t>(1, program.num_registers_);
  compiler.parallel_threads = options.parallel_threads;
  program.entry_ = compiler.compile_stmt(stmt.get());
  program.owned_ = std::move(compiler.owned);
  program.num_strided_loops_ = compiler.strided_nests;
  program.num_strided_levels_ = compiler.strided_levels;
  return program;
}

void CompiledProgram::run() const {
  TVMBO_CHECK(static_cast<bool>(entry_)) << "run of empty program";
  with_registers(nullptr, std::max<std::size_t>(1, num_registers_), entry_);
}

}  // namespace tvmbo::te
