// Closure-compilation backend: must agree exactly with the interpreter on
// every kernel and schedule shape, and be reusable across runs.
#include <gtest/gtest.h>

#include <cstring>
#include <optional>

#include "common/rng.h"
#include "kernels/polybench.h"
#include "kernels/reference.h"
#include "kernels/te_kernels.h"
#include "kernels/te_programs.h"
#include "te/compile.h"
#include "te/interp.h"
#include "te/loop_transform.h"
#include "te/printer.h"

namespace tvmbo::te {
namespace {

using runtime::NDArray;

TEST(Compile, MatmulMatchesInterpreter) {
  kernels::GemmTensors t = kernels::make_gemm(9, 7, 11);
  NDArray a({9, 11}), b({11, 7});
  kernels::init_gemm(a, b);
  Schedule sched = kernels::schedule_gemm(t, 4, 3);
  const Stmt program = lower(sched);

  NDArray via_interp({9, 7});
  Interpreter interp;
  interp.bind(t.A, &a);
  interp.bind(t.B, &b);
  interp.bind(t.C, &via_interp);
  interp.run(program);

  NDArray via_compile({9, 7});
  const CompiledProgram compiled = CompiledProgram::compile(
      program, {{t.A, &a}, {t.B, &b}, {t.C, &via_compile}});
  compiled.run();
  EXPECT_TRUE(via_compile.allclose(via_interp, 0.0));  // bit-identical
}

TEST(Compile, ThreeMmWithRealizeMatchesReference) {
  const std::int64_t n = 6, l = 7, m = 8, o = 5, p = 4;
  kernels::ThreeMmTensors t = kernels::make_3mm(n, l, m, o, p);
  NDArray a({n, l}), b({l, m}), c({m, o}), d({o, p});
  kernels::init_3mm(a, b, c, d);
  NDArray e({n, m}), f({m, p}), expected({n, p});
  kernels::ref_3mm(a, b, c, d, e, f, expected);

  const std::int64_t tiles[6] = {3, 5, 7, 3, 2, 3};
  Schedule sched = kernels::schedule_3mm(t, tiles);
  const Stmt program = lower(sched);
  NDArray g({n, p});
  const CompiledProgram compiled = CompiledProgram::compile(
      program, {{t.A, &a}, {t.B, &b}, {t.C, &c}, {t.D, &d}, {t.G, &g}});
  compiled.run();
  EXPECT_TRUE(g.allclose(expected, 1e-10));
}

TEST(Compile, CompiledProgramIsReusable) {
  kernels::GemmTensors t = kernels::make_gemm(6, 6, 6);
  NDArray a({6, 6}), b({6, 6}), c({6, 6});
  kernels::init_gemm(a, b);
  Schedule sched = kernels::schedule_gemm(t, 2, 3);
  const CompiledProgram compiled = CompiledProgram::compile(
      lower(sched), {{t.A, &a}, {t.B, &b}, {t.C, &c}});
  compiled.run();
  const NDArray first = c;
  // Mutate an input; the second run must see the new values (the program
  // binds buffers, not snapshots).
  a.fill(1.0);
  compiled.run();
  EXPECT_FALSE(c.allclose(first, 1e-12));
  NDArray expected({6, 6});
  kernels::ref_matmul(a, b, expected);
  EXPECT_TRUE(c.allclose(expected, 1e-12));
}

TEST(Compile, LuProgramWithGuardsMatchesReference) {
  const std::int64_t n = 12;
  Tensor a = placeholder({n, n}, "A");
  kernels::FactorizationProgram lu = kernels::build_lu(a, n);
  // Tile the update at the IR level first — exercises guards + splits.
  Var io, ii, jo, ji;
  Stmt tiled = split_loop(lu.stmt, lu.update_i, 5, &io, &ii);
  tiled = split_loop(tiled, lu.update_j, 3, &jo, &ji);
  tiled = interchange_loops(tiled, ii, jo);

  NDArray work({n, n});
  kernels::init_lu(work);
  NDArray expected = work;
  kernels::ref_lu(expected);

  const CompiledProgram compiled =
      CompiledProgram::compile(tiled, {{a, &work}});
  compiled.run();
  EXPECT_TRUE(work.allclose(expected, 1e-10));
}

TEST(Compile, CholeskyUsesSqrtClosure) {
  const std::int64_t n = 10;
  Tensor a = placeholder({n, n}, "A");
  const Stmt program = kernels::build_cholesky_program(a, n);
  NDArray work({n, n});
  kernels::init_spd(work);
  NDArray expected = work;
  kernels::ref_cholesky(expected);
  const CompiledProgram compiled =
      CompiledProgram::compile(program, {{a, &work}});
  compiled.run();
  for (std::int64_t i = 0; i < n; ++i)
    for (std::int64_t j = 0; j <= i; ++j)
      EXPECT_NEAR(work.at2(i, j), expected.at2(i, j), 1e-10);
}

TEST(Compile, SyrkSelectPipelineMatchesReference) {
  const std::int64_t n = 8, m = 6;
  kernels::SyrkTensors t = kernels::make_syrk(n, m, 2.0, 3.0);
  NDArray a({n, m}), cin({n, n});
  kernels::init_syrk(a, cin);
  NDArray expected = cin;
  kernels::ref_syrk(a, expected, 2.0, 3.0);
  Schedule sched = kernels::schedule_syrk(t, 4, 2);
  NDArray out({n, n});
  const CompiledProgram compiled = CompiledProgram::compile(
      lower(sched), {{t.A, &a}, {t.Cin, &cin}, {t.Cout, &out}});
  compiled.run();
  EXPECT_TRUE(out.allclose(expected, 1e-10));
}

TEST(Compile, UnboundTensorThrows) {
  kernels::GemmTensors t = kernels::make_gemm(4, 4, 4);
  Schedule sched = kernels::schedule_gemm(t, 2, 2);
  NDArray a({4, 4}), c({4, 4});
  EXPECT_THROW(
      CompiledProgram::compile(lower(sched), {{t.A, &a}, {t.C, &c}}),
      CheckError);
}

TEST(Compile, Float32BufferRejected) {
  Tensor a = placeholder({4}, "A");
  Var i = make_var("i");
  Stmt program = make_for(i, 4, ForKind::kSerial,
                          make_store(a, {i}, make_float(1.0)));
  NDArray f32({4}, runtime::DType::kFloat32);
  EXPECT_THROW(CompiledProgram::compile(program, {{a, &f32}}), CheckError);
}

TEST(Compile, RegisterCountEqualsLoopDepth) {
  kernels::GemmTensors t = kernels::make_gemm(8, 8, 8);
  Schedule sched = kernels::schedule_gemm(t, 4, 2);
  NDArray a({8, 8}), b({8, 8}), c({8, 8});
  const CompiledProgram compiled = CompiledProgram::compile(
      lower(sched), {{t.A, &a}, {t.B, &b}, {t.C, &c}});
  EXPECT_EQ(compiled.num_registers(), 5u);  // yo,xo,k,yi,xi nest
}

class CompileVsInterpSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(CompileVsInterpSweep, BitIdenticalAcrossTilePairs) {
  const auto [ty, tx] = GetParam();
  kernels::GemmTensors t = kernels::make_gemm(12, 10, 7);
  NDArray a({12, 7}), b({7, 10});
  kernels::init_gemm(a, b);
  Schedule sched = kernels::schedule_gemm(t, ty, tx);
  const Stmt program = lower(sched);

  NDArray via_interp({12, 10});
  Interpreter interp;
  interp.bind(t.A, &a);
  interp.bind(t.B, &b);
  interp.bind(t.C, &via_interp);
  interp.run(program);

  NDArray via_compile({12, 10});
  CompiledProgram::compile(program,
                           {{t.A, &a}, {t.B, &b}, {t.C, &via_compile}})
      .run();
  EXPECT_TRUE(via_compile.allclose(via_interp, 0.0))
      << "ty=" << ty << " tx=" << tx;
}

INSTANTIATE_TEST_SUITE_P(
    Tiles, CompileVsInterpSweep,
    ::testing::Values(std::pair<int, int>{1, 1}, std::pair<int, int>{3, 4},
                      std::pair<int, int>{5, 3},
                      std::pair<int, int>{12, 10},
                      std::pair<int, int>{7, 7}));


// --- affine folding ---------------------------------------------------------
// Hand-built IR exercising each shape the closure compiler folds into one
// `c + Σ k·r[slot]` node (and each shape it leaves to closures); every case
// must stay byte-identical to the interpreter.

Expr imm(std::int64_t value) { return make_int(value); }

/// Deterministic, non-trivial contents (distinct values, mixed signs).
NDArray filled(std::vector<std::int64_t> shape, double seed) {
  NDArray array(std::move(shape));
  std::span<double> data = array.f64();
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = seed + 0.37 * static_cast<double>(i % 11) -
              1.0 / static_cast<double>(i + 3);
  }
  return array;
}

/// The compiled program's strided nests and the loop levels they run.
struct StridedCounts {
  std::size_t nests = 0;
  std::size_t levels = 0;
  bool operator==(const StridedCounts&) const = default;
};

std::ostream& operator<<(std::ostream& os, const StridedCounts& counts) {
  return os << counts.nests << " nests of " << counts.levels << " levels";
}

/// Runs `program` on the interpreter and on the closure compiler, each
/// from its own copy of `arrays`, and expects every buffer memcmp-equal.
StridedCounts expect_bit_identical(
    const Stmt& program, const std::vector<std::pair<Tensor, NDArray>>& arrays,
    const CompileOptions& options = {}) {
  std::vector<NDArray> via_interp, via_compile;
  for (const auto& [tensor, array] : arrays) {
    via_interp.push_back(array);
    via_compile.push_back(array);
  }
  Interpreter interp;
  std::vector<std::pair<Tensor, NDArray*>> bindings;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    interp.bind(arrays[i].first, &via_interp[i]);
    bindings.emplace_back(arrays[i].first, &via_compile[i]);
  }
  interp.run(program);
  const CompiledProgram compiled =
      CompiledProgram::compile(program, bindings, options);
  compiled.run();
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const std::span<const double> a = via_interp[i].f64();
    const std::span<const double> b = via_compile[i].f64();
    EXPECT_EQ(a.size(), b.size());
    if (a.size() != b.size()) continue;
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "buffer " << arrays[i].first->name;
  }
  return {compiled.num_strided_loops(), compiled.num_strided_levels()};
}

TEST(Compile, AffineCancellingCoefficients) {
  Tensor a = placeholder({6, 5}, "A");
  Tensor o = placeholder({6, 5}, "O");
  Var i = make_var("i"), k = make_var("k");
  // i - i + k folds to the single term k; (i - i) alone folds to 0.
  Expr cancelled = i - i + k;
  Stmt body = make_if(
      lt(i - i + k, imm(3)),
      make_store(o, {i + k - k, cancelled},
                 access(a, {(i - i) + i, k * imm(2) - k - k + cancelled}) *
                     make_float(2.0)),
      make_store(o, {i, k}, access(a, {i, k}) - access(o, {i, k})));
  Stmt program = make_for(i, 6, ForKind::kSerial,
                          make_for(k, 5, ForKind::kSerial, body));
  expect_bit_identical(program, {{a, filled({6, 5}, 0.5)},
                                 {o, filled({6, 5}, -1.25)}});
}

TEST(Compile, AffineConstantTimesExpressionEitherSide) {
  Tensor a = placeholder({6, 5}, "A");
  Tensor o = placeholder({12, 15}, "O");
  Var i = make_var("i"), j = make_var("j");
  // 2 * (i + 1) - 2 == 2i and (j + 1) * 3 - 3 == 3j; the read's first
  // index is (i + 2) * 2 - 2 * (i + 2) + i == i.
  Stmt body = make_store(
      o, {imm(2) * (i + imm(1)) - imm(2), (j + imm(1)) * imm(3) - imm(3)},
      access(a, {(i + imm(2)) * imm(2) - imm(2) * (i + imm(2)) + i, j}) +
          access(a, {imm(5) - imm(1) * i - imm(0) + i - imm(5) + i,
                     imm(4) - j}));
  Stmt program = make_for(i, 6, ForKind::kSerial,
                          make_for(j, 5, ForKind::kSerial, body));
  expect_bit_identical(program, {{a, filled({6, 5}, 0.75)},
                                 {o, filled({12, 15}, 0.0)}});
}

TEST(Compile, AffineVarTimesVarFallsBackToClosures) {
  Tensor a = placeholder({64}, "A");
  Tensor o = placeholder({6, 5}, "O");
  Var i = make_var("i"), j = make_var("j");
  // i * j is not affine: the index keeps closures, and its affine
  // neighbours (+ 2i + 1) re-enter the folded path as operands.
  Stmt body = make_store(
      o, {i, j},
      access(a, {i * j + imm(2) * i + imm(1)}) * access(a, {j * (i + imm(1))}) +
          i * j);
  Stmt program = make_for(i, 6, ForKind::kSerial,
                          make_for(j, 5, ForKind::kSerial, body));
  expect_bit_identical(program, {{a, filled({64}, 1.5)},
                                 {o, filled({6, 5}, 0.0)}});
}

TEST(Compile, AffineFusedAxisFallsBackToClosures) {
  Tensor a = placeholder({6, 5}, "A");
  Tensor o = placeholder({6, 5}, "O");
  Var f = make_var("f");
  // A fused 6x5 axis indexes with floordiv/mod (plus min/max/select),
  // whose operands are affine again.
  Expr row = floor_div(f + imm(1) - imm(1), imm(5));
  Expr col = floor_mod(imm(2) * f - f, imm(5));
  Expr clamped = min_expr(max_expr(f - imm(3), imm(0)), imm(29));
  Expr picked = select(lt(f, imm(15)), clamped, f);
  Stmt body = make_store(
      o, {row, col},
      access(a, {floor_div(picked, imm(5)), floor_mod(picked, imm(5))}) +
          access(a, {row, col}));
  Stmt program = make_for(f, 30, ForKind::kSerial, body);
  expect_bit_identical(program, {{a, filled({6, 5}, -0.5)},
                                 {o, filled({6, 5}, 0.0)}});
}

TEST(Compile, AffineFoldedGuardsEveryCmpOp) {
  for (CmpOp op : {CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe,
                   CmpOp::kEq, CmpOp::kNe}) {
    SCOPED_TRACE(static_cast<int>(op));
    Tensor a = placeholder({6, 5}, "A");
    Tensor o = placeholder({6, 5}, "O");
    Var i = make_var("i"), j = make_var("j");
    // Folded: 2i - 1 OP j + i - 3. Non-affine side: (i*j) / 2 OP j.
    // Value context: the compare's 0/1 as a float.
    Expr folded = compare(op, imm(2) * i - imm(1), j + i - imm(3));
    Expr unfolded = compare(op, floor_div(i * j, imm(2)), j);
    Stmt body = make_if(
        logical_and(folded, ne(unfolded, imm(2))),
        make_store(o, {i, j},
                   access(a, {i, j}) + compare(op, j, imm(2))),
        make_store(o, {i, j},
                   select(unfolded, neg(access(a, {i, j})), make_float(0.5))));
    Stmt program = make_for(i, 6, ForKind::kSerial,
                            make_for(j, 5, ForKind::kSerial, body));
    expect_bit_identical(program, {{a, filled({6, 5}, 0.25)},
                                   {o, filled({6, 5}, 9.0)}});
  }
}

TEST(Compile, AffineReadModifyWriteStores) {
  for (BinaryOp op : {BinaryOp::kAdd, BinaryOp::kSub, BinaryOp::kMul,
                      BinaryOp::kDiv, BinaryOp::kMin, BinaryOp::kMax}) {
    SCOPED_TRACE(static_cast<int>(op));
    Tensor a = placeholder({6, 5}, "A");
    Tensor o = placeholder({6, 5}, "O");
    Tensor p = placeholder({7}, "P");
    Var i = make_var("i"), j = make_var("j");
    // O[i, j] = O[j - j + i, j] op A[i, j]: one offset, spelled twice.
    // P[i + 1] = P[i] op A[i, 0]: different offsets, a carried chain.
    Stmt rmw = make_store(o, {i, j},
                          binary(op, access(o, {j - j + i, j}),
                                 access(a, {i, j})));
    Stmt shifted = make_store(
        p, {i + imm(1)}, binary(op, access(p, {i}), access(a, {i, imm(0)})));
    Stmt program = make_for(
        i, 6, ForKind::kSerial,
        make_seq({make_for(j, 5, ForKind::kSerial, rmw), shifted}));
    expect_bit_identical(program, {{a, filled({6, 5}, 1.75)},
                                   {o, filled({6, 5}, -0.75)},
                                   {p, filled({7}, 0.5)}});
  }
}

TEST(Compile, AffineLongFormsSpanEveryEvaluator) {
  // 18 nested loops: the store offset has 18 terms (split past the fixed
  // array twice), the read's 5 terms (the extent-2 loops) use the fixed
  // array, and the register file is deeper than the stack copy.
  const int depth = 18;
  std::vector<Var> vars;
  std::vector<std::int64_t> extents;
  for (int d = 0; d < depth; ++d) {
    vars.push_back(make_var("v" + std::to_string(d)));
    extents.push_back(d < 3 || d >= depth - 2 ? 2 : 1);
  }
  Tensor a = placeholder({8}, "A");
  Tensor o = placeholder({64}, "O");
  Expr flat = imm(0), partial = imm(0);
  std::int64_t stride = 1;
  for (int d = depth - 1; d >= 0; --d) {
    flat = flat + vars[d] * imm(extents[d] == 2 ? stride : 3);
    if (extents[d] == 2) stride *= 2;
    if (extents[d] == 2) partial = partial + vars[d];
  }
  // Extent-1 loops contribute 3 * 0; the flat index stays within 0..31.
  // The sum reads O second, so the store is no strided shape and keeps
  // the per-access evaluators.
  Stmt program = make_store(o, {flat},
                            access(a, {partial}) + access(o, {flat}));
  for (int d = depth - 1; d >= 0; --d) {
    program = make_for(vars[d], extents[d], ForKind::kSerial, program);
  }
  EXPECT_EQ(expect_bit_identical(program, {{a, filled({8}, 2.0)},
                                           {o, filled({64}, 0.0)}}),
            (StridedCounts{0, 0}));
  EXPECT_GT(loop_depth(program), 16u);
}

TEST(Compile, AffineParallelLoopPrivateRegisters) {
  const std::int64_t n = 16, m = 12, l = 9;
  Tensor a = placeholder({n, l}, "A");
  Tensor b = placeholder({l, m}, "B");
  Tensor c = placeholder({2, n, m}, "C");
  Var t = make_var("t"), i = make_var("i"), j = make_var("j"),
      k = make_var("k");
  // Each chunk of the parallel row loop copies the register file: the
  // outer t must be visible in it (C[t, i, j] is a 3-term offset), and
  // the inner j/k slots must stay private per chunk.
  Stmt init = make_for(j, m, ForKind::kSerial,
                       make_store(c, {t, i, j}, make_float(0.0)));
  Stmt update = make_for(
      k, l, ForKind::kSerial,
      make_for(j, m, ForKind::kSerial,
               make_if(le(j, i + t + imm(2)),
                       make_store(c, {t, i, j},
                                  access(c, {t, i, j}) +
                                      access(a, {i, k}) * access(b, {k, j})))));
  Stmt program = make_for(
      t, 2, ForKind::kSerial,
      make_for(i, n, ForKind::kParallel, make_seq({init, update})));
  CompileOptions options;
  options.parallel_threads = 4;
  expect_bit_identical(program,
                       {{a, filled({n, l}, 0.5)},
                        {b, filled({l, m}, -0.25)},
                        {c, filled({2, n, m}, 3.0)}},
                       options);
}


// --- strided loop nests ------------------------------------------------------
// A perfect chain of serial loops over one store (optionally under affine
// guards without else) runs as one nest that steps each access's offset
// through every level; each guard conjunct narrows the level of the
// deepest index it mentions. Every case must stay byte-identical to the
// interpreter and must actually take that path.

/// The strided store shapes, over the nest u in [0,2), v in [0,3),
/// i in [0,5) and j in [0,7). Offsets mix positive, negative and zero
/// coefficients of j.
std::vector<std::pair<std::string, Stmt>> strided_shapes(
    const Tensor& o, const Tensor& a, const Tensor& b, const Var& u,
    const Var& v, const Var& i, const Var& j) {
  return {
      {"const", make_store(o, {u, v, i, j + imm(1)}, make_float(2.5))},
      {"int const", make_store(o, {u, v, i, imm(8) - j}, imm(-3))},
      {"copy", make_store(o, {u, v, i, imm(8) - j},
                          access(a, {i + v, imm(6) - j}))},
      {"rmw load",
       make_store(o, {u, v, i, j},
                  access(o, {u, v, i, j}) /
                      access(a, {i + v, j - j + imm(2)}))},
      {"rmw product",
       make_store(o, {u, v, i, imm(2) * j - j},
                  access(o, {u, v, i, j}) -
                      access(a, {i, j}) * access(b, {imm(6) - j, v}))},
      // Destination step 0: each iteration reads the previous one's sum.
      {"reduction",
       make_store(o, {u, v, i, imm(0)},
                  access(o, {u, v, i, imm(0)}) +
                      access(a, {i, j}) * access(b, {j, v}))},
      // A negative stride over elements the loop itself writes.
      {"rmw reversed",
       make_store(o, {u, v, i, imm(8) - j},
                  access(o, {u, v, i, imm(8) - j}) *
                      access(o, {u, v, i, j}))},
  };
}

TEST(Compile, StridedShapesUnderGuards) {
  Tensor o = placeholder({2, 3, 5, 9}, "O");
  Tensor a = placeholder({8, 7}, "A");
  Tensor b = placeholder({7, 3}, "B");
  Var u = make_var("u"), v = make_var("v"), i = make_var("i"),
      j = make_var("j");
  const std::vector<std::pair<std::string, Expr>> guards = {
      {"none", Expr()},
      // c > 0: j - i + 1 >= 0.
      {"one conjunct", gt(j, i - imm(2))},
      // 3j - 4 >= 0 (lo = 2) and 10 - i - 2j >= 0 (hi by floor division).
      {"two conjuncts",
       logical_and(ge(j * imm(3), imm(4)), lt(j * imm(2) + i, imm(11)))},
      // A j-free conjunct (c = 0) empties the i = 0 entries.
      {"three conjuncts",
       logical_and(ge(i, imm(1)), logical_and(le(j, u + v + imm(2)),
                                              ge(j + v, imm(1))))},
      // The last conjunct has four terms: i + 2v + 3 - j - u >= 0.
      {"four conjuncts",
       logical_and(logical_and(ge(j, imm(1)), le(j, imm(5))),
                   logical_and(le(j + u, i + v * imm(2) + imm(3)),
                               gt(i * imm(2) + imm(7), j)))},
      // Two conjuncts from one equality; empty when i + v is odd.
      {"equality", eq(j * imm(2), i + v)},
  };
  for (const auto& [guard_name, guard] : guards) {
    for (const auto& [shape_name, store] :
         strided_shapes(o, a, b, u, v, i, j)) {
      SCOPED_TRACE(shape_name + " / " + guard_name);
      Stmt body = guard ? make_if(guard, store) : store;
      Stmt program = make_for(
          u, 2, ForKind::kSerial,
          make_for(v, 3, ForKind::kSerial,
                   make_for(i, 5, ForKind::kSerial,
                            make_for(j, 7, ForKind::kSerial, body))));
      EXPECT_EQ(expect_bit_identical(program,
                                     {{o, filled({2, 3, 5, 9}, -0.5)},
                                      {a, filled({8, 7}, 1.25)},
                                      {b, filled({7, 3}, 0.75)}}),
                (StridedCounts{1, 4}));
    }
  }
}

TEST(Compile, StridedGuardsThatNeverPass) {
  Tensor o = placeholder({4, 6}, "O");
  Tensor a = placeholder({4, 6}, "A");
  Var i = make_var("i"), j = make_var("j");
  Stmt store = make_store(o, {i, j}, access(o, {i, j}) + access(a, {i, j}));
  for (const Expr& guard :
       {lt(j, imm(0)),                             // hi = 0
        gt(i, imm(7)),                             // c = 0, h0 < 0
        gt(j - j, imm(0)),                         // cancels to -1 >= 0
        logical_and(gt(j, imm(3)), lt(j, imm(4))),  // lo = hi = 4
        logical_and(ge(j, i + imm(4)), le(j, i))}) {  // lo > hi
    SCOPED_TRACE(to_string(guard));
    Stmt program = make_for(i, 4, ForKind::kSerial,
                            make_for(j, 6, ForKind::kSerial,
                                     make_if(guard, store)));
    EXPECT_EQ(expect_bit_identical(program, {{o, filled({4, 6}, 0.5)},
                                             {a, filled({4, 6}, 1.5)}}),
              (StridedCounts{1, 2}));
  }
}

TEST(Compile, StridedAliasedLuUpdates) {
  // Unguarded lu: the pivot scale A[i,k] /= A[k,k] overwrites the divisor
  // itself at i = k, and the update A[i,j] -= A[i,k]*A[k,j] overwrites
  // A[i,k] at j = k and row k at i = k. Later iterations must read what
  // the earlier ones stored, as the interpreter does.
  const std::int64_t n = 6;
  Tensor m = placeholder({n, n}, "A");
  Var k = make_var("k"), i = make_var("i"), j = make_var("j");
  Stmt scale = make_for(
      i, n, ForKind::kSerial,
      make_store(m, {i, k}, access(m, {i, k}) / access(m, {k, k})));
  Stmt update = make_for(
      i, n, ForKind::kSerial,
      make_for(j, n, ForKind::kSerial,
               make_store(m, {i, j},
                          access(m, {i, j}) -
                              access(m, {i, k}) * access(m, {k, j}))));
  Stmt program = make_for(k, n, ForKind::kSerial, make_seq({scale, update}));
  NDArray start = filled({n, n}, 3.0);
  for (std::int64_t d = 0; d < n; ++d) start.f64()[d * (n + 1)] += 10.0;
  EXPECT_EQ(expect_bit_identical(program, {{m, start}}),
            (StridedCounts{2, 3}));
}

TEST(Compile, StridedBodiesInsideParallelChunks) {
  const std::int64_t n = 16, m = 10;
  Tensor c = placeholder({n, m}, "C");
  Tensor a = placeholder({n, m}, "A");
  Var i = make_var("i"), j = make_var("j");
  // The dispatched parallel i loop keeps its chunks; the inner j loops
  // run strided on each chunk's private register file.
  Stmt body = make_seq(
      {make_for(j, m, ForKind::kSerial, make_store(c, {i, j}, imm(0))),
       make_for(j, m, ForKind::kSerial,
                make_if(logical_and(le(j, i), ge(j + i, imm(3))),
                        make_store(c, {i, j},
                                   access(c, {i, j}) +
                                       access(a, {i, j}) *
                                           access(a, {i, imm(m - 1) - j}))))});
  Stmt program = make_for(i, n, ForKind::kParallel, body);
  CompileOptions options;
  options.parallel_threads = 4;
  EXPECT_EQ(expect_bit_identical(program,
                                 {{c, filled({n, m}, 0.0)},
                                  {a, filled({n, m}, 0.5)}},
                                 options),
            (StridedCounts{2, 2}));
  // A dispatched parallel loop whose body is a store keeps its chunks.
  Stmt flat = make_for(i, n, ForKind::kParallel,
                       make_store(c, {i, imm(0)}, access(a, {i, imm(1)})));
  EXPECT_EQ(expect_bit_identical(flat,
                                 {{c, filled({n, m}, 0.0)},
                                  {a, filled({n, m}, 0.5)}},
                                 options),
            (StridedCounts{0, 0}));
  // Undispatched (one thread), the same loop is strided.
  EXPECT_EQ(expect_bit_identical(flat, {{c, filled({n, m}, 0.0)},
                                        {a, filled({n, m}, 0.5)}}),
            (StridedCounts{1, 1}));
}

TEST(Compile, StridedThroughExtentOneLoops) {
  // A split by 1 leaves extent-1 loops inside a nest; their index is
  // always 0, so they are no level of it.
  Tensor o = placeholder({5, 8}, "O");
  Tensor a = placeholder({5, 8}, "A");
  Var i = make_var("i"), p = make_var("p"), j = make_var("j"),
      q = make_var("q");
  Stmt store = make_if(
      logical_and(gt(i + p, imm(1)), le(j * imm(2) + q, i + imm(8))),
      make_store(o, {i + p, j + q},
                 access(o, {i + p, j + q}) -
                     access(a, {i, j + p}) * access(a, {p + q, j})));
  Stmt inner = make_for(j, 8, ForKind::kSerial,
                        make_for(q, 1, ForKind::kSerial, store));
  // A closure nest first leaves non-zero values in the same four
  // registers, which the strided nest must not read for p and q.
  Var w = make_var("w"), x = make_var("x"), y = make_var("y"),
      z = make_var("z");
  Stmt nest = make_for(
      w, 2, ForKind::kSerial,
      make_for(x, 2, ForKind::kSerial,
               make_for(y, 2, ForKind::kSerial,
                        make_for(z, 3, ForKind::kSerial,
                                 make_store(o, {w + x, y + z},
                                            access(a, {w, z}) *
                                                make_float(2.0))))));
  for (ForKind kind : {ForKind::kSerial, ForKind::kParallel}) {
    Stmt program = make_seq(
        {nest, make_for(i, 5, ForKind::kSerial, make_for(p, 1, kind, inner))});
    EXPECT_EQ(expect_bit_identical(program, {{o, filled({5, 8}, 0.5)},
                                             {a, filled({5, 8}, -1.5)}}),
              (StridedCounts{1, 2}));
  }
}

TEST(Compile, StridedFormSkipsOtherShapes) {
  Tensor o = placeholder({6}, "O");
  Tensor a = placeholder({6}, "A");
  Var i = make_var("i");
  Stmt store = make_store(o, {i}, access(o, {i}) + access(a, {i}));
  for (const Stmt& body :
       {make_if(lt(i, imm(3)), store,
                make_store(o, {i}, make_float(1.0))),          // else branch
        make_if(ne(i, imm(2)), store),                         // != guard
        make_store(o, {i}, access(a, {i}) + access(o, {i})),   // not RMW
        make_store(o, {i}, access(o, {i}) + access(a, {i}) *
                                              make_float(2.0)),
        make_store(o, {i}, sqrt_expr(access(a, {i}))),
        make_store(o, {floor_mod(i + imm(1), imm(6))}, access(a, {i})),
        make_seq({store, store})}) {
    SCOPED_TRACE(to_string(body));
    EXPECT_EQ(expect_bit_identical(make_for(i, 6, ForKind::kSerial, body),
                                   {{o, filled({6}, 0.5)},
                                    {a, filled({6}, -2.0)}}),
              (StridedCounts{0, 0}));
  }
}

/// Runs a kernel's program for `tiles` through expect_bit_identical.
StridedCounts expect_kernel_bit_identical(
    const std::string& kernel, const std::vector<std::int64_t>& tiles) {
  SCOPED_TRACE(kernel + " " + ::testing::PrintToString(tiles));
  const auto data = kernels::make_te_kernel_data(
      kernel, kernels::polybench_dims(kernel, kernels::Dataset::kMini));
  kernels::TeProgramInstance instance(data, tiles);
  std::vector<std::pair<Tensor, NDArray>> arrays;
  for (const auto& [tensor, array] : instance.bindings()) {
    arrays.emplace_back(tensor, *array);
  }
  return expect_bit_identical(instance.stmt(), arrays);
}

TEST(Compile, StridedNestLuDecidesRowGuardOutside) {
  // lu's update guard i2 > k && j > k: the i2 conjunct narrows an i2 level
  // above the j levels, and small inner tiles make many short inner loops.
  // Each case is the pivot scale (1 level) plus the update nest.
  EXPECT_EQ(expect_kernel_bit_identical("lu", {1, 2}), (StridedCounts{2, 4}));
  EXPECT_EQ(expect_kernel_bit_identical("lu", {2, 1}), (StridedCounts{2, 4}));
  EXPECT_EQ(expect_kernel_bit_identical("lu", {1, 1}), (StridedCounts{2, 3}));
  EXPECT_EQ(expect_kernel_bit_identical("lu", {40, 1}), (StridedCounts{2, 3}));
}

TEST(Compile, StridedNestCholeskyTailGuards) {
  // Tiles {3,7} do not divide N = 40: the i2 < 40 tail guard sits between
  // the i2 and j loops and j < 40 inside them, and i2 > k, j > k, j <= i2
  // follow. Conjuncts on i2 narrow i2.inner; those on j narrow j.inner.
  EXPECT_EQ(expect_kernel_bit_identical("cholesky", {3, 7}),
            (StridedCounts{2, 1 + 4}));
}

TEST(Compile, StridedNestExtentOneMidNest) {
  Tensor o = placeholder({5, 5, 3}, "O");
  Tensor a = placeholder({4, 6}, "A");
  Tensor b = placeholder({5, 3}, "B");
  Var i = make_var("i"), p = make_var("p"), j = make_var("j"),
      q = make_var("q"), r = make_var("r");
  // p and q have extent 1 between the levels i, j and r; the conjunct on
  // p and q alone is decided once at entry.
  Stmt store = make_if(
      logical_and(logical_and(gt(i + p, imm(0)), le(j + q, i + imm(2))),
                  logical_and(lt(r + p, imm(2)), lt(p + q, imm(1)))),
      make_store(o, {i + p, j, r + q},
                 access(o, {i + p, j, r + q}) +
                     access(a, {i, j + p}) * access(b, {j, r})));
  Stmt program = make_for(
      i, 4, ForKind::kSerial,
      make_for(p, 1, ForKind::kSerial,
               make_for(j, 5, ForKind::kSerial,
                        make_for(q, 1, ForKind::kSerial,
                                 make_for(r, 3, ForKind::kSerial, store)))));
  EXPECT_EQ(expect_bit_identical(program, {{o, filled({5, 5, 3}, 0.5)},
                                           {a, filled({4, 6}, -1.5)},
                                           {b, filled({5, 3}, 2.25)}}),
            (StridedCounts{1, 3}));
}

TEST(Compile, StridedNestNegativeOuterStride) {
  Tensor o = placeholder({5, 6}, "O");
  Tensor a = placeholder({5, 6}, "A");
  Tensor b = placeholder({6, 5}, "B");
  Var i = make_var("i"), j = make_var("j");
  // The outer level steps O and A backwards; 3 - i >= 0 lowers its upper
  // bound, and j + i >= 4 raises the inner level's lower bound.
  Stmt program = make_for(
      i, 5, ForKind::kSerial,
      make_for(j, 6, ForKind::kSerial,
               make_if(logical_and(le(i, imm(3)), ge(j + i, imm(4))),
                       make_store(o, {imm(4) - i, imm(5) - j},
                                  access(o, {imm(4) - i, imm(5) - j}) -
                                      access(a, {imm(4) - i, j}) *
                                          access(b, {j, imm(4) - i})))));
  EXPECT_EQ(expect_bit_identical(program, {{o, filled({5, 6}, 1.0)},
                                           {a, filled({5, 6}, 0.25)},
                                           {b, filled({6, 5}, -0.5)}}),
            (StridedCounts{1, 2}));
}

TEST(Compile, StridedNestGuardFailsAtOuterLevel) {
  Tensor o = placeholder({4, 6}, "O");
  Tensor a = placeholder({4, 6}, "A");
  Var t = make_var("t"), i = make_var("i"), j = make_var("j");
  // The nest is entered once per t; each guard empties it on every entry,
  // at the i level or at entry, before any inner level runs.
  for (const Expr& guard :
       {ge(i, t + imm(4)),                                  // lo >= extent
        logical_and(ge(j, imm(1)), lt(i + t, imm(0))),      // hi <= 0
        logical_and(gt(t, imm(5)), ge(j, i))}) {            // at entry
    SCOPED_TRACE(to_string(guard));
    Stmt nest = make_for(
        i, 4, ForKind::kSerial,
        make_for(j, 6, ForKind::kSerial,
                 make_if(guard, make_store(o, {i, j}, access(a, {i, j})))));
    Stmt other = make_for(
        j, 6, ForKind::kSerial,
        make_store(o, {t, j}, access(o, {t, j}) + access(a, {t, j})));
    Stmt program = make_for(t, 3, ForKind::kSerial, make_seq({nest, other}));
    EXPECT_EQ(expect_bit_identical(program, {{o, filled({4, 6}, 0.5)},
                                             {a, filled({4, 6}, 1.5)}}),
              (StridedCounts{2, 3}));
  }
}

TEST(Compile, StridedNestInsideParallelChunk) {
  const std::int64_t n = 16;
  Tensor c = placeholder({n, 15}, "C");
  Tensor a = placeholder({n, 3}, "A");
  Var i = make_var("i"), j = make_var("j"), q = make_var("q");
  // The dispatched parallel i loop keeps its chunks; the j, q nest runs
  // from each chunk's private register file, its guard on the chunk's i.
  Stmt program = make_for(
      i, n, ForKind::kParallel,
      make_for(j, 5, ForKind::kSerial,
               make_for(q, 3, ForKind::kSerial,
                        make_if(le(j * imm(3) + q, i + imm(4)),
                                make_store(c, {i, j * imm(3) + q},
                                           access(c, {i, j * imm(3) + q}) +
                                               access(a, {i, q}) *
                                                   access(a, {j, q}))))));
  CompileOptions options;
  options.parallel_threads = 4;
  EXPECT_EQ(expect_bit_identical(program,
                                 {{c, filled({n, 15}, 0.0)},
                                  {a, filled({n, 3}, 0.5)}},
                                 options),
            (StridedCounts{1, 2}));
}

TEST(Compile, StridedNestDeeperThanLevelCap) {
  // Ten levels of extent 2, two past the cap of 8: the two outer loops
  // stay closures around a nest of the eight inside them.
  const int depth = 10;
  std::vector<Var> vars;
  Expr flat = imm(0);
  for (int d = 0; d < depth; ++d) {
    vars.push_back(make_var("v" + std::to_string(d)));
    flat = flat + vars[d] * imm(std::int64_t{1} << d);
  }
  Tensor o = placeholder({1 << depth}, "O");
  Tensor a = placeholder({2}, "A");
  Stmt program =
      make_store(o, {flat}, access(o, {flat}) * access(a, {vars[0]}));
  for (int d = depth - 1; d >= 0; --d) {
    program = make_for(vars[d], 2, ForKind::kSerial, program);
  }
  EXPECT_EQ(expect_bit_identical(program, {{o, filled({1 << depth}, 0.5)},
                                           {a, filled({2}, -1.25)}}),
            (StridedCounts{1, 8}));
}

TEST(Compile, StridedLoopsInServeKernels) {
  // The loop nests of the serve-mix mini kernels: init nests, the guarded
  // MACs, lu/cholesky's pivot scale and trailing update (cholesky's
  // carries a four-term conjunct). cholesky's sqrt stays a closure.
  // Tiles of 1 leave extent-1 loops, which are no level of their nest:
  // gemm {4,3}'s MAC nest runs its 5 levels, {4,1}'s 4.
  struct Case {
    std::string kernel;
    std::vector<std::int64_t> tiles;
    StridedCounts expected;
  };
  const std::vector<Case> cases = {
      {"gemm", {4, 3}, {2, 2 + 5}},
      {"gemm", {4, 1}, {2, 2 + 4}},
      {"lu", {4, 2}, {2, 1 + 4}},
      {"lu", {1, 1}, {2, 1 + 2}},
      {"cholesky", {4, 2}, {2, 1 + 4}},
      {"3mm", {4, 4, 4, 4, 4, 4}, {6, 3 * (2 + 5)}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.kernel + " " + ::testing::PrintToString(c.tiles));
    const auto data = kernels::make_te_kernel_data(
        c.kernel, kernels::polybench_dims(c.kernel, kernels::Dataset::kMini));
    kernels::TeProgramInstance instance(data, c.tiles);
    const CompiledProgram compiled =
        CompiledProgram::compile(instance.stmt(), instance.bindings());
    EXPECT_EQ((StridedCounts{compiled.num_strided_loops(),
                             compiled.num_strided_levels()}),
              c.expected);
  }
}

/// Loops of extent > 1 in the perfect chain from `stmt` down (loops and
/// else-less guards, then one store), or nullopt when it ends elsewhere.
std::optional<std::size_t> chain_levels(const StmtNode* stmt) {
  switch (stmt->kind()) {
    case StmtKind::kStore:
      return 0;
    case StmtKind::kFor: {
      const auto* node = static_cast<const ForNode*>(stmt);
      const std::optional<std::size_t> inner = chain_levels(node->body.get());
      if (!inner) return std::nullopt;
      return *inner + (node->extent > 1 ? 1 : 0);
    }
    case StmtKind::kIfThenElse: {
      const auto* node = static_cast<const IfThenElseNode*>(stmt);
      if (node->else_case) return std::nullopt;
      return chain_levels(node->then_case.get());
    }
    default:
      return std::nullopt;
  }
}

/// chain_levels summed over the outermost chains in `stmt`.
std::size_t nest_levels(const StmtNode* stmt) {
  switch (stmt->kind()) {
    case StmtKind::kFor: {
      if (const std::optional<std::size_t> levels = chain_levels(stmt)) {
        return *levels;
      }
      return nest_levels(static_cast<const ForNode*>(stmt)->body.get());
    }
    case StmtKind::kSeq: {
      std::size_t levels = 0;
      for (const Stmt& child : static_cast<const SeqNode*>(stmt)->stmts) {
        levels += nest_levels(child.get());
      }
      return levels;
    }
    case StmtKind::kIfThenElse: {
      const auto* node = static_cast<const IfThenElseNode*>(stmt);
      return nest_levels(node->then_case.get()) +
             (node->else_case ? nest_levels(node->else_case.get()) : 0);
    }
    case StmtKind::kRealize:
      return nest_levels(static_cast<const RealizeNode*>(stmt)->body.get());
    default:
      return 0;
  }
}

class CompileServeMixSweep : public ::testing::TestWithParam<std::string> {};

TEST_P(CompileServeMixSweep, ClosureBitIdenticalToInterpreter) {
  // 200 sampled configs of the kernel's mini space (the serve-mix
  // workload's); each distinct config runs once per tier. Every loop chain
  // of these kernels — the update/MAC nest among them — must run as one
  // strided nest of all its non-unit loops (cholesky's sqrt chain, the one
  // store of no strided shape, has none).
  const std::string kernel = GetParam();
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims(kernel, kernels::Dataset::kMini);
  const cs::ConfigurationSpace space = kernels::build_space(kernel, dims);
  const auto data = kernels::make_te_kernel_data(kernel, dims);
  Rng rng(19);
  std::vector<std::vector<std::int64_t>> configs;
  for (int trial = 0; trial < 200; ++trial) {
    configs.push_back(space.values_int(space.sample(rng)));
  }
  std::sort(configs.begin(), configs.end());
  configs.erase(std::unique(configs.begin(), configs.end()), configs.end());
  for (const std::vector<std::int64_t>& tiles : configs) {
    kernels::TeProgramInstance instance(data, tiles);
    EXPECT_EQ(CompiledProgram::compile(instance.stmt(), instance.bindings())
                  .num_strided_levels(),
              nest_levels(instance.stmt().get()))
        << kernel << " tiles " << ::testing::PrintToString(tiles);
    const NDArray oracle =
        kernels::run_te_backend(data, tiles, runtime::ExecBackend::kInterp);
    const NDArray closure =
        kernels::run_te_backend(data, tiles, runtime::ExecBackend::kClosure);
    const std::span<const double> a = oracle.f64();
    const std::span<const double> b = closure.f64();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << kernel << " tiles " << ::testing::PrintToString(tiles);
  }
}

INSTANTIATE_TEST_SUITE_P(ServeMix, CompileServeMixSweep,
                         ::testing::Values("gemm", "lu", "cholesky", "3mm"));

}  // namespace
}  // namespace tvmbo::te
