// Closure-compilation backend: must agree exactly with the interpreter on
// every kernel and schedule shape, and be reusable across runs.
#include <gtest/gtest.h>

#include <cstring>

#include "kernels/reference.h"
#include "kernels/te_kernels.h"
#include "te/compile.h"
#include "te/interp.h"
#include "te/loop_transform.h"

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

/// Runs `program` on the interpreter and on the closure compiler, each
/// from its own copy of `arrays`, and expects every buffer memcmp-equal.
void expect_bit_identical(const Stmt& program,
                          const std::vector<std::pair<Tensor, NDArray>>& arrays,
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
  CompiledProgram::compile(program, bindings, options).run();
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const std::span<const double> a = via_interp[i].f64();
    const std::span<const double> b = via_compile[i].f64();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0)
        << "buffer " << arrays[i].first->name;
  }
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
  Stmt program = make_store(o, {flat},
                            access(o, {flat}) + access(a, {partial}));
  for (int d = depth - 1; d >= 0; --d) {
    program = make_for(vars[d], extents[d], ForKind::kSerial, program);
  }
  expect_bit_identical(program, {{a, filled({8}, 2.0)},
                                 {o, filled({64}, 0.0)}});
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

}  // namespace
}  // namespace tvmbo::te
