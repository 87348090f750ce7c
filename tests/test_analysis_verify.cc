// Adversarial suite for the loop-IR static analysis subsystem
// (src/analysis/): each structural rule is violated on purpose and must
// come back with its exact rule id; the race prover must admit every
// shipped parallel kernel schedule and reject hand-built racy loops; the
// bounds prover must use guard constraints; the config pre-screener must
// reject armed fault configs without spending a device; and a fuzz round
// checks analyzer-accepted random configs agree bit-for-bit across the
// execution tiers.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/config_screen.h"
#include "analysis/dependence.h"
#include "analysis/verify.h"
#include "codegen/jit_program.h"
#include "common/logging.h"
#include "common/rng.h"
#include "distd/fault_kernels.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "kernels/te_programs.h"
#include "runtime/cpu_device.h"
#include "runtime/measure_runner.h"
#include "runtime/trace_log.h"
#include "te/expr.h"
#include "te/ir.h"
#include "te/loop_transform.h"
#include "te/lower.h"
#include "te/schedule.h"
#include "te/tensor.h"

namespace tvmbo {
namespace {

using analysis::Violation;

bool has_rule(const std::vector<Violation>& violations,
              const std::string& rule) {
  return std::any_of(violations.begin(), violations.end(),
                     [&](const Violation& v) { return v.rule == rule; });
}

std::string rules_of(const std::vector<Violation>& violations) {
  std::string out;
  for (const Violation& v : violations) {
    if (!out.empty()) out += ", ";
    out += v.rule;
  }
  return out;
}

// --- structural verifier, one deliberate violation per rule ------------------

TEST(AnalysisVerify, UnboundIndexVarIsFlagged) {
  te::Tensor a = te::placeholder({4}, "A");
  te::Var i = te::make_var("i");
  // No loop binds i: the store's index var is free.
  const te::Stmt program =
      te::make_store(a, {te::Expr(i)}, te::make_float(1.0));
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "unbound-var")) << rules_of(violations);
}

TEST(AnalysisVerify, NonpositiveExtentIsFlagged) {
  te::Tensor a = te::placeholder({4}, "A");
  te::Var i = te::make_var("i");
  // make_for refuses extent <= 0, so build the node directly — exactly the
  // malformed IR the verifier exists to catch.
  const te::Stmt store =
      te::make_store(a, {te::Expr(i)}, te::make_float(1.0));
  const te::Stmt program =
      std::make_shared<te::ForNode>(i, 0, te::ForKind::kSerial, store);
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "nonpositive-extent"))
      << rules_of(violations);
}

TEST(AnalysisVerify, DuplicateLoopVarIsFlagged) {
  te::Tensor a = te::placeholder({4}, "A");
  te::Var i = te::make_var("i");
  const te::Stmt store =
      te::make_store(a, {te::Expr(i)}, te::make_float(1.0));
  const te::Stmt inner = te::make_for(i, 4, te::ForKind::kSerial, store);
  const te::Stmt program = te::make_for(i, 4, te::ForKind::kSerial, inner);
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "duplicate-loop-var"))
      << rules_of(violations);
}

TEST(AnalysisVerify, RealizeAfterFirstUseIsFlagged) {
  // B is stored before its Realize region opens: the first store is an
  // unrealized access even though a Realize exists later in the sequence.
  te::Tensor a = te::placeholder({4}, "A");
  te::Tensor b = te::placeholder({4}, "B");
  const te::Stmt early =
      te::make_store(b, {te::make_int(0)}, te::make_float(1.0));
  const te::Stmt inside =
      te::make_store(b, {te::make_int(1)}, te::make_float(2.0));
  const te::Stmt program =
      te::make_seq({early, te::make_realize(b, inside)});
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "unrealized-access"))
      << rules_of(violations);
}

TEST(AnalysisVerify, AccessArityMismatchIsFlagged) {
  te::Tensor a = te::placeholder({4, 4}, "A");
  te::Var i = te::make_var("i");
  // make_store refuses rank mismatches, so build the node directly.
  const te::Stmt store = std::make_shared<te::StoreNode>(
      a, std::vector<te::Expr>{te::Expr(i)}, te::make_float(1.0));
  const te::Stmt program = te::make_for(i, 4, te::ForKind::kSerial, store);
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "access-arity")) << rules_of(violations);
}

TEST(AnalysisVerify, ReductionUpdateToOtherElementIsFlagged) {
  // C[i] combines a read of C[i+1] — a reduction update must RMW the same
  // element. The read itself stays in bounds (C has 9 elements) so only
  // the RMW rule fires.
  te::Tensor c = te::placeholder({9}, "C");
  te::Var i = te::make_var("i");
  const te::Expr shifted = te::access(c, {te::Expr(i) + te::make_int(1)});
  const te::Stmt store =
      te::make_store(c, {te::Expr(i)}, shifted + te::make_float(1.0));
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kSerial, store);
  const auto violations = analysis::verify_stmt(program, {c});
  EXPECT_TRUE(has_rule(violations, "reduce-rmw-mismatch"))
      << rules_of(violations);
  EXPECT_FALSE(has_rule(violations, "out-of-bounds-access"))
      << rules_of(violations);
}

TEST(AnalysisVerify, OutOfBoundsAffineStoreIsFlagged) {
  te::Tensor a = te::placeholder({4}, "A");
  te::Var i = te::make_var("i");
  const te::Stmt store =
      te::make_store(a, {te::Expr(i)}, te::make_float(1.0));
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kSerial, store);
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "out-of-bounds-access"))
      << rules_of(violations);
}

TEST(AnalysisVerify, ParallelRacyLoopSurfacesInVerifyReport) {
  // The verifier's report includes the race prover's verdict under the
  // parallel-loop-race rule (A[i] = A[i+1] carries a dependence).
  te::Tensor a = te::placeholder({9}, "A");
  te::Var i = te::make_var("i");
  const te::Expr next = te::access(a, {te::Expr(i) + te::make_int(1)});
  const te::Stmt store = te::make_store(a, {te::Expr(i)}, next);
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kParallel, store);
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(has_rule(violations, "parallel-loop-race"))
      << rules_of(violations);
}

TEST(AnalysisVerify, WellFormedNestIsClean) {
  te::Tensor a = te::placeholder({4, 6}, "A");
  te::Var i = te::make_var("i");
  te::Var j = te::make_var("j");
  const te::Stmt store =
      te::make_store(a, {te::Expr(i), te::Expr(j)}, te::make_float(0.0));
  const te::Stmt program = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_for(j, 6, te::ForKind::kSerial,
                                               store));
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(violations.empty()) << rules_of(violations);
}

// --- bounds prover: guards and index arithmetic ------------------------------

TEST(AnalysisBounds, GuardConditionTightensIndexRange) {
  // i ranges over 8 but the store is guarded to i < 4: provably in bounds.
  te::Tensor a = te::placeholder({4}, "A");
  te::Var i = te::make_var("i");
  const te::Stmt store =
      te::make_store(a, {te::Expr(i)}, te::make_float(1.0));
  const te::Stmt guarded =
      te::make_if(te::lt(te::Expr(i), te::make_int(4)), store);
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kSerial, guarded);
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(violations.empty()) << rules_of(violations);
}

TEST(AnalysisBounds, ModAndFloorDivIndicesAreProven) {
  te::Tensor a = te::placeholder({4}, "A");
  te::Tensor b = te::placeholder({4}, "B");
  te::Var i = te::make_var("i");
  const te::Stmt stores = te::make_seq({
      te::make_store(a, {te::floor_mod(te::Expr(i), te::make_int(4))},
                     te::make_float(1.0)),
      te::make_store(b, {te::floor_div(te::Expr(i), te::make_int(4))},
                     te::make_float(2.0)),
  });
  const te::Stmt program = te::make_for(i, 16, te::ForKind::kSerial, stores);
  const auto violations = analysis::verify_stmt(program, {a, b});
  EXPECT_TRUE(violations.empty()) << rules_of(violations);
}

TEST(AnalysisBounds, TriangularGuardKeepsReadInBounds) {
  // A[i][j] reads A[j][i] under a j <= i guard — both indices stay inside
  // the square, and the guard constraints must flow into the range proof.
  te::Tensor a = te::placeholder({6, 6}, "A");
  te::Var i = te::make_var("i");
  te::Var j = te::make_var("j");
  const te::Expr mirrored = te::access(a, {te::Expr(j), te::Expr(i)});
  const te::Stmt store =
      te::make_store(a, {te::Expr(i), te::Expr(j)},
                     te::access(a, {te::Expr(i), te::Expr(j)}) + mirrored);
  const te::Stmt guarded =
      te::make_if(te::le(te::Expr(j), te::Expr(i)), store);
  const te::Stmt program = te::make_for(
      i, 6, te::ForKind::kSerial,
      te::make_for(j, 6, te::ForKind::kSerial, guarded));
  const auto violations = analysis::verify_stmt(program, {a});
  EXPECT_TRUE(violations.empty()) << rules_of(violations);
}

// --- race prover -------------------------------------------------------------

TEST(AnalysisRace, LoopCarriedDependenceIsRejected) {
  te::Tensor a = te::placeholder({9}, "A");
  te::Var i = te::make_var("i");
  const te::Expr next = te::access(a, {te::Expr(i) + te::make_int(1)});
  const te::Stmt store = te::make_store(a, {te::Expr(i)}, next);
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kParallel, store);
  const auto proofs = analysis::analyze_parallel_loops(program);
  ASSERT_EQ(proofs.size(), 1u);
  EXPECT_FALSE(proofs[0].proven) << proofs[0].detail;
}

TEST(AnalysisRace, DisjointWritesAreProven) {
  te::Tensor a = te::placeholder({8}, "A");
  te::Var i = te::make_var("i");
  const te::Stmt store =
      te::make_store(a, {te::Expr(i)}, te::make_float(1.0));
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kParallel, store);
  const auto proofs = analysis::analyze_parallel_loops(program);
  ASSERT_EQ(proofs.size(), 1u);
  EXPECT_TRUE(proofs[0].proven) << proofs[0].detail;
}

TEST(AnalysisRace, UnrolledLoopNeedsNoProof) {
  // The same loop-carried dependence under kUnrolled is legal: unrolling
  // preserves sequential order, so no proof obligation exists.
  te::Tensor a = te::placeholder({9}, "A");
  te::Var i = te::make_var("i");
  const te::Expr next = te::access(a, {te::Expr(i) + te::make_int(1)});
  const te::Stmt store = te::make_store(a, {te::Expr(i)}, next);
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kUnrolled, store);
  EXPECT_TRUE(analysis::analyze_parallel_loops(program).empty());
  EXPECT_FALSE(analysis::kind_requires_race_proof(te::ForKind::kUnrolled));
  EXPECT_FALSE(analysis::kind_requires_race_proof(te::ForKind::kSerial));
  EXPECT_TRUE(analysis::kind_requires_race_proof(te::ForKind::kParallel));
  EXPECT_TRUE(analysis::kind_requires_race_proof(te::ForKind::kVectorized));
}

TEST(AnalysisRace, RealizeInsideParallelLoopIsRejected) {
  // The closure tier shares one realize buffer across iterations, so a
  // Realize nested in a concurrent loop is racy regardless of indices.
  te::Tensor a = te::placeholder({8}, "A");
  te::Tensor t = te::placeholder({1}, "T");
  te::Var i = te::make_var("i");
  const te::Stmt body = te::make_realize(
      t, te::make_seq({
             te::make_store(t, {te::make_int(0)}, te::make_float(1.0)),
             te::make_store(a, {te::Expr(i)},
                            te::access(t, {te::make_int(0)})),
         }));
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kParallel, body);
  const auto proofs = analysis::analyze_parallel_loops(program);
  ASSERT_EQ(proofs.size(), 1u);
  EXPECT_FALSE(proofs[0].proven);
  EXPECT_NE(proofs[0].detail.find("realized inside"), std::string::npos)
      << proofs[0].detail;
}

// --- vectorize + pack adversarial cases --------------------------------------

TEST(AnalysisRace, VectorizedLoopCarriedReductionIsRejected) {
  // A kVectorized loop carrying a reduction (c[0] += a[k]) races on the
  // accumulator: every lane writes the same element. The prover must say
  // no, and the verify report must file it under parallel-loop-race.
  te::Tensor a = te::placeholder({8}, "A");
  te::Tensor c = te::placeholder({1}, "C");
  te::Var k = te::make_var("k");
  const te::Stmt store = te::make_store(
      c, {te::make_int(0)},
      te::access(c, {te::make_int(0)}) + te::access(a, {te::Expr(k)}));
  const te::Stmt program =
      te::make_for(k, 8, te::ForKind::kVectorized, store);
  const auto proofs = analysis::analyze_parallel_loops(program);
  ASSERT_EQ(proofs.size(), 1u);
  EXPECT_FALSE(proofs[0].proven) << proofs[0].detail;
  const auto violations = analysis::verify_stmt(program, {a, c});
  EXPECT_TRUE(has_rule(violations, "parallel-loop-race"))
      << rules_of(violations);
}

TEST(AnalysisRace, ScheduleVectorizingReductionAxisFailsToLower) {
  // The relaxed Stage::vectorize accepts any leaf — including the k
  // reduction axis — because the machine-checked race proof at lowering
  // is the real gate. Lowering such a schedule must throw with the
  // parallel-loop-race rule id, never silently emit a racy nest.
  te::Tensor a = te::placeholder({4, 6}, "A");
  te::Tensor b = te::placeholder({6, 4}, "B");
  te::IterVar kk = te::reduce_axis(6, "k");
  te::Tensor c = te::compute(
      {4, 4}, "C",
      [&](const std::vector<te::Var>& i) {
        return te::sum(te::access(a, {i[0], kk->var}) *
                           te::access(b, {kk->var, i[1]}),
                       {kk->var});
      },
      {kk});
  te::Schedule sched({c});
  sched[c].vectorize(sched[c].op_reduce_axis()[0]);
  try {
    te::lower(sched);
    FAIL() << "lowering a vectorized reduction axis must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("parallel-loop-race"),
              std::string::npos)
        << e.what();
  }
}

TEST(AnalysisRace, PackAliasingTheWrittenWindowIsRejected) {
  // Packing reads of a tensor that is also written inside the packed
  // window would let redirected reads observe a stale copy. pack_reads
  // must refuse with the pack-aliases-write rule id.
  te::Tensor b = te::placeholder({8, 8}, "B");
  te::Var i = te::make_var("i");
  te::Var j = te::make_var("j");
  const te::Stmt store = te::make_store(
      b, {te::Expr(i), te::Expr(j)},
      te::access(b, {te::Expr(i), te::Expr(j)}) * te::make_float(2.0));
  const te::Stmt program = te::make_for(
      i, 8, te::ForKind::kSerial,
      te::make_for(j, 8, te::ForKind::kSerial, store));
  try {
    te::pack_reads(program, b, i, /*wrap_outside=*/false, /*perm=*/{0, 1},
                   /*invariant_dims=*/{}, "b_pack");
    FAIL() << "packing an aliased window must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("pack-aliases-write"),
              std::string::npos)
        << e.what();
  }
}

TEST(AnalysisRace, PackOfUnreadTensorIsRejected) {
  // Asking to pack a tensor the region never reads is a schedule bug;
  // pack_reads must refuse with the pack-no-reads rule id instead of
  // materializing a dead scratch buffer.
  te::Tensor a = te::placeholder({8}, "A");
  te::Tensor c = te::placeholder({8}, "C");
  te::Var i = te::make_var("i");
  const te::Stmt store =
      te::make_store(c, {te::Expr(i)}, te::make_float(1.0));
  const te::Stmt program = te::make_for(i, 8, te::ForKind::kSerial, store);
  try {
    te::pack_reads(program, a, i, /*wrap_outside=*/false, /*perm=*/{0},
                   /*invariant_dims=*/{}, "a_pack");
    FAIL() << "packing an unread tensor must throw";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("pack-no-reads"),
              std::string::npos)
        << e.what();
  }
}

TEST(AnalysisRace, SingleIterationLoopIsTriviallyProven) {
  te::Tensor a = te::placeholder({9}, "A");
  te::Var i = te::make_var("i");
  const te::Expr next = te::access(a, {te::Expr(i) + te::make_int(1)});
  const te::Stmt store = te::make_store(a, {te::Expr(i)}, next);
  const te::Stmt program = te::make_for(i, 1, te::ForKind::kParallel, store);
  const auto proofs = analysis::analyze_parallel_loops(program);
  ASSERT_EQ(proofs.size(), 1u);
  EXPECT_TRUE(proofs[0].proven) << proofs[0].detail;
}

// --- shipped kernel schedules: every parallel axis must be provable ----------

std::vector<std::string> te_kernels() {
  return {"3mm", "gemm", "2mm", "syrk", "lu", "cholesky"};
}

std::vector<std::int64_t> default_base_tiles(const std::string& kernel,
                                             const std::vector<std::int64_t>&
                                                 dims) {
  const cs::ConfigurationSpace space = kernels::build_space(kernel, dims);
  return space.values_int(space.default_configuration());
}

TEST(AnalysisRace, AllShippedParallelSchedulesAreProven) {
  for (const std::string& kernel : te_kernels()) {
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);
    const auto data = kernels::make_te_kernel_data(kernel, dims);
    const std::size_t axes = kernels::te_num_parallel_axes(kernel);
    ASSERT_GE(axes, 1u) << kernel;
    for (std::size_t axis = 1; axis <= axes; ++axis) {
      std::vector<std::int64_t> tiles = default_base_tiles(kernel, dims);
      tiles.push_back(static_cast<std::int64_t>(axis));
      tiles.push_back(4);  // thread budget; irrelevant to the proof
      kernels::TeProgramInstance instance(data, tiles);
      const auto proven = analysis::proven_parallel_loops(instance.stmt());
      EXPECT_FALSE(proven.empty())
          << kernel << " axis " << axis << ": no proven parallel loop";
      std::vector<te::Tensor> params;
      for (const auto& [tensor, array] : instance.bindings()) {
        (void)array;
        params.push_back(tensor);
      }
      const analysis::ScreenResult screened =
          analysis::screen_program(instance.stmt(), params);
      EXPECT_TRUE(screened.ok())
          << kernel << " axis " << axis << ": " << screened.first_error();
    }
  }
}

TEST(AnalysisRace, AllShippedWidenedSchedulesAreProven) {
  // The full widened tier on every kernel: parallel axis 1 + vectorized
  // innermost + unroll 2 + pack must lower with machine-checked proofs —
  // the vectorized loop shows up in proven_vectorized_loops (the list the
  // C emitter keys its simd pragmas on) and the screen stays clean.
  for (const std::string& kernel : te_kernels()) {
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);
    const auto data = kernels::make_te_kernel_data(kernel, dims);
    std::vector<std::int64_t> tiles = default_base_tiles(kernel, dims);
    tiles.insert(tiles.end(), {1, 4, /*vec=*/1, /*unroll=*/2, /*pack=*/1});
    kernels::TeProgramInstance instance(data, tiles);
    EXPECT_FALSE(analysis::proven_vectorized_loops(instance.stmt()).empty())
        << kernel << ": no proven vectorized loop";
    std::vector<te::Tensor> params;
    for (const auto& [tensor, array] : instance.bindings()) {
      (void)array;
      params.push_back(tensor);
    }
    const analysis::ScreenResult screened =
        analysis::screen_program(instance.stmt(), params);
    EXPECT_TRUE(screened.ok()) << kernel << ": " << screened.first_error();
  }
}

// --- config pre-screener -----------------------------------------------------

/// Counts measure() calls; the prescreen tests assert it stays at zero.
class CountingDevice final : public runtime::Device {
 public:
  std::string name() const override { return "counting"; }
  runtime::MeasureResult measure(const runtime::MeasureInput& input,
                                 const runtime::MeasureOption& option)
      override {
    (void)input;
    (void)option;
    ++measured;
    runtime::MeasureResult result;
    result.valid = true;
    result.runtime_s = 1.0;
    return result;
  }
  int measured = 0;
};

TEST(AnalysisScreen, ArmedFaultConfigNeverReachesTheDevice) {
  std::ostringstream sink;
  runtime::TraceLog trace(&sink);
  CountingDevice device;
  runtime::MeasureRunnerOptions options;
  options.prescreen = true;
  options.trace = &trace;
  options.strategy = "test";
  runtime::MeasureRunner runner(&device, options);

  const runtime::Workload workload =
      distd::make_fault_workload("fault.segv");
  const runtime::MeasureInput armed =
      distd::make_fault_input(workload, {distd::kFaultTrigger});
  const runtime::MeasureResult result =
      runner.measure_one(armed, runtime::MeasureOption{});

  EXPECT_FALSE(result.valid);
  EXPECT_EQ(result.error.rfind("analysis reject: ", 0), 0u) << result.error;
  EXPECT_EQ(device.measured, 0);
  EXPECT_EQ(runner.analysis_rejects(), 1u);

  std::map<std::string, int> counts;
  for (const Json& event : Json::parse_lines(sink.str())) {
    counts[event.at("event").as_string()]++;
  }
  EXPECT_EQ(counts["analysis_reject"], 1);
  EXPECT_EQ(counts["result"], 1);
}

TEST(AnalysisScreen, BenignFaultConfigPassesTheScreen) {
  CountingDevice device;
  runtime::MeasureRunnerOptions options;
  options.prescreen = true;
  runtime::MeasureRunner runner(&device, options);
  const runtime::Workload workload =
      distd::make_fault_workload("fault.segv");
  const runtime::MeasureInput benign =
      distd::make_fault_input(workload, {1});
  const runtime::MeasureResult result =
      runner.measure_one(benign, runtime::MeasureOption{});
  EXPECT_TRUE(result.valid);
  EXPECT_EQ(device.measured, 1);
  EXPECT_EQ(runner.analysis_rejects(), 0u);
}

TEST(AnalysisScreen, TrajectoryIsIdenticalOnLegalSpaces) {
  // On a space with no illegal configs the pre-screener must be a pure
  // pass-through: the tuner sees identical results, so the best-config
  // trajectory is bit-identical with and without screening.
  const kernels::Dataset dataset = kernels::Dataset::kMini;
  const autotvm::Task task = kernels::make_task(
      "gemm", dataset, runtime::ExecBackend::kInterp, codegen::JitOptions{});
  runtime::CpuDevice device;

  auto run_once = [&](bool screen) {
    framework::SessionOptions options;
    options.max_evaluations = 10;
    options.seed = 7;
    options.measure.prescreen = screen;
    framework::AutotuningSession session(&task, &device, options);
    return session.run(framework::StrategyKind::kAutotvmRandom);
  };

  const framework::SessionResult with = run_once(true);
  const framework::SessionResult without = run_once(false);
  EXPECT_EQ(with.analysis_rejects, 0u);
  ASSERT_EQ(with.db.records().size(), without.db.records().size());
  for (std::size_t i = 0; i < with.db.records().size(); ++i) {
    EXPECT_EQ(with.db.records()[i].tiles, without.db.records()[i].tiles)
        << "trajectory diverged at evaluation " << i;
    EXPECT_EQ(with.db.records()[i].valid, without.db.records()[i].valid)
        << "validity diverged at evaluation " << i;
  }
}

TEST(AnalysisScreen, ScreenedTrialLowersOnce) {
  // Lowering mints fresh loop variables (split axes), so the var-id
  // counter shows whether a phase lowered. The screen lowers; the prepare
  // that follows takes the screened program instead of lowering again. A
  // second prepare (a retry) and an unscreened prepare lower themselves.
  const kernels::Dataset dataset = kernels::Dataset::kMini;
  const auto data =
      kernels::make_te_kernel_data("lu", kernels::polybench_dims("lu", dataset));
  const runtime::Workload workload = kernels::make_workload("lu", dataset);
  auto vars_minted = [](const std::function<void()>& phase) {
    const std::uint64_t before = te::make_var("probe")->id;
    phase();
    return te::make_var("probe")->id - before - 1;
  };
  const std::vector<std::int64_t> tiles = {4, 2};
  const runtime::MeasureInput screened = kernels::make_te_measure_input(
      data, workload, tiles, runtime::ExecBackend::kClosure);
  std::string violation = "not screened";
  EXPECT_GT(vars_minted([&] { violation = screened.static_check(); }), 0u);
  EXPECT_EQ(violation, "");
  EXPECT_EQ(vars_minted(screened.prepare), 0u);
  screened.run();
  EXPECT_GT(vars_minted(screened.prepare), 0u);
  screened.run();

  const runtime::MeasureInput unscreened = kernels::make_te_measure_input(
      data, workload, tiles, runtime::ExecBackend::kClosure);
  EXPECT_GT(vars_minted(unscreened.prepare), 0u);
  unscreened.run();
}

// --- fuzz: analyzer-accepted configs agree across execution tiers ------------

void expect_bits_equal(const runtime::NDArray& a, const runtime::NDArray& b,
                       const std::string& label) {
  ASSERT_EQ(a.shape(), b.shape()) << label;
  std::span<const double> av = a.f64(), bv = b.f64();
  for (std::size_t i = 0; i < av.size(); ++i) {
    ASSERT_EQ(av[i], bv[i]) << label << ": flat index " << i;
  }
}

TEST(AnalysisFuzz, AcceptedRandomConfigsAgreeAcrossTiers) {
  const codegen::JitOptions jit_options = [] {
    codegen::JitOptions options;
    options.cache_dir = testing::TempDir() + "tvmbo-analysis-fuzz";
    return options;
  }();
  const bool jit = codegen::JitProgram::toolchain_available(jit_options);
  Rng rng(2023);
  for (const std::string& kernel : te_kernels()) {
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kMini);
    const auto data = kernels::make_te_kernel_data(kernel, dims);
    kernels::ParallelKnobs knobs;
    knobs.enabled = true;
    knobs.max_threads = 2;
    const cs::ConfigurationSpace space =
        kernels::build_space(kernel, dims, knobs);
    for (int round = 0; round < 4; ++round) {
      const std::vector<std::int64_t> tiles =
          space.values_int(space.sample(rng));
      const std::string label = kernel + " tiles " + [&] {
        std::string s;
        for (std::int64_t t : tiles) s += std::to_string(t) + ",";
        return s;
      }();
      // The analyzer must accept everything the legal space produces...
      kernels::TeProgramInstance instance(data, tiles);
      std::vector<te::Tensor> params;
      for (const auto& [tensor, array] : instance.bindings()) {
        (void)array;
        params.push_back(tensor);
      }
      const analysis::ScreenResult screened =
          analysis::screen_program(instance.stmt(), params);
      ASSERT_TRUE(screened.ok()) << label << ": " << screened.first_error();
      // ...and accepted configs must agree bit-for-bit across tiers.
      const runtime::NDArray oracle = kernels::run_te_backend(
          data, tiles, runtime::ExecBackend::kInterp);
      const runtime::NDArray closure = kernels::run_te_backend(
          data, tiles, runtime::ExecBackend::kClosure);
      expect_bits_equal(oracle, closure, label + " (closure)");
      if (jit) {
        const runtime::NDArray jitted = kernels::run_te_backend(
            data, tiles, runtime::ExecBackend::kJit, jit_options);
        expect_bits_equal(oracle, jitted, label + " (jit)");
      }
    }
  }
}

}  // namespace
}  // namespace tvmbo
