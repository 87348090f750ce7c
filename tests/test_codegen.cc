#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>
#include <vector>

#include "codegen/artifact_cache.h"
#include "codegen/c_emitter.h"
#include "codegen/jit_program.h"
#include "common/logging.h"
#include "common/rng.h"
#include "kernels/polybench.h"
#include "kernels/te_kernels.h"
#include "kernels/te_programs.h"
#include "te/interp.h"
#include "te/lower.h"
#include "te/transform.h"

namespace tvmbo::codegen {
namespace {

JitOptions test_options(const std::string& subdir) {
  JitOptions options;
  options.cache_dir = testing::TempDir() + "tvmbo-codegen-" + subdir;
  // Hit/miss assertions assume a cold cache; wipe leftovers from prior
  // test runs (the dir is stable across runs by construction).
  std::filesystem::remove_all(options.cache_dir);
  return options;
}

std::string read_bytes(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void write_text(const std::filesystem::path& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
}

struct BuiltKernel {
  std::string source;
  std::string artifact_path;
};

/// Compiles `stmt`, a schedule of `t` = make_gemm(6, 7, 5), runs it, and
/// expects every output element to equal the interpreter's.
BuiltKernel expect_gemm_matches_interpreter(const kernels::GemmTensors& t,
                                            const te::Stmt& stmt,
                                            const JitOptions& options) {
  runtime::NDArray a({6, 5}), b({5, 7}), c_jit({6, 7}), c_ref({6, 7});
  for (std::int64_t i = 0; i < a.num_elements(); ++i) {
    a.f64()[i] = 0.25 * static_cast<double>(i % 11) - 1.0;
  }
  for (std::int64_t i = 0; i < b.num_elements(); ++i) {
    b.f64()[i] = 0.5 * static_cast<double>(i % 7) - 1.5;
  }
  JitProgram program = JitProgram::compile(
      stmt, {{t.A, &a}, {t.B, &b}, {t.C, &c_jit}}, options);
  program.run();
  te::Interpreter interp;
  interp.bind(t.A, &a);
  interp.bind(t.B, &b);
  interp.bind(t.C, &c_ref);
  interp.run(stmt);
  for (std::int64_t i = 0; i < c_ref.num_elements(); ++i) {
    EXPECT_EQ(c_jit.f64()[i], c_ref.f64()[i]) << "element " << i;
  }
  return {program.source(), program.artifact_path()};
}

/// `source` with its prelude swapped back for the three system headers
/// every emitted kernel included before the header-free prelude.
std::string with_header_prelude(const std::string& source) {
  const std::size_t begin = source.find("#if ");
  const std::size_t end = source.find("#endif\n");
  EXPECT_NE(begin, std::string::npos);
  EXPECT_NE(end, std::string::npos);
  return source.substr(0, begin) +
         "#include <math.h>\n#include <stdint.h>\n#include <stdlib.h>\n" +
         source.substr(end + 7);
}

/// The source and flags JitProgram::compile builds for a serial `stmt`.
std::pair<std::string, std::string> emit_like_compile(
    te::Stmt stmt, const std::vector<te::Tensor>& params, int unroll_factor,
    const JitOptions& options) {
  if (te::has_loop_kind(stmt, te::ForKind::kUnrolled)) {
    stmt = te::unroll_loops(stmt);
  }
  EmitOptions emit;
  std::string flags = options.flags;
  if (te::has_loop_kind(stmt, te::ForKind::kVectorized)) {
    emit.vectorize = true;
    if (JitProgram::simd_available(options)) flags += " -fopenmp-simd";
  }
  if (te::has_loop_kind(stmt, te::ForKind::kUnrolled)) {
    emit.unroll = true;
    emit.unroll_factor = unroll_factor;
  }
  return {emit_c_source(stmt, params, "tvmbo_kernel", emit), flags};
}

TEST(Fnv1a, DeterministicAndSensitive) {
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("abc"), fnv1a64("abc"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("abd"));
  EXPECT_NE(fnv1a64("abc"), fnv1a64("ab"));
}

TEST(CEmitter, EmitsKernelSignatureAndHelpers) {
  const te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(2.5)));
  const std::string source = emit_c_source(stmt, {out});
  EXPECT_NE(source.find("void tvmbo_kernel(double** bufs)"),
            std::string::npos);
  EXPECT_NE(source.find("bufs[0]"), std::string::npos);
  EXPECT_NE(source.find("tvmbo_fdiv"), std::string::npos);
  // Float constants are emitted as hexfloat so the value round-trips
  // bit-exactly through the C compiler.
  EXPECT_NE(source.find("0x1.4p+1"), std::string::npos);
  EXPECT_NE(source.find("for (int64_t"), std::string::npos);
}

TEST(CEmitter, RealizeRegionsAllocateAndFree) {
  // A scheduled 3mm has two Realize intermediates (E and F).
  kernels::ThreeMmTensors t = kernels::make_3mm(4, 5, 6, 7, 8);
  const std::int64_t tiles[6] = {2, 2, 2, 2, 2, 2};
  const te::Stmt stmt = te::lower(kernels::schedule_3mm(t, tiles));
  const std::string source =
      emit_c_source(stmt, {t.A, t.B, t.C, t.D, t.G});
  EXPECT_NE(source.find("calloc"), std::string::npos);
  EXPECT_NE(source.find("free("), std::string::npos);
  EXPECT_NE(source.find("/* realize E */"), std::string::npos);
  EXPECT_NE(source.find("/* realize F */"), std::string::npos);
}

TEST(CEmitter, SimdPragmaOnlyOnProvenVectorizedLoops) {
  // A provably race-free kVectorized loop gets `#pragma omp simd` with an
  // aligned() clause, and the buffer pointers turn restrict — but only
  // when vectorize emission is requested; the default emission stays
  // byte-identical to earlier releases (stable cache keys).
  const te::Tensor out = te::placeholder({8}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt proven = te::make_for(
      i, 8, te::ForKind::kVectorized,
      te::make_store(out, {i}, te::make_float(1.0)));
  EmitOptions vec;
  vec.vectorize = true;
  const std::string vec_source =
      emit_c_source(proven, {out}, "tvmbo_kernel", vec);
  EXPECT_NE(vec_source.find("#pragma omp simd aligned("), std::string::npos)
      << vec_source;
  EXPECT_NE(vec_source.find("restrict"), std::string::npos);

  const std::string plain = emit_c_source(proven, {out});
  EXPECT_EQ(plain.find("#pragma"), std::string::npos);
  EXPECT_EQ(plain.find("restrict"), std::string::npos);

  // An unproven kVectorized loop (every lane accumulates into the same
  // element) must NOT get the pragma even with vectorize on: emission is
  // keyed on the dependence prover's certificate, not the annotation.
  const te::Tensor acc = te::placeholder({1}, "acc");
  const te::Var k = te::make_var("k");
  const te::Stmt racy = te::make_for(
      k, 8, te::ForKind::kVectorized,
      te::make_store(acc, {te::make_int(0)},
                     te::access(acc, {te::make_int(0)}) +
                         te::make_float(1.0)));
  const std::string racy_source =
      emit_c_source(racy, {acc}, "tvmbo_kernel", vec);
  EXPECT_EQ(racy_source.find("#pragma omp simd"), std::string::npos)
      << racy_source;
}

TEST(CEmitter, UnrollPragmaRequiresFactor) {
  // Residual kUnrolled loops (extent beyond the pre-pass straight-lining
  // limit) get a GCC unroll hint only when a factor >= 2 is supplied.
  const te::Tensor out = te::placeholder({100}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 100, te::ForKind::kUnrolled,
      te::make_store(out, {i}, te::make_float(1.0)));
  EmitOptions hinted;
  hinted.unroll = true;
  hinted.unroll_factor = 4;
  EXPECT_NE(emit_c_source(stmt, {out}, "tvmbo_kernel", hinted)
                .find("#pragma GCC unroll 4"),
            std::string::npos);
  hinted.unroll_factor = 0;
  EXPECT_EQ(emit_c_source(stmt, {out}, "tvmbo_kernel", hinted)
                .find("#pragma"),
            std::string::npos);
  EXPECT_EQ(emit_c_source(stmt, {out}).find("#pragma"), std::string::npos);
}

TEST(CEmitter, RejectsUnboundTensor) {
  const te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(0.0)));
  EXPECT_THROW(emit_c_source(stmt, {}), CheckError);
}

TEST(CEmitter, PreludeLeavesArtifactsUnchanged) {
  // The header-free prelude must build the same object the three system
  // headers did: each kernel is compiled from both preludes under the
  // same file name in two directories, and the shared objects must be
  // byte-identical.
  const JitOptions options = test_options("prelude");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  struct Case {
    std::string name;
    te::Stmt stmt;
    std::vector<te::Tensor> params;
    int unroll_factor = 0;
  };
  std::vector<Case> cases;
  kernels::ScheduleKnobs knobs;
  knobs.enabled = true;
  knobs.max_threads = 1;
  knobs.vectorize = true;
  knobs.unroll = true;
  knobs.pack = true;
  Rng rng(21);
  for (const char* kernel : {"lu", "cholesky", "3mm"}) {
    const std::vector<std::int64_t> dims =
        kernels::polybench_dims(kernel, kernels::Dataset::kSmall);
    const cs::ConfigurationSpace space =
        kernels::build_space(kernel, dims, knobs);
    for (int i = 0; i < 3; ++i) {
      const std::vector<std::int64_t> tiles =
          space.values_int(space.sample(rng));
      kernels::TeLoweredProgram program =
          kernels::lower_te_program(kernel, dims, tiles);
      cases.push_back({kernel + std::to_string(i), program.stmt,
                       program.params, program.unroll_factor});
    }
  }
  // Hand-built statements reach what no sampled kernel emits: INFINITY,
  // the math calls, the floor-div/mod helpers and a calloc'd realize.
  const double inf = std::numeric_limits<double>::infinity();
  const te::Tensor x = te::placeholder({8}, "x");
  const te::Tensor y = te::placeholder({8}, "y");
  const te::Tensor scratch = te::placeholder({8}, "scratch");
  const te::Var i = te::make_var("i");
  const te::Expr xi = te::access(x, {i});
  const te::Expr magnitude = te::abs_expr(xi);
  cases.push_back(
      {"math",
       te::make_for(
           i, 8, te::ForKind::kSerial,
           te::make_store(
               y, {i},
               te::min_expr(te::make_float(inf), te::sqrt_expr(magnitude)) +
                   te::exp_expr(xi) +
                   te::log_expr(magnitude + te::make_float(1.0)) +
                   te::max_expr(te::make_float(-inf), xi))),
       {x, y}});
  cases.push_back(
      {"divmod-realize",
       te::make_realize(
           scratch,
           te::make_seq(
               {te::make_for(i, 8, te::ForKind::kSerial,
                             te::make_store(
                                 scratch, {i},
                                 te::floor_div(xi, te::make_float(3.0)) +
                                     te::floor_mod(xi, te::make_float(3.0)))),
                te::make_for(
                    i, 8, te::ForKind::kSerial,
                    te::make_store(
                        y, {te::floor_mod(i + te::make_int(3), te::make_int(8))},
                        te::access(scratch,
                                   {te::floor_div(i, te::make_int(2))})))})),
       {x, y}});

  const std::string compiler = options.resolved_compiler();
  const std::filesystem::path root = options.resolved_cache_dir();
  std::string bodies;
  for (const Case& c : cases) {
    const auto [source, flags] =
        emit_like_compile(c.stmt, c.params, c.unroll_factor, options);
    bodies += source.substr(source.find("void tvmbo_kernel"));
    const std::string texts[2] = {source, with_header_prelude(source)};
    std::string objects[2];
    for (int v = 0; v < 2; ++v) {
      const std::filesystem::path dir = root / (v == 0 ? "declared" : "headers");
      std::filesystem::create_directories(dir);
      const std::filesystem::path c_path = dir / "tvmbo_kernel.c";
      const std::filesystem::path so_path = dir / "tvmbo_kernel.so";
      const std::filesystem::path log_path = dir / "tvmbo_kernel.log";
      write_text(c_path, texts[v]);
      EXPECT_EQ(run_compiler(compiler, flags, so_path.string(),
                             c_path.string(), log_path.string()),
                "")
          << c.name << ": " << read_bytes(log_path);
      objects[v] = read_bytes(so_path);
    }
    EXPECT_FALSE(objects[0].empty()) << c.name;
    EXPECT_TRUE(objects[0] == objects[1])
        << c.name << " built with '" << flags << "' differs:\n" << source;
  }
  for (const char* used :
       {"INFINITY", "sqrt(", "exp(", "log(", "fabs(", "tvmbo_ffdiv(",
        "tvmbo_ffmod(", "tvmbo_fdiv(", "tvmbo_fmod(", "calloc(", "free(",
        "abort()", "#pragma omp simd"}) {
    EXPECT_NE(bodies.find(used), std::string::npos) << used;
  }
}

TEST(JitProgram, CompilesRunsAndMatchesInterpreter) {
  const JitOptions options = test_options("basic");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const BuiltKernel built = expect_gemm_matches_interpreter(
      t, te::lower(kernels::schedule_gemm(t, 3, 4)), options);
  EXPECT_FALSE(built.source.empty());
  EXPECT_FALSE(built.artifact_path.empty());
}

TEST(JitProgram, OneCompileProvesToolchainAndSimd) {
  // Both verdicts come from one probe compile per (compiler, flags, cache
  // dir). The directory is unique per process: probe verdicts are
  // recorded for the process's lifetime.
  const JitOptions options =
      test_options("one-probe-" + std::to_string(::getpid()));
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  JitProgram::simd_available(options);
  EXPECT_EQ(cache.stats().misses, 1u);
  std::filesystem::remove_all(options.cache_dir);
}

TEST(JitProgram, SimdProbeFallsBackWhenFlagRejected) {
  const JitOptions base = test_options("simd-fallback-base");
  if (!JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  // A compiler that rejects -fopenmp-simd and otherwise runs the real one.
  JitOptions options = test_options("simd-fallback");
  std::filesystem::create_directories(options.cache_dir);
  const std::filesystem::path wrapper =
      std::filesystem::path(options.cache_dir) / "no-simd-cc";
  write_text(wrapper,
             "#!/bin/sh\n"
             "for arg in \"$@\"; do\n"
             "  if [ \"$arg\" = -fopenmp-simd ]; then\n"
             "    echo 'unsupported option -fopenmp-simd' >&2; exit 1\n"
             "  fi\n"
             "done\n"
             "exec " + base.resolved_compiler() + " \"$@\"\n");
  std::filesystem::permissions(wrapper, std::filesystem::perms::owner_all);
  options.compiler = wrapper.string();

  EXPECT_TRUE(JitProgram::toolchain_available(options));
  EXPECT_FALSE(JitProgram::simd_available(options));

  // A vectorized kernel keeps its pragma, drops the flag, and still
  // matches the interpreter.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const BuiltKernel built = expect_gemm_matches_interpreter(
      t,
      te::lower(
          kernels::schedule_gemm(t, 3, 4, /*par_axis=*/0, /*vec_axis=*/1)),
      options);
  EXPECT_NE(built.source.find("#pragma omp simd"), std::string::npos);
}

TEST(JitProgram, ValidatesBindings) {
  const te::Tensor out = te::placeholder({4}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 4, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(0.0)));
  runtime::NDArray wrong_shape({5});
  EXPECT_THROW(
      JitProgram::compile(stmt, {{out, &wrong_shape}}, test_options("val")),
      CheckError);
}

TEST(ArtifactCache, SecondCompileIsACacheHit) {
  const JitOptions options = test_options("hits");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  const te::Tensor out = te::placeholder({3}, "out");
  const te::Var i = te::make_var("i");
  const te::Stmt stmt = te::make_for(
      i, 3, te::ForKind::kSerial, te::make_store(out, {i}, te::make_float(7.0)));
  runtime::NDArray buffer({3});

  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();

  JitProgram first = JitProgram::compile(stmt, {{out, &buffer}}, options);
  JitProgram second = JitProgram::compile(stmt, {{out, &buffer}}, options);
  EXPECT_TRUE(second.cache_hit());
  EXPECT_EQ(second.compile_s(), 0.0);
  EXPECT_EQ(first.artifact_path(), second.artifact_path());

  const CacheStats stats = cache.stats();
  EXPECT_GE(stats.hits, 1u);
  EXPECT_EQ(stats.failures, 0u);
  // Different flags -> different key, even for identical source.
  JitOptions debug = options;
  debug.flags = "-O0 -shared -fPIC -ffp-contract=off -std=c11";
  JitProgram third = JitProgram::compile(stmt, {{out, &buffer}}, debug);
  EXPECT_FALSE(third.cache_hit());
  EXPECT_NE(third.artifact_path(), first.artifact_path());
}

TEST(ArtifactCache, ParallelFlagsProduceDistinctKeysAndWarmHits) {
  JitOptions base = test_options("parallel-keys");
  if (!JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  // One parallel-annotated schedule, three thread budgets. The pragma
  // text (and num_threads clause) lands in the emitted source and the
  // -fopenmp flag in the compile command, so each budget must get its own
  // content-addressed artifact.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt stmt =
      te::lower(kernels::schedule_gemm(t, 3, 4, /*par_axis=*/1));
  runtime::NDArray a({6, 5}), b({5, 7}), c({6, 7});
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>> bindings = {
      {t.A, &a}, {t.B, &b}, {t.C, &c}};

  const int budgets[] = {1, 2, 4};
  std::vector<std::string> paths;
  // Cold pass: compile every variant (the OpenMP probe fires lazily on
  // the first parallel compile and costs one cache miss of its own, so it
  // must happen before the stats reset below).
  for (int threads : budgets) {
    JitOptions options = base;
    options.parallel_threads = threads;
    paths.push_back(
        JitProgram::compile(stmt, bindings, options).artifact_path());
  }
  for (std::size_t i = 0; i < paths.size(); ++i) {
    for (std::size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_NE(paths[i], paths[j])
          << "budgets " << budgets[i] << " and " << budgets[j];
    }
  }

  // Warm pass: identical configs must be pure cache hits.
  ArtifactCache& cache = ArtifactCache::shared(base);
  cache.reset_stats();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    JitOptions options = base;
    options.parallel_threads = budgets[i];
    JitProgram warm = JitProgram::compile(stmt, bindings, options);
    EXPECT_TRUE(warm.cache_hit()) << "budget " << budgets[i];
    EXPECT_EQ(warm.artifact_path(), paths[i]);
  }
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.hit_rate(), 1.0);
}

TEST(ArtifactCache, SimdUnrollPackProduceDistinctKeysAndWarmHits) {
  JitOptions base = test_options("vecpack-keys");
  if (!JitProgram::toolchain_available(base)) {
    GTEST_SKIP() << "no C toolchain";
  }
  // The widened-tier knobs must each land in the content-addressed key:
  // the simd pragma text (plus -fopenmp-simd when supported), the
  // straight-lined unroll bodies, and the pack scratch nest all change
  // the emitted source, so no two variants may collide — and a second
  // pass over the same variants must be 100% cache hits.
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const te::Stmt serial = te::lower(kernels::schedule_gemm(t, 3, 4));
  const te::Stmt vec = te::lower(
      kernels::schedule_gemm(t, 3, 4, /*par_axis=*/0, /*vec_axis=*/1));
  const te::Stmt unrolled = te::lower(kernels::schedule_gemm(
      t, 3, 4, /*par_axis=*/0, /*vec_axis=*/0, /*unroll=*/2));
  const te::Stmt packed = te::lower(kernels::schedule_gemm(
      t, 3, 4, /*par_axis=*/0, /*vec_axis=*/0, /*unroll=*/0, /*pack=*/true));
  runtime::NDArray a({6, 5}), b({5, 7}), c({6, 7});
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>> bindings = {
      {t.A, &a}, {t.B, &b}, {t.C, &c}};
  // A residual kUnrolled loop (extent beyond the straight-lining limit):
  // only the `#pragma GCC unroll <N>` hint separates the variants, so the
  // pragma text alone must split the key.
  const te::Tensor big = te::placeholder({100}, "big");
  const te::Var i = te::make_var("i");
  const te::Stmt residual = te::make_for(
      i, 100, te::ForKind::kUnrolled,
      te::make_store(big, {i}, te::make_float(1.0)));
  runtime::NDArray big_buf({100});
  const std::vector<std::pair<te::Tensor, runtime::NDArray*>>
      residual_bindings = {{big, &big_buf}};

  JitOptions hint2 = base, hint4 = base;
  hint2.unroll_factor = 2;
  hint4.unroll_factor = 4;

  // Cold pass (the simd verdict came with the toolchain probe above, so
  // the vectorized compile adds no probe miss of its own).
  std::vector<std::string> paths;
  paths.push_back(JitProgram::compile(serial, bindings, base)
                      .artifact_path());
  JitProgram vec_program = JitProgram::compile(vec, bindings, base);
  paths.push_back(vec_program.artifact_path());
  paths.push_back(JitProgram::compile(unrolled, bindings, base)
                      .artifact_path());
  JitProgram pack_program = JitProgram::compile(packed, bindings, base);
  paths.push_back(pack_program.artifact_path());
  paths.push_back(JitProgram::compile(residual, residual_bindings, hint2)
                      .artifact_path());
  paths.push_back(JitProgram::compile(residual, residual_bindings, hint4)
                      .artifact_path());
  for (std::size_t x = 0; x < paths.size(); ++x) {
    for (std::size_t y = x + 1; y < paths.size(); ++y) {
      EXPECT_NE(paths[x], paths[y]) << "variants " << x << " and " << y;
    }
  }
  // The knob effects are visible in the emitted text itself.
  if (JitProgram::simd_available(base)) {
    EXPECT_NE(vec_program.source().find("#pragma omp simd aligned("),
              std::string::npos);
  }
  EXPECT_NE(pack_program.source().find("C_A_pack"), std::string::npos)
      << pack_program.source();

  // Warm pass: identical variants must be pure cache hits.
  ArtifactCache& cache = ArtifactCache::shared(base);
  cache.reset_stats();
  EXPECT_TRUE(JitProgram::compile(serial, bindings, base).cache_hit());
  EXPECT_TRUE(JitProgram::compile(vec, bindings, base).cache_hit());
  EXPECT_TRUE(JitProgram::compile(unrolled, bindings, base).cache_hit());
  EXPECT_TRUE(JitProgram::compile(packed, bindings, base).cache_hit());
  EXPECT_TRUE(
      JitProgram::compile(residual, residual_bindings, hint2).cache_hit());
  EXPECT_TRUE(
      JitProgram::compile(residual, residual_bindings, hint4).cache_hit());
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.hits, 6u);
  EXPECT_EQ(stats.hit_rate(), 1.0);
}

TEST(ArtifactCache, CacheDirWithShellMetacharacters) {
  if (!JitProgram::toolchain_available(test_options("shell-base"))) {
    GTEST_SKIP() << "no C toolchain";
  }
  // The compiler gets its paths as single arguments: a space, a quote
  // and a `$` in the cache directory reach it unchanged.
  const JitOptions options = test_options("odd dir \"q\" $HOME");
  kernels::GemmTensors t = kernels::make_gemm(6, 7, 5);
  const BuiltKernel built = expect_gemm_matches_interpreter(
      t, te::lower(kernels::schedule_gemm(t, 3, 4)), options);
  EXPECT_EQ(built.artifact_path.rfind(options.cache_dir, 0), 0u);
}

TEST(ArtifactCache, CompileFailureReportsLog) {
  const JitOptions options = test_options("fail");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  EXPECT_THROW(cache.get_or_compile("this is not C\n",
                                    options.resolved_compiler(),
                                    options.flags),
               CheckError);
  EXPECT_EQ(cache.stats().failures, 1u);
}

TEST(ArtifactCache, ConcurrentIdenticalRequestsCompileOnce) {
  const JitOptions options = test_options("threads");
  if (!JitProgram::toolchain_available(options)) {
    GTEST_SKIP() << "no C toolchain";
  }
  ArtifactCache& cache = ArtifactCache::shared(options);
  cache.reset_stats();
  const std::string source =
      "void tvmbo_kernel(double** bufs) { bufs[0][0] = 42.0; }\n";

  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  std::vector<std::string> paths(kThreads);
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      try {
        paths[i] = cache
                       .get_or_compile(source, options.resolved_compiler(),
                                       options.flags)
                       .so_path;
      } catch (const std::exception&) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(failures.load(), 0);
  for (int i = 1; i < kThreads; ++i) EXPECT_EQ(paths[i], paths[0]);
  const CacheStats stats = cache.stats();
  EXPECT_EQ(stats.lookups(), static_cast<std::size_t>(kThreads));
  // The per-key mutex serializes identical requests: exactly one miss.
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, static_cast<std::size_t>(kThreads - 1));
}

}  // namespace
}  // namespace tvmbo::codegen
