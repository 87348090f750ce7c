#include "kernels/te_programs.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "analysis/config_screen.h"
#include "common/logging.h"
#include "kernels/reference.h"
#include "kernels/te_kernels.h"
#include "te/compile.h"
#include "te/interp.h"
#include "te/loop_transform.h"
#include "te/lower.h"

namespace tvmbo::kernels {

bool te_backend_supported(const std::string& kernel) {
  return kernel == "3mm" || kernel == "gemm" || kernel == "2mm" ||
         kernel == "syrk" || kernel == "lu" || kernel == "cholesky";
}

std::size_t te_num_tiles(const std::string& kernel) {
  if (kernel == "3mm") return 6;
  if (kernel == "2mm") return 4;
  return 2;
}

std::size_t te_num_parallel_axes(const std::string& kernel) {
  TVMBO_CHECK(te_backend_supported(kernel))
      << "kernel '" << kernel << "' has no TE program";
  // lu/cholesky expose only the trailing-update row loop (io); the
  // compute-DAG kernels expose yo and xo of every scheduled stage.
  if (kernel == "lu" || kernel == "cholesky") return 1;
  return 2;
}

namespace {

// PolyBench-style deterministic init for the 2mm C operand (reference.h
// covers the A/B pair via init_gemm).
void init_2mm_c(runtime::NDArray& c) {
  const std::int64_t nj = c.shape()[0], nl = c.shape()[1];
  for (std::int64_t i = 0; i < nj; ++i) {
    for (std::int64_t j = 0; j < nl; ++j) {
      c.set2(i, j, static_cast<double>((i * (j + 3) + 1) % nl) /
                       static_cast<double>(nl));
    }
  }
}

}  // namespace

std::shared_ptr<TeKernelData> make_te_kernel_data(
    const std::string& kernel, const std::vector<std::int64_t>& dims) {
  TVMBO_CHECK(te_backend_supported(kernel))
      << "kernel '" << kernel << "' has no TE program";
  auto data = std::make_shared<TeKernelData>();
  data->kernel = kernel;
  data->dims = dims;
  if (kernel == "3mm") {
    TVMBO_CHECK_EQ(dims.size(), 5u) << "3mm dims must be {N,L,M,O,P}";
    const std::int64_t n = dims[0], l = dims[1], m = dims[2], o = dims[3],
                       p = dims[4];
    data->inputs.emplace_back(std::vector<std::int64_t>{n, l});
    data->inputs.emplace_back(std::vector<std::int64_t>{l, m});
    data->inputs.emplace_back(std::vector<std::int64_t>{m, o});
    data->inputs.emplace_back(std::vector<std::int64_t>{o, p});
    init_3mm(data->inputs[0], data->inputs[1], data->inputs[2],
             data->inputs[3]);
  } else if (kernel == "gemm") {
    TVMBO_CHECK_EQ(dims.size(), 3u) << "gemm dims must be {NI,NJ,NK}";
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[0], dims[2]});
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[2], dims[1]});
    init_gemm(data->inputs[0], data->inputs[1]);
  } else if (kernel == "2mm") {
    TVMBO_CHECK_EQ(dims.size(), 4u) << "2mm dims must be {NI,NJ,NK,NL}";
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[0], dims[2]});
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[2], dims[1]});
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[1], dims[3]});
    init_gemm(data->inputs[0], data->inputs[1]);
    init_2mm_c(data->inputs[2]);
  } else if (kernel == "syrk") {
    TVMBO_CHECK_EQ(dims.size(), 2u) << "syrk dims must be {N, M}";
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[0], dims[1]});
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[0], dims[0]});
    init_syrk(data->inputs[0], data->inputs[1]);
  } else {  // lu / cholesky
    TVMBO_CHECK_EQ(dims.size(), 1u) << kernel << " dims must be {N}";
    data->inputs.emplace_back(std::vector<std::int64_t>{dims[0], dims[0]});
    if (kernel == "cholesky") {
      init_spd(data->inputs[0]);
    } else {
      init_lu(data->inputs[0]);
    }
  }
  return data;
}

TeLoweredProgram lower_te_program(const std::string& kernel,
                                  const std::vector<std::int64_t>& dims,
                                  std::span<const std::int64_t> tiles) {
  TVMBO_CHECK(te_backend_supported(kernel))
      << "kernel '" << kernel << "' has no TE program";
  const std::size_t want_dims = kernel == "3mm"    ? 5u
                                : kernel == "2mm"  ? 4u
                                : kernel == "gemm" ? 3u
                                : kernel == "syrk" ? 2u
                                                   : 1u;
  TVMBO_CHECK_EQ(dims.size(), want_dims)
      << "wrong dim count for " << kernel;
  TeLoweredProgram lowered;
  const std::size_t base = te_num_tiles(kernel);
  TVMBO_CHECK(tiles.size() == base || tiles.size() == base + 2 ||
              tiles.size() == base + 5)
      << "wrong tile count for " << kernel << ": got " << tiles.size()
      << ", want " << base << ", " << base + 2
      << " (base tiles + [parallel_axis, threads]), or " << base + 5
      << " (base tiles + [parallel_axis, threads, vec_axis, unroll, pack])";

  int par_axis = 0;
  int vec_axis = 0;
  std::int64_t unroll = 0;
  bool pack = false;
  if (tiles.size() >= base + 2) {
    par_axis = static_cast<int>(tiles[base]);
    TVMBO_CHECK(par_axis >= 0 &&
                par_axis <= static_cast<int>(te_num_parallel_axes(kernel)))
        << "parallel_axis " << par_axis << " out of range for " << kernel;
    const std::int64_t threads = tiles[base + 1];
    TVMBO_CHECK_GE(threads, 0)
        << "thread budget must be >= 0 (0 = all cores)";
    lowered.parallel_threads = static_cast<int>(threads);
    if (tiles.size() == base + 5) {
      vec_axis = static_cast<int>(tiles[base + 2]);
      TVMBO_CHECK(vec_axis >= 0 && vec_axis <= 2)
          << "vec_axis must be 0 (none), 1 (innermost), or 2 "
             "(second-innermost); got " << vec_axis;
      unroll = tiles[base + 3];
      TVMBO_CHECK(unroll == 0 || unroll >= 2)
          << "unroll factor must be 0 (off) or >= 2; got " << unroll;
      const std::int64_t pack_flag = tiles[base + 4];
      TVMBO_CHECK(pack_flag == 0 || pack_flag == 1)
          << "pack must be 0 or 1; got " << pack_flag;
      pack = pack_flag == 1;
      lowered.unroll_factor = static_cast<int>(unroll);
    }
    tiles = tiles.first(base);
  }

  if (kernel == "3mm") {
    ThreeMmTensors t = make_3mm(dims[0], dims[1], dims[2], dims[3], dims[4]);
    lowered.stmt = te::lower(schedule_3mm(t, tiles, par_axis, vec_axis,
                                          unroll, pack));
    lowered.params = {t.A, t.B, t.C, t.D, t.G};
  } else if (kernel == "gemm") {
    GemmTensors t = make_gemm(dims[0], dims[1], dims[2]);
    lowered.stmt = te::lower(schedule_gemm(t, tiles[0], tiles[1], par_axis,
                                           vec_axis, unroll, pack));
    lowered.params = {t.A, t.B, t.C};
  } else if (kernel == "2mm") {
    TwoMmTensors t = make_2mm(dims[0], dims[1], dims[2], dims[3]);
    lowered.stmt = te::lower(schedule_2mm(t, tiles, par_axis, vec_axis,
                                          unroll, pack));
    lowered.params = {t.A, t.B, t.C, t.D};
  } else if (kernel == "syrk") {
    SyrkTensors t = make_syrk(dims[0], dims[1]);
    lowered.stmt = te::lower(schedule_syrk(t, tiles[0], tiles[1], par_axis,
                                           vec_axis, unroll, pack));
    lowered.params = {t.A, t.Cin, t.Cout};
  } else {  // lu / cholesky: in-place factorization of a work copy
    const std::int64_t n = dims[0];
    te::Tensor a = te::placeholder({n, n}, "A");
    FactorizationProgram program =
        kernel == "lu" ? build_lu(a, n) : build_cholesky(a, n);
    const std::int64_t ty = std::clamp<std::int64_t>(tiles[0], 1, n);
    const std::int64_t tx = std::clamp<std::int64_t>(tiles[1], 1, n);
    te::Var io, ii, jo, ji;
    te::Stmt stmt =
        te::split_loop(program.stmt, program.update_i, ty, &io, &ii);
    stmt = te::split_loop(stmt, program.update_j, tx, &jo, &ji);
    // Non-exact splits guard the tail, breaking the perfect nesting the
    // interchange needs; the divisor-derived spaces always split exactly.
    const bool interchanged = n % ty == 0 && n % tx == 0;
    if (interchanged) {
      stmt = te::interchange_loops(stmt, ii, jo);
    }
    // vec/unroll targets come from the pre-unroll trailing-update nest:
    // {io, jo, ii, ji} when interchanged, {io, ii, jo, ji} otherwise.
    // vec_axis 1 = innermost (ji), 2 = second-innermost; the unroll
    // split takes the innermost loop unless it is vectorized, then the
    // second-innermost — the two knobs never collide.
    const te::Var second = interchanged ? ii : jo;
    const te::Var vec_target =
        vec_axis == 1 ? ji : vec_axis == 2 ? second : te::Var();
    if (unroll >= 2) {
      te::Var uo, ui;
      stmt = te::split_loop(stmt, vec_axis == 1 ? second : ji, unroll, &uo,
                            &ui);
      stmt = te::annotate_loop(stmt, ui, te::ForKind::kUnrolled);
    }
    // Array packing: snapshot the pivot column A[*, k] into a contiguous
    // scratch hoisted outside the io loop, so the update's A[i2, k] reads
    // stop restriding whole rows. The hoisted Realize lands after the
    // scale loop in the k-step sequence, so the snapshot observes the
    // scaled column; pack_reads proves every redirected read in-window
    // and every A write disjoint from it (the j > k guard).
    if (pack) {
      stmt = te::pack_reads(stmt, a, io, /*wrap_outside=*/true,
                            /*perm=*/{0, 1}, /*invariant_dims=*/{1},
                            "a_col_pack");
    }
    // Vectorize/parallel annotations last, on the final loop structure:
    // annotate_loop demands a race-freedom proof from the affine
    // dependence analyzer and throws if it fails. For io the argument is
    // that distinct io chunks update disjoint rows of the trailing
    // submatrix while the pivot row/column reads at step k are never
    // written inside the update nest.
    if (vec_target != nullptr) {
      stmt = te::annotate_loop(stmt, vec_target, te::ForKind::kVectorized);
    }
    if (par_axis == 1) {
      stmt = te::annotate_loop(stmt, io, te::ForKind::kParallel);
    }
    lowered.stmt = stmt;
    lowered.params = {a};
  }
  return lowered;
}

namespace {

TeLoweredProgram lower_for(const std::shared_ptr<TeKernelData>& data,
                           std::span<const std::int64_t> tiles) {
  TVMBO_CHECK(data != nullptr) << "null kernel data";
  return lower_te_program(data->kernel, data->dims, tiles);
}

}  // namespace

TeProgramInstance::TeProgramInstance(std::shared_ptr<TeKernelData> data,
                                     std::span<const std::int64_t> tiles)
    : TeProgramInstance(data, lower_for(data, tiles)) {}

TeProgramInstance::TeProgramInstance(std::shared_ptr<TeKernelData> data,
                                     TeLoweredProgram lowered)
    : data_(std::move(data)) {
  TVMBO_CHECK(data_ != nullptr) << "null kernel data";
  const std::string& kernel = data_->kernel;
  const std::vector<std::int64_t>& dims = data_->dims;
  stmt_ = lowered.stmt;
  parallel_threads_ = lowered.parallel_threads;
  unroll_factor_ = lowered.unroll_factor;

  auto own = [&](std::vector<std::int64_t> shape) {
    owned_.push_back(std::make_unique<runtime::NDArray>(std::move(shape)));
    return owned_.back().get();
  };

  if (kernel == "lu" || kernel == "cholesky") {
    output_ = own({dims[0], dims[0]});
    pristine_ = &data_->inputs[0];
    bindings_ = {{lowered.params[0], output_}};
    reset();
    return;
  }
  std::vector<std::int64_t> out_shape;
  if (kernel == "3mm") {
    out_shape = {dims[0], dims[4]};
  } else if (kernel == "gemm") {
    out_shape = {dims[0], dims[1]};
  } else if (kernel == "2mm") {
    out_shape = {dims[0], dims[3]};
  } else {  // syrk
    out_shape = {dims[0], dims[0]};
  }
  TVMBO_CHECK_EQ(lowered.params.size(), data_->inputs.size() + 1)
      << "param/input mismatch for " << kernel;
  output_ = own(std::move(out_shape));
  for (std::size_t i = 0; i < data_->inputs.size(); ++i) {
    bindings_.emplace_back(lowered.params[i], &data_->inputs[i]);
  }
  bindings_.emplace_back(lowered.params.back(), output_);
}

void TeProgramInstance::reset() {
  if (pristine_ == nullptr) return;
  // Element-wise copy: compiled programs hold the base pointer, so the
  // work array must be refilled, never reallocated.
  std::span<const double> src = pristine_->f64();
  std::span<double> dst = output_->f64();
  TVMBO_CHECK_EQ(src.size(), dst.size()) << "work/pristine shape mismatch";
  std::copy(src.begin(), src.end(), dst.begin());
}

namespace {

/// Execution state shared between a MeasureInput's static_check, prepare
/// and run closures. static_check leaves the program it screened in
/// `screened`; prepare() takes it (or lowers anew when there is none) and
/// fills the rest; run() executes it.
struct TeExecState {
  std::optional<TeLoweredProgram> screened;
  std::unique_ptr<TeProgramInstance> instance;
  std::optional<te::CompiledProgram> closure;
  std::optional<codegen::JitProgram> jit;
};

void prepare_state(TeExecState& state,
                   const std::shared_ptr<TeKernelData>& data,
                   const std::vector<std::int64_t>& tiles,
                   runtime::ExecBackend backend,
                   const codegen::JitOptions& jit_options) {
  std::optional<TeLoweredProgram> screened =
      std::exchange(state.screened, std::nullopt);
  state.instance =
      screened ? std::make_unique<TeProgramInstance>(data, std::move(*screened))
               : std::make_unique<TeProgramInstance>(data, tiles);
  switch (backend) {
    case runtime::ExecBackend::kInterp:
      break;  // the interpreter walks the IR directly; nothing to compile
    case runtime::ExecBackend::kClosure: {
      te::CompileOptions compile_options;
      compile_options.parallel_threads = state.instance->parallel_threads();
      state.closure = te::CompiledProgram::compile(
          state.instance->stmt(), state.instance->bindings(),
          compile_options);
      break;
    }
    case runtime::ExecBackend::kJit: {
      codegen::JitOptions options = jit_options;
      options.parallel_threads = state.instance->parallel_threads();
      options.unroll_factor = state.instance->unroll_factor();
      state.jit = codegen::JitProgram::compile(
          state.instance->stmt(), state.instance->bindings(), options);
      break;
    }
    case runtime::ExecBackend::kNative:
      TVMBO_CHECK(false) << "native backend has no TE program path";
  }
}

void run_state(TeExecState& state, runtime::ExecBackend backend) {
  TVMBO_CHECK(state.instance != nullptr) << "run before prepare";
  state.instance->reset();
  switch (backend) {
    case runtime::ExecBackend::kInterp: {
      te::Interpreter interp;
      for (const auto& [tensor, array] : state.instance->bindings()) {
        interp.bind(tensor, array);
      }
      interp.run(state.instance->stmt());
      break;
    }
    case runtime::ExecBackend::kClosure:
      state.closure->run();
      break;
    case runtime::ExecBackend::kJit:
      state.jit->run();
      break;
    case runtime::ExecBackend::kNative:
      TVMBO_CHECK(false) << "native backend has no TE program path";
  }
}

}  // namespace

runtime::MeasureInput make_te_measure_input(
    std::shared_ptr<TeKernelData> data, const runtime::Workload& workload,
    const std::vector<std::int64_t>& tiles, runtime::ExecBackend backend,
    const codegen::JitOptions& jit_options) {
  TVMBO_CHECK(backend != runtime::ExecBackend::kNative)
      << "native backend does not use TE measure inputs";
  runtime::MeasureInput input;
  input.workload = workload;
  input.tiles = tiles;
  auto state = std::make_shared<TeExecState>();
  input.prepare = [state, data, tiles, backend, jit_options] {
    prepare_state(*state, data, tiles, backend, jit_options);
  };
  input.run = [state, backend] { run_state(*state, backend); };
  // Static pre-screen: lower the config (cheap, no buffers, no execution)
  // and run the full verifier. Lowering itself may throw a CheckError
  // whose message already names the violated rule (e.g.
  // parallel-loop-race from annotate_loop); that surfaces as the
  // violation string too. A passing program is kept for prepare, so a
  // screened trial lowers once.
  input.static_check = [state, data = std::move(data),
                        tiles]() -> std::string {
    try {
      TeLoweredProgram lowered = lower_for(data, tiles);
      std::string violation =
          analysis::screen_program(lowered.stmt, lowered.params)
              .first_error();
      if (violation.empty()) state->screened = std::move(lowered);
      return violation;
    } catch (const std::exception& e) {
      return e.what();
    }
  };
  return input;
}

runtime::NDArray run_te_backend(const std::shared_ptr<TeKernelData>& data,
                                std::span<const std::int64_t> tiles,
                                runtime::ExecBackend backend,
                                const codegen::JitOptions& jit_options) {
  TeExecState state;
  prepare_state(state, data,
                std::vector<std::int64_t>(tiles.begin(), tiles.end()),
                backend, jit_options);
  run_state(state, backend);
  return state.instance->output();
}

}  // namespace tvmbo::kernels
