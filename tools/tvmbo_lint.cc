// tvmbo_lint: static config-space linter.
//
// Runs the loop-IR static analysis pipeline (src/analysis/: structural
// verifier, affine bounds prover, parallel-race prover) over configured
// kernel schedules WITHOUT executing anything — the same checks the
// measurement engine's --screen pre-screener applies per trial, exposed as
// a standalone CLI for auditing whole configuration spaces.
//
//   # Lint one configuration:
//   tvmbo_lint --kernel 3mm --size mini --tiles 8,8,4,8,4,8
//
//   # Sample-sweep every kernel's fully widened schedule space
//   # (parallel + vectorize + unroll + pack knobs):
//   tvmbo_lint --kernel all --size mini --sweep --samples 64
//
//   # Exhaustively lint a small space:
//   tvmbo_lint --kernel lu --size mini --sweep --exhaustive
//
// Options:
//   --kernel K     3mm | gemm | 2mm | syrk | lu | cholesky | all
//                  (default all)
//   --size S       mini | small | medium | large | extralarge
//                  (default mini)
//   --tiles a,b,.. lint exactly this tile vector (base form, or extended
//                  with trailing [parallel_axis, threads] or
//                  [parallel_axis, threads, vec_axis, unroll, pack]);
//                  requires a single --kernel
//   --sweep        lint many configurations from the kernel's fully
//                  widened tuned space (tile ordinals plus the
//                  parallel_axis/threads/vec_axis/unroll/pack knobs —
//                  every sampled config exercises the race prover and
//                  the pack-placement proofs)
//   --samples N    configurations sampled per kernel in --sweep mode
//                  (default 64)
//   --exhaustive   lint every configuration in the space instead of
//                  sampling (refuses spaces larger than 1e6)
//   --threads N    cap for the thread-count knob candidates in the swept
//                  space (default 4; 0 = all hardware threads)
//   --seed N       sampling seed (default 2023)
//   --verbose      print the lowered IR for accepted configs too
//   --explain      for parallel-loop-race rejections, print the concrete
//                  counterexample witness: the two iteration vectors and
//                  the aliasing tensor element the exact solver found
//                  (validated by replaying both accesses through the
//                  affine evaluator)
//   --no-cache     disable the structural proof cache (every config is
//                  proven from scratch; for differential cache testing)
//   --features     with --tiles: instead of linting, print the transfer
//                  feature vector (src/transfer/features.h) extracted
//                  from the configured schedule's lowered IR — the exact
//                  columns the cross-kernel cost model trains on
//
// Race verdicts are three-valued (see src/analysis/dependence.h):
//   proven-safe    rule-based or exact-solver disjointness proof; the
//                  config is accepted
//   proven-racy    rule `parallel-loop-race` — a concrete conflicting
//                  iteration pair exists and replayed successfully
//                  (--explain prints it)
//   unknown        rule `parallel-loop-unproven` — a solver work bound
//                  was hit; rejected conservatively, never guessed
//
// Exit status: 0 when every linted configuration is clean, 1 when any
// violation was found, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/config_screen.h"
#include "analysis/proof_cache.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "kernels/polybench.h"
#include "kernels/te_programs.h"
#include "te/printer.h"
#include "transfer/features.h"

using namespace tvmbo;

namespace {

struct Args {
  std::string kernel = "all";
  std::string size = "mini";
  std::vector<std::int64_t> tiles;
  bool have_tiles = false;
  bool sweep = false;
  std::size_t samples = 64;
  bool exhaustive = false;
  std::int64_t threads = 4;
  std::uint64_t seed = 2023;
  bool verbose = false;
  bool explain = false;
  bool no_cache = false;
  bool features = false;
};

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--kernel K|all] [--size S] [--tiles a,b,...] "
               "[--sweep] [--samples N] [--exhaustive] [--threads N] "
               "[--seed N] [--verbose] [--explain] [--no-cache] "
               "[--features]\n"
               "\n"
               "Race verdicts are three-valued:\n"
               "  proven-safe   disjointness proof found; config accepted\n"
               "  proven-racy   [parallel-loop-race] concrete conflicting\n"
               "                iteration pair, validated by replaying both\n"
               "                accesses (--explain prints the witness)\n"
               "  unknown       [parallel-loop-unproven] solver work bound\n"
               "                hit; rejected conservatively\n"
               "\n"
               "Exit status: 0 every linted configuration clean,\n"
               "             1 at least one violation found,\n"
               "             2 usage error.\n",
               argv0);
}

[[noreturn]] void usage(const char* argv0) {
  print_usage(stderr, argv0);
  std::exit(2);
}

/// Comma-separated tile factors; nullopt if any field is not an integer.
std::optional<std::vector<std::int64_t>> parse_tiles(const std::string& text) {
  std::vector<std::int64_t> tiles;
  for (const std::string& field : split(text, ',')) {
    const std::optional<std::int64_t> tile =
        parse_number<std::int64_t>(field);
    if (!tile.has_value()) return std::nullopt;
    tiles.push_back(*tile);
  }
  return tiles;
}

Args parse(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0]);
      return argv[++i];
    };
    // A numeric flag's whole value must parse, or it is a usage error.
    auto number = [&](auto& out) {
      const std::string text = value();
      const auto parsed = parse_number<std::decay_t<decltype(out)>>(text);
      if (!parsed.has_value()) {
        std::fprintf(stderr, "error: invalid value '%s' for %s\n",
                     text.c_str(), flag.c_str());
        usage(argv[0]);
      }
      out = *parsed;
    };
    if (flag == "--kernel") args.kernel = value();
    else if (flag == "--size") args.size = value();
    else if (flag == "--tiles") {
      const std::string text = value();
      std::optional<std::vector<std::int64_t>> tiles = parse_tiles(text);
      if (!tiles.has_value()) {
        std::fprintf(stderr, "error: invalid value '%s' for --tiles\n",
                     text.c_str());
        usage(argv[0]);
      }
      args.tiles = std::move(*tiles);
      args.have_tiles = true;
    } else if (flag == "--sweep") args.sweep = true;
    else if (flag == "--samples") number(args.samples);
    else if (flag == "--exhaustive") args.exhaustive = true;
    else if (flag == "--threads") number(args.threads);
    else if (flag == "--seed") number(args.seed);
    else if (flag == "--verbose") args.verbose = true;
    else if (flag == "--explain") args.explain = true;
    else if (flag == "--no-cache") args.no_cache = true;
    else if (flag == "--features") args.features = true;
    else if (flag == "--help" || flag == "-h") {
      print_usage(stdout, argv[0]);
      std::exit(0);
    } else usage(argv[0]);
  }
  if (args.features && !args.have_tiles) {
    std::fprintf(stderr, "error: --features requires --tiles\n");
    std::exit(2);
  }
  if (!args.have_tiles && !args.sweep) usage(argv[0]);
  if (args.have_tiles && args.sweep) {
    std::fprintf(stderr, "error: --tiles and --sweep are exclusive\n");
    std::exit(2);
  }
  if (args.have_tiles && args.kernel == "all") {
    std::fprintf(stderr, "error: --tiles requires a single --kernel\n");
    std::exit(2);
  }
  return args;
}

std::string tiles_to_string(const std::vector<std::int64_t>& tiles) {
  std::string out = "[";
  for (std::size_t i = 0; i < tiles.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(tiles[i]);
  }
  return out + "]";
}

std::string ir_excerpt(const te::Stmt& stmt) {
  constexpr std::size_t kMax = 600;
  std::string ir = te::to_string(stmt);
  if (ir.size() > kMax) ir = ir.substr(0, kMax) + "...";
  return ir;
}

/// Lints one tile vector: instantiates the schedule (construction failures
/// — e.g. a rejected parallel axis — count as violations too) and runs the
/// full verifier + race prover over the lowered IR. Returns the number of
/// violations found and updates `stats`.
std::size_t lint_config(const std::shared_ptr<kernels::TeKernelData>& data,
                        const std::vector<std::int64_t>& tiles,
                        analysis::ScreenStats& stats, bool verbose,
                        bool explain) {
  const std::string label =
      data->kernel + " tiles=" + tiles_to_string(tiles);
  analysis::ScreenResult result;
  std::string ir;
  try {
    kernels::TeProgramInstance instance(data, tiles);
    std::vector<te::Tensor> params;
    for (const auto& [tensor, array] : instance.bindings()) {
      (void)array;
      params.push_back(tensor);
    }
    result = analysis::screen_program(instance.stmt(), params);
    ir = ir_excerpt(instance.stmt());
  } catch (const std::exception& e) {
    // Schedule construction itself rejected the config (annotate_loop's
    // race gate, tile validation, ...). Attribute the message to its rule
    // id when it carries one, else file it under schedule-reject.
    analysis::Violation violation;
    const std::string what = e.what();
    const std::size_t colon = what.find(": ");
    const bool has_rule =
        colon != std::string::npos && what.find(' ') > colon;
    violation.rule = has_rule ? what.substr(0, colon) : "schedule-reject";
    violation.message = has_rule ? what.substr(colon + 2) : what;
    result.violations.push_back(std::move(violation));
  }
  stats.add(result);
  if (result.ok()) {
    if (verbose) {
      std::printf("OK   %s\n%s\n", label.c_str(), ir.c_str());
    }
    return 0;
  }
  std::printf("FAIL %s\n", label.c_str());
  for (const analysis::Violation& violation : result.violations) {
    std::printf("  [%s] %s\n", violation.rule.c_str(),
                violation.message.c_str());
    if (explain && !violation.witness.empty()) {
      std::printf("    witness: %s\n", violation.witness.c_str());
    }
    if (!violation.where.empty()) {
      std::printf("    at: %s\n", violation.where.c_str());
    }
  }
  if (!ir.empty()) std::printf("  IR:\n%s\n", ir.c_str());
  return result.violations.size();
}

std::size_t lint_kernel(const Args& args, const std::string& kernel) {
  const kernels::Dataset dataset = kernels::dataset_from_name(args.size);
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims(kernel, dataset);
  const std::shared_ptr<kernels::TeKernelData> data =
      kernels::make_te_kernel_data(kernel, dims);

  analysis::ScreenStats stats;
  std::size_t violations = 0;

  if (args.have_tiles) {
    violations += lint_config(data, args.tiles, stats, /*verbose=*/true,
                              args.explain);
  } else {
    kernels::ScheduleKnobs knobs;
    knobs.enabled = true;
    knobs.max_threads = args.threads;
    knobs.vectorize = true;
    knobs.unroll = true;
    knobs.pack = true;
    const cs::ConfigurationSpace space =
        kernels::build_space(kernel, dims, knobs);
    if (args.exhaustive) {
      constexpr std::uint64_t kExhaustiveLimit = 1000000;
      if (!space.fully_discrete() ||
          space.cardinality() > kExhaustiveLimit) {
        std::fprintf(stderr,
                     "error: %s space too large for --exhaustive "
                     "(%llu configurations); use --samples\n",
                     kernel.c_str(),
                     static_cast<unsigned long long>(space.cardinality()));
        std::exit(2);
      }
      for (std::uint64_t flat = 0; flat < space.cardinality(); ++flat) {
        violations += lint_config(
            data, space.values_int(space.from_flat_index(flat)), stats,
            args.verbose, args.explain);
      }
    } else {
      Rng rng(args.seed);
      for (std::size_t i = 0; i < args.samples; ++i) {
        violations += lint_config(data, space.values_int(space.sample(rng)),
                                  stats, args.verbose, args.explain);
      }
    }
  }

  std::printf("%s (%s): %s\n", kernel.c_str(), args.size.c_str(),
              stats.summary().c_str());
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);

  std::vector<std::string> kernel_list;
  if (args.kernel == "all") {
    kernel_list = {"3mm", "gemm", "2mm", "syrk", "lu", "cholesky"};
  } else {
    if (!kernels::te_backend_supported(args.kernel)) {
      std::fprintf(stderr, "error: kernel '%s' has no TE program\n",
                   args.kernel.c_str());
      return 2;
    }
    kernel_list = {args.kernel};
  }

  if (args.features) {
    const std::string& kernel = kernel_list[0];
    const std::vector<std::int64_t> dims = kernels::polybench_dims(
        kernel, kernels::dataset_from_name(args.size));
    std::vector<double> values;
    try {
      values = transfer::featurize_config(kernel, dims, args.tiles);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 1;
    }
    const std::vector<std::string>& names = transfer::feature_names();
    std::printf("features: %s %s tiles=%s (schema v%d)\n", kernel.c_str(),
                args.size.c_str(), tiles_to_string(args.tiles).c_str(),
                transfer::kFeatureSchemaVersion);
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::printf("  %-26s %.6f\n", names[i].c_str(), values[i]);
    }
    return 0;
  }

  if (args.no_cache) analysis::ProofCache::global().set_enabled(false);

  std::size_t total_violations = 0;
  for (const std::string& kernel : kernel_list) {
    total_violations += lint_kernel(args, kernel);
  }
  std::printf("%s\n",
              analysis::ProofCache::global().stats().summary().c_str());
  if (total_violations > 0) {
    std::printf("lint: %zu violation(s) found\n", total_violations);
    return 1;
  }
  std::printf("lint: clean\n");
  return 0;
}
