// tvmbo_transfer: train, evaluate, and query the cross-kernel transfer
// cost model (src/transfer/).
//
//   # Train a model from one or more perf databases and save it:
//   tvmbo_transfer train --db lu_db.jsonl --db chol_db.jsonl \
//       --out model.json
//
//   # Leave-one-kernel-out evaluation (does the model transfer?):
//   tvmbo_transfer eval --db merged_db.jsonl
//
//   # Rank configurations for a (possibly unseen) kernel:
//   tvmbo_transfer predict --model model.json --kernel gemm --size mini \
//       --topk 5
//
// Options:
//   --db FILE       perf database (repeatable; records merge in order)
//   --out FILE      where `train` saves the model
//   --model FILE    saved model for `predict`
//   --learner L     gbt | forest (default gbt)
//   --seed N        training / candidate-sampling seed (default 2023)
//   --kernel K      target kernel for `predict`
//   --size S        dataset name for `predict` (default mini)
//   --nthreads N    thread budget: != 1 ranks the parallel-knob space (1)
//   --topk N        candidates printed by `predict` (default 5)
//   --pool N        candidate pool the model ranks (default 256)
//
// Exit status: 0 on success, 1 when training/eval has too few usable
// samples, 2 on usage errors.
#include <cstdio>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "common/logging.h"
#include "common/string_util.h"
#include "kernels/polybench.h"
#include "runtime/perf_db.h"
#include "transfer/cost_model.h"
#include "transfer/model_store.h"

using namespace tvmbo;

namespace {

struct Args {
  std::string command;
  std::vector<std::string> dbs;
  std::string out;
  std::string model;
  std::string learner = "gbt";
  std::uint64_t seed = 2023;
  std::string kernel;
  std::string size = "mini";
  std::int64_t nthreads = 1;
  std::size_t topk = 5;
  std::size_t pool = 256;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s train --db FILE [--db FILE ...] --out MODEL "
               "[--learner gbt|forest] [--seed N]\n"
               "       %s eval --db FILE [--db FILE ...] "
               "[--learner gbt|forest] [--seed N]\n"
               "       %s predict --model MODEL --kernel K [--size S] "
               "[--nthreads N] [--topk N] [--pool N] [--seed N]\n",
               argv0, argv0, argv0);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  if (argc < 2) usage(argv[0]);
  Args args;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
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
    if (flag == "--db") args.dbs.push_back(value());
    else if (flag == "--out") args.out = value();
    else if (flag == "--model") args.model = value();
    else if (flag == "--learner") args.learner = value();
    else if (flag == "--seed") number(args.seed);
    else if (flag == "--kernel") args.kernel = value();
    else if (flag == "--size") args.size = value();
    else if (flag == "--nthreads") number(args.nthreads);
    else if (flag == "--topk") number(args.topk);
    else if (flag == "--pool") number(args.pool);
    else usage(argv[0]);
  }
  return args;
}

/// Merges every --db into one model (unfitted).
transfer::CostModel load_samples(const Args& args) {
  transfer::CostModelOptions options;
  options.learner = args.learner;
  options.seed = args.seed;
  transfer::CostModel model(options);
  for (const std::string& path : args.dbs) {
    const runtime::PerfDatabase db = runtime::PerfDatabase::load(path);
    const std::size_t added = model.add_database(db);
    std::printf("%s: %zu of %zu record(s) featurized\n", path.c_str(),
                added, db.size());
  }
  return model;
}

int run_train(const Args& args) {
  if (args.dbs.empty() || args.out.empty()) return 2;
  transfer::CostModel model = load_samples(args);
  if (model.size() < 2) {
    std::fprintf(stderr, "error: %zu usable sample(s); need >= 2\n",
                 model.size());
    return 1;
  }
  model.fit();
  transfer::save_model(model, args.out);
  std::printf("trained %s model on %zu sample(s); saved %s\n",
              args.learner.c_str(), model.size(), args.out.c_str());
  return 0;
}

int run_eval(const Args& args) {
  if (args.dbs.empty()) return 2;
  const transfer::CostModel model = load_samples(args);
  const std::vector<transfer::LokoResult> results =
      transfer::leave_one_kernel_out(model.samples(), model.options());
  if (results.empty()) {
    std::fprintf(stderr,
                 "error: need samples from >= 2 kernels for "
                 "leave-one-kernel-out\n");
    return 1;
  }
  std::printf("%-10s %8s %8s %12s %12s\n", "kernel", "train", "test",
              "rank_corr", "top1_regret");
  for (const transfer::LokoResult& result : results) {
    std::printf("%-10s %8zu %8zu %12.4f %12.4f\n", result.kernel.c_str(),
                result.train_size, result.test_size,
                result.rank_correlation, result.top1_regret);
  }
  return 0;
}

int run_predict(const Args& args) {
  if (args.model.empty() || args.kernel.empty()) return 2;
  const transfer::CostModel model = transfer::load_model(args.model);
  if (!model.fitted()) {
    std::fprintf(stderr, "error: model %s has too few samples to rank\n",
                 args.model.c_str());
    return 1;
  }
  const kernels::Dataset dataset = kernels::dataset_from_name(args.size);
  const std::vector<std::int64_t> dims =
      kernels::polybench_dims(args.kernel, dataset);
  kernels::ScheduleKnobs knobs;
  knobs.enabled = args.nthreads != 1;
  knobs.max_threads = args.nthreads;
  const cs::ConfigurationSpace space =
      kernels::build_space(args.kernel, dims, knobs);
  const std::vector<transfer::RankedConfig> ranked = transfer::rank_configs(
      model, space, args.kernel, dims, args.topk, args.pool, args.seed);
  std::printf("%s %s: top %zu of a %zu-candidate pool\n",
              args.kernel.c_str(), args.size.c_str(), ranked.size(),
              args.pool);
  for (const transfer::RankedConfig& candidate : ranked) {
    std::string tiles = "[";
    for (std::size_t i = 0; i < candidate.tiles.size(); ++i) {
      if (i > 0) tiles += ",";
      tiles += std::to_string(candidate.tiles[i]);
    }
    tiles += "]";
    std::printf("  tiles=%-28s predicted %.6e s\n", tiles.c_str(),
                candidate.predicted_runtime_s);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  int status = 2;
  try {
    if (args.command == "train") status = run_train(args);
    else if (args.command == "eval") status = run_eval(args);
    else if (args.command == "predict") status = run_predict(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  if (status == 2) usage(argv[0]);
  return status;
}
