#include "framework/session.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "analysis/proof_cache.h"
#include "common/logging.h"
#include "common/timer.h"
#include "kernels/te_programs.h"
#include "transfer/cost_model.h"
#include "tuners/measure_loop.h"

namespace tvmbo::framework {

namespace {

/// The metric a strategy minimizes under `objective`, and whether the
/// measurement counts as valid for it: a non-runtime objective needs a
/// device with a power model (energy_j > 0).
std::pair<double, bool> objective_metric(Objective objective,
                                         double runtime_s, double energy_j,
                                         bool valid) {
  switch (objective) {
    case Objective::kRuntime: return {runtime_s, valid};
    case Objective::kEnergy: return {energy_j, valid && energy_j > 0.0};
    case Objective::kEnergyDelay:
      return {energy_j * runtime_s, valid && energy_j > 0.0};
  }
  return {runtime_s, valid};
}

}  // namespace

const char* strategy_name(StrategyKind kind) {
  switch (kind) {
    case StrategyKind::kYtopt: return "ytopt";
    case StrategyKind::kAutotvmRandom: return "autotvm-random";
    case StrategyKind::kAutotvmGridSearch: return "autotvm-gridsearch";
    case StrategyKind::kAutotvmGa: return "autotvm-ga";
    case StrategyKind::kAutotvmXgb: return "autotvm-xgb";
  }
  return "?";
}

const char* objective_name(Objective objective) {
  switch (objective) {
    case Objective::kRuntime: return "runtime";
    case Objective::kEnergy: return "energy";
    case Objective::kEnergyDelay: return "energy-delay";
  }
  return "?";
}

std::optional<StrategyKind> strategy_from_name(const std::string& name) {
  if (name == "ytopt") return StrategyKind::kYtopt;
  if (name == "random" || name == "autotvm-random") {
    return StrategyKind::kAutotvmRandom;
  }
  if (name == "gridsearch" || name == "autotvm-gridsearch") {
    return StrategyKind::kAutotvmGridSearch;
  }
  if (name == "ga" || name == "autotvm-ga") return StrategyKind::kAutotvmGa;
  if (name == "xgb" || name == "autotvm-xgb") {
    return StrategyKind::kAutotvmXgb;
  }
  return std::nullopt;
}

std::vector<StrategyKind> all_strategies() {
  return {StrategyKind::kAutotvmGa, StrategyKind::kAutotvmRandom,
          StrategyKind::kAutotvmGridSearch, StrategyKind::kAutotvmXgb,
          StrategyKind::kYtopt};
}

std::unique_ptr<tuners::Tuner> make_strategy_tuner(
    StrategyKind kind, const cs::ConfigurationSpace* space,
    std::uint64_t session_seed, const StrategyFactoryOptions& factory,
    std::span<const tuners::Trial> warm_start,
    std::span<const cs::Configuration> seed_configs) {
  TVMBO_CHECK(space != nullptr) << "strategy factory requires a space";
  // Derive a per-strategy seed so strategies are independent but the whole
  // experiment is reproducible from the session seed.
  const std::uint64_t seed =
      hash_combine(session_seed, static_cast<std::uint64_t>(kind) + 17);
  switch (kind) {
    case StrategyKind::kYtopt: {
      auto bo =
          std::make_unique<ytopt::BayesianOptimizer>(space, seed, factory.bo);
      if (!warm_start.empty()) {
        bo->warm_start({warm_start.data(), warm_start.size()});
      }
      if (!seed_configs.empty()) {
        bo->seed_proposals(
            {seed_configs.begin(), seed_configs.end()});
      }
      return bo;
    }
    case StrategyKind::kAutotvmRandom:
      return autotvm::create_tuner(autotvm::TunerType::kRandom, space, seed);
    case StrategyKind::kAutotvmGridSearch:
      return autotvm::create_tuner(autotvm::TunerType::kGridSearch, space,
                                   seed);
    case StrategyKind::kAutotvmGa:
      return autotvm::create_tuner(autotvm::TunerType::kGa, space, seed);
    case StrategyKind::kAutotvmXgb: {
      autotvm::TunerFactoryOptions options;
      options.xgb_paper_eval_cap = factory.xgb_paper_eval_cap;
      return autotvm::create_tuner(autotvm::TunerType::kXgb, space, seed,
                                   options);
    }
  }
  TVMBO_CHECK(false) << "unknown strategy";
  return nullptr;
}

AutotuningSession::AutotuningSession(const autotvm::Task* task,
                                     runtime::Device* device,
                                     SessionOptions options)
    : task_(task), device_(device), options_(options) {
  TVMBO_CHECK(task_ != nullptr && device_ != nullptr)
      << "session requires a task and a device";
  TVMBO_CHECK_GT(options_.max_evaluations, 0u)
      << "max_evaluations must be positive";
  TVMBO_CHECK_GT(options_.batch_size, 0u) << "batch_size must be positive";
  TVMBO_CHECK(!options_.async || options_.ytopt_batch_size <= 1)
      << "async streaming asks one configuration per free slot; it cannot "
         "honour ytopt_batch_size "
      << options_.ytopt_batch_size;
}

std::unique_ptr<tuners::Tuner> AutotuningSession::make_strategy(
    StrategyKind kind, WarmStartStats* warm_stats,
    std::size_t* transfer_seeds) const {
  StrategyFactoryOptions factory;
  factory.xgb_paper_eval_cap = options_.xgb_paper_eval_cap;
  factory.bo = options_.bo;
  std::vector<tuners::Trial> prior;
  if (kind == StrategyKind::kYtopt && options_.warm_start != nullptr) {
    prior = warm_start_trials(warm_stats);
  }
  std::vector<cs::Configuration> seeds;
  if (kind == StrategyKind::kYtopt && options_.transfer_model != nullptr) {
    const std::string& kernel = task_->workload.kernel;
    if (kernels::te_backend_supported(kernel)) {
      seeds = transfer::rank_seed_configs(
          *options_.transfer_model, task_->config.space(), kernel,
          task_->workload.dims, options_.transfer_topk,
          options_.transfer_pool, hash_combine(options_.seed, 0x7f5u));
    } else {
      TVMBO_LOG(Warning)
          << "transfer model ignored: kernel '" << kernel
          << "' has no TE program to featurize";
    }
  }
  if (transfer_seeds != nullptr) *transfer_seeds = seeds.size();
  return make_strategy_tuner(kind, &task_->config.space(), options_.seed,
                             factory, prior, seeds);
}

std::vector<tuners::Trial> AutotuningSession::warm_start_trials(
    WarmStartStats* stats) const {
  std::vector<tuners::Trial> prior;
  WarmStartStats local;
  if (options_.warm_start == nullptr) {
    if (stats != nullptr) *stats = local;
    return prior;
  }
  const cs::ConfigurationSpace& space = task_->config.space();
  const std::string workload_id = task_->workload.id();
  for (const runtime::TrialRecord& record :
       options_.warm_start->records()) {
    if (record.workload_id != workload_id) {
      ++local.skipped_workload;
      continue;
    }
    std::vector<double> values;
    values.reserve(record.tiles.size());
    for (std::int64_t tile : record.tiles) {
      values.push_back(static_cast<double>(tile));
    }
    cs::Configuration config;
    try {
      config = space.from_values(values);
    } catch (const CheckError&) {
      ++local.skipped_space;  // saved under a different space
      continue;
    }
    const auto [metric, valid] = objective_metric(
        options_.objective, record.runtime_s, record.energy_j, record.valid);
    prior.push_back({config, metric, valid});
    ++local.seeded;
  }
  if (local.skipped_workload + local.skipped_space > 0) {
    TVMBO_LOG(Warning) << "warm start: seeded " << local.seeded << " of "
                       << local.total() << " prior record(s) for "
                       << workload_id << " (skipped "
                       << local.skipped_workload << " other-workload, "
                       << local.skipped_space << " out-of-space)";
  }
  if (stats != nullptr) *stats = local;
  return prior;
}

double AutotuningSession::modeled_overhead_s(
    StrategyKind kind, std::size_t observed,
    std::size_t batch_members) const {
  if (!options_.charge_strategy_overhead) return 0.0;
  const double n = static_cast<double>(observed);
  const double members = static_cast<double>(batch_members);
  switch (kind) {
    case StrategyKind::kYtopt:
      // Surrogate refit grows with observations, plus driver overhead
      // (ytopt regenerates + evaluates the code mold per iteration).
      return 0.9 + 0.012 * n;
    case StrategyKind::kAutotvmRandom:
    case StrategyKind::kAutotvmGridSearch:
      // Trivial proposal; only the per-evaluation measure RPC overhead.
      return 0.05 + 0.15 * members;
    case StrategyKind::kAutotvmGa:
      return 0.25 + 0.15 * members;
    case StrategyKind::kAutotvmXgb:
      // Cost-model (re)training + simulated-annealing proposal per batch.
      return 0.8 + 0.05 * n + 0.15 * members;
  }
  return 0.0;
}

SessionResult AutotuningSession::run(StrategyKind kind) {
  SessionResult result;
  std::unique_ptr<tuners::Tuner> strategy =
      make_strategy(kind, &result.warm_start, &result.transfer_seeds);
  result.strategy = strategy->name();

  // Barrier rounds of the AutoTVM batch, or of ytopt's qLCB batch (1 is
  // the paper's strictly sequential AMBS loop); --async streams instead.
  const bool ytopt = kind == StrategyKind::kYtopt;
  tuners::MeasureLoopOptions loop;
  loop.max_evaluations = options_.max_evaluations;
  loop.batch_size = ytopt ? std::max<std::size_t>(1, options_.ytopt_batch_size)
                          : options_.batch_size;
  loop.measure.repeat = ytopt ? options_.ytopt_repeat : options_.autotvm_repeat;
  loop.measure.timeout_s = options_.measure_timeout_s;
  TVMBO_CHECK_GT(loop.measure.repeat, 0) << "repeat must be positive";
  // ytopt's paper configuration (batch 1) compiles strictly sequentially;
  // AutoTVM and qLCB batches (> 1) get the parallel builder farm.
  const bool parallel_build = !ytopt || loop.batch_size > 1;
  const double repeat = static_cast<double>(loop.measure.repeat);

  // All measurement goes through the runner: fault isolation, retries,
  // trace events, and (when enabled) parallel execution. The default
  // options reproduce the historical sequential loop exactly.
  runtime::MeasureRunnerOptions runner_options = options_.measure;
  runner_options.strategy = result.strategy;
  runtime::MeasureRunner runner(device_, runner_options);

  // The process clock. Streamed trials overlap, so they are stamped with
  // real wall-clock; a barrier round advances the paper's modeled clock.
  const Stopwatch wall;
  double clock = 0.0;
  std::size_t evaluations = 0;
  tuners::LoopHooks hooks;
  hooks.metric = [this](const runtime::MeasureResult& measured) {
    return objective_metric(options_.objective, measured.runtime_s,
                            measured.energy_j, measured.valid);
  };
  hooks.on_round = [&](std::span<const tuners::Trial> trials,
                       std::span<const runtime::MeasureResult> measured) {
    double round_run = 0.0;
    if (options_.async) {
      clock = wall.elapsed_seconds();
    } else {
      // Builder-farm batches are charged max(compile), sequential ytopt
      // the sum; then `repeat` timed runs per member and the strategy's
      // modeled per-round overhead.
      double compile_sum = 0.0;
      double compile_max = 0.0;
      for (const runtime::MeasureResult& m : measured) {
        compile_sum += m.compile_s;
        compile_max = std::max(compile_max, m.compile_s);
        round_run += m.runtime_s * repeat;
      }
      clock += parallel_build ? compile_max : compile_sum;
      clock += round_run;
      clock += modeled_overhead_s(kind, strategy->history().size(),
                                  trials.size());
    }
    // A barrier round's trials are spread across its run window in
    // measurement order for a faithful per-evaluation timeline.
    double within = clock - round_run;
    for (std::size_t i = 0; i < trials.size(); ++i) {
      if (!options_.async) within += measured[i].runtime_s * repeat;
      runtime::TrialRecord record;
      record.eval_index = static_cast<int>(evaluations++);
      record.strategy = result.strategy;
      record.workload_id = task_->workload.id();
      record.tiles = task_->config.space().values_int(trials[i].config);
      record.runtime_s = measured[i].runtime_s;
      record.energy_j = measured[i].energy_j;
      record.compile_s = measured[i].compile_s;
      record.elapsed_s = within;
      record.valid = trials[i].valid;
      record.backend = options_.record_backend;
      record.nthreads = options_.record_nthreads;
      result.db.add(record);
    }
    return options_.max_time_s <= 0.0 || clock < options_.max_time_s;
  };
  tuners::drive_measure_loop(
      *strategy, runner,
      [this](const cs::Configuration& config) {
        return task_->measure_input(config);
      },
      loop,
      options_.async ? tuners::RoundPolicy::kStreaming
                     : tuners::RoundPolicy::kBarrier,
      hooks);

  result.total_time_s = options_.async ? wall.elapsed_seconds() : clock;
  result.evaluations = evaluations;
  result.analysis_rejects = runner.analysis_rejects();
  if (options_.measure.trace != nullptr) {
    // Proof-cache effectiveness for this run: how many race/verify
    // queries the structural cache absorbed vs full prover executions
    // (process-global counters, stamped per strategy for attribution).
    Json e = Json::object();
    e.set("event", "analysis_cache_stats");
    e.set("strategy", result.strategy);
    e.set("stats", analysis::ProofCache::global().stats().to_json());
    options_.measure.trace->record(std::move(e));
  }
  // Best record by the configured objective.
  double best_metric = std::numeric_limits<double>::infinity();
  for (const runtime::TrialRecord& record : result.db.records()) {
    const auto [metric, valid] = objective_metric(
        options_.objective, record.runtime_s, record.energy_j, record.valid);
    if (valid && metric < best_metric) {
      best_metric = metric;
      result.best = record;
    }
  }
  return result;
}

std::vector<SessionResult> AutotuningSession::run_all() {
  std::vector<SessionResult> results;
  for (StrategyKind kind : all_strategies()) {
    results.push_back(run(kind));
  }
  return results;
}

}  // namespace tvmbo::framework
