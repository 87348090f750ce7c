// AutotuningSession: the paper's end-to-end autotuning loop (§3).
//
// For each evaluation the session
//   Step1 asks the search strategy for configuration(s),
//   Step2 configures the kernel (code mold -> concrete tiles),
//   Step3 compiles (real for CpuDevice, modeled for SwingSimDevice),
//   Step4 executes and measures the runtime,
//   Step5 records the result in the performance database and feeds the
//         strategy.
//
// It also maintains the "autotuning process time" clock the paper's
// process-over-time figures plot on the x-axis:
//   * AutoTVM tuners measure in batches; batch members compile in parallel
//     (the builder farm), so a batch is charged max(compile) rather than
//     the sum, plus `repeat` timed runs per member and the tuner's own
//     per-batch overhead (e.g. the XGB cost-model refit).
//   * ytopt runs strictly sequentially: every evaluation is charged its
//     full compile, one timed run, and the surrogate refit + acquisition
//     overhead, which grows with the number of observations.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "autotvm/autotvm.h"
#include "runtime/measure.h"
#include "runtime/measure_runner.h"
#include "runtime/perf_db.h"
#include "ytopt/bayes_opt.h"

namespace tvmbo::transfer {
class CostModel;
}

namespace tvmbo::framework {

enum class StrategyKind {
  kYtopt,
  kAutotvmRandom,
  kAutotvmGridSearch,
  kAutotvmGa,
  kAutotvmXgb,
};

const char* strategy_name(StrategyKind kind);

/// Parses a strategy name — the short CLI spellings ("ytopt", "random",
/// "gridsearch", "ga", "xgb") and the full strategy_name() forms
/// ("autotvm-random", …) — or nullopt for anything else.
std::optional<StrategyKind> strategy_from_name(const std::string& name);

/// What the search minimizes. kRuntime is the paper's metric; kEnergy and
/// kEnergyDelay extend the framework toward ytopt's performance+energy
/// tuning (the paper's reference [9]). Non-runtime objectives require a
/// device with a power model (SwingSimDevice).
enum class Objective { kRuntime, kEnergy, kEnergyDelay };

const char* objective_name(Objective objective);

/// All five strategies in the paper's presentation order.
std::vector<StrategyKind> all_strategies();

/// Strategy-specific knobs for make_strategy_tuner() (the subset of
/// SessionOptions the tuner constructors consume).
struct StrategyFactoryOptions {
  /// Reproduce the paper's XGBTuner 56-evaluation artifact (> 0 enables).
  std::size_t xgb_paper_eval_cap = 0;
  ytopt::BoOptions bo;  ///< ytopt settings (kappa, forest, init design)
};

/// Builds the tuner for one strategy with the session's seed-derivation
/// scheme: the per-strategy seed is hash_combine(session_seed, kind + 17),
/// so any driver (AutotuningSession, tvmbo_serve job sessions, custom
/// loops) constructing the same (strategy, session_seed) gets the same
/// proposal stream. `warm_start` seeds the ytopt optimizer with prior
/// trials and `seed_configs` queues transfer-model-ranked configurations
/// as its first proposals (AutoTVM strategies ignore both). The space must
/// outlive the tuner.
std::unique_ptr<tuners::Tuner> make_strategy_tuner(
    StrategyKind kind, const cs::ConfigurationSpace* space,
    std::uint64_t session_seed, const StrategyFactoryOptions& factory = {},
    std::span<const tuners::Trial> warm_start = {},
    std::span<const cs::Configuration> seed_configs = {});

struct SessionOptions {
  std::size_t max_evaluations = 100;  ///< the paper uses 100 everywhere
  double max_time_s = 0.0;            ///< wall-clock budget (0 = unlimited)
  std::size_t batch_size = 8;         ///< AutoTVM measurement batch
  int autotvm_repeat = 3;             ///< AutoTVM timed runs per evaluation
  int ytopt_repeat = 1;               ///< ytopt evaluates the app once
  std::uint64_t seed = 2023;
  /// Reproduce the paper's XGBTuner 56-evaluation artifact (> 0 enables).
  std::size_t xgb_paper_eval_cap = 0;
  /// Charge the modeled framework overheads (Python driver, surrogate
  /// refits, cost-model training) to the process clock. Keep on for the
  /// figure benches; turn off to time only compile+run.
  bool charge_strategy_overhead = true;
  /// Metric the strategies minimize (SessionResult.best is by this too).
  Objective objective = Objective::kRuntime;
  ytopt::BoOptions bo;  ///< ytopt settings (kappa, forest, init design)
  /// Measurement engine (runtime::MeasureRunner). The default — serial,
  /// no retries, no trace — is bit-identical to the historical sequential
  /// measure loop, so SwingSimDevice figure reproductions stay
  /// deterministic. Set `measure.parallel = true` to execute batch
  /// members concurrently on the shared thread pool (per-trial fault
  /// isolation and submission-order results either way), `measure.trace`
  /// to emit the JSON-lines per-trial event log, and `measure.retry` to
  /// re-run transiently failing trials.
  runtime::MeasureRunnerOptions measure;
  /// The session's round policy. Off: barrier rounds (batch_size for
  /// AutoTVM, ytopt_batch_size for ytopt) on the modeled process clock.
  /// On: streaming — the session keeps the runner's async_slots() trials
  /// in flight, asks the strategy for one more configuration the moment
  /// a slot frees and tells each result back in completion order, and
  /// process time is real wall-clock (overlap makes the serial model
  /// meaningless). With a serial runner (measure.parallel == false) the
  /// schedule is strict ask/measure/tell alternation: the fixed-seed
  /// deterministic mode, trajectory-identical to barrier rounds of 1.
  /// Streaming asks one configuration at a time, so it requires
  /// ytopt_batch_size <= 1 (CheckError otherwise).
  bool async = false;
  /// Per-run measurement timeout (MeasureOption::timeout_s; 0 disables).
  /// On CpuDevice this is cooperative — checked between runs — so a
  /// single hung run escapes it; the process runner (distd::ProcDevice)
  /// additionally derives a hard wall-clock deadline from it and
  /// SIGKILLs the worker when a run never returns.
  double measure_timeout_s = 0.0;
  /// ytopt proposal batch size. 1 reproduces the paper's strictly
  /// sequential AMBS loop; > 1 proposes qLCB batches
  /// (BayesianOptimizer::next_batch) so a parallel measurement engine can
  /// evaluate several configurations at once. Barrier rounds only.
  std::size_t ytopt_batch_size = 1;
  /// Transfer learning: prior measurements (e.g. a performance database
  /// saved by an earlier run) seed the ytopt Bayesian optimizer before the
  /// search starts — prior points count toward the initial design, train
  /// the first surrogate, and are never re-proposed. Only records whose
  /// workload_id matches the task and whose tiles lie in the task's space
  /// are used; AutoTVM strategies ignore this. Not owned; must outlive
  /// the session.
  const runtime::PerfDatabase* warm_start = nullptr;
  /// Cross-kernel transfer model (transfer/cost_model.h): when set and
  /// the task's kernel has a TE program, the session samples
  /// `transfer_pool` configurations, ranks them by predicted runtime, and
  /// queues the `transfer_topk` best as ytopt's first proposals
  /// (BayesianOptimizer::seed_proposals) — unlike warm_start, the seeds
  /// are *measured*, so transfer never trusts the model blindly. AutoTVM
  /// strategies ignore it. Not owned; must outlive the session.
  const transfer::CostModel* transfer_model = nullptr;
  std::size_t transfer_topk = 5;
  std::size_t transfer_pool = 256;
  /// Provenance stamped into every TrialRecord (schema v2): the producing
  /// backend name and the thread budget measurements run under.
  std::string record_backend;
  std::int64_t record_nthreads = 1;
};

/// Warm-start accounting for run()/make_strategy: how many prior records
/// became trials vs. were skipped, so a mismatched database is visible
/// instead of silently ignored.
struct WarmStartStats {
  std::size_t seeded = 0;            ///< records converted into trials
  std::size_t skipped_workload = 0;  ///< records for another workload
  std::size_t skipped_space = 0;     ///< tiles outside the task's space
  std::size_t total() const {
    return seeded + skipped_workload + skipped_space;
  }
};

struct SessionResult {
  std::string strategy;
  runtime::PerfDatabase db;
  double total_time_s = 0.0;
  std::optional<runtime::TrialRecord> best;
  std::size_t evaluations = 0;
  /// Configs rejected by the static pre-screener without spending a
  /// worker (only non-zero when options.measure.prescreen is set).
  std::size_t analysis_rejects = 0;
  /// Warm-start accounting for this run (all-zero when
  /// options.warm_start is unset or the strategy ignores it).
  WarmStartStats warm_start;
  /// Transfer-model seeds queued for this run (0 when no model).
  std::size_t transfer_seeds = 0;
};

class AutotuningSession {
 public:
  /// The task and device must outlive the session.
  AutotuningSession(const autotvm::Task* task, runtime::Device* device,
                    SessionOptions options = {});

  /// Runs one strategy from scratch (fresh tuner, fresh clock).
  SessionResult run(StrategyKind kind);

  /// Runs all five strategies (the paper's full comparison for one
  /// kernel/size). Each strategy gets an independent derived seed.
  std::vector<SessionResult> run_all();

  const SessionOptions& options() const { return options_; }

 private:
  std::unique_ptr<tuners::Tuner> make_strategy(
      StrategyKind kind, WarmStartStats* warm_stats = nullptr,
      std::size_t* transfer_seeds = nullptr) const;
  /// Converts options_.warm_start records into trials in the task's space
  /// (skipping other workloads and out-of-space tiles), with the metric
  /// chosen by options_.objective. `stats` (optional) receives the
  /// seeded/skipped accounting.
  std::vector<tuners::Trial> warm_start_trials(
      WarmStartStats* stats = nullptr) const;
  double modeled_overhead_s(StrategyKind kind, std::size_t observed,
                            std::size_t batch_members) const;

  const autotvm::Task* task_;
  runtime::Device* device_;
  SessionOptions options_;
};

}  // namespace tvmbo::framework
