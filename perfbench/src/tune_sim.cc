// tune-sim: the paper's lu/large setting on the analytic SwingSimDevice.
// One round runs, for each of three seeds derived from the run's seed,
// ytopt's sequential ask/measure/tell loop and then AutoTVM-XGB in the
// paper's batch-of-8 loop (measure_batch). The device is analytic and replays exactly, so the time is
// tuner time: surrogate refit + acquisition, tell, and the runner loop.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "framework/session.h"
#include "kernels/polybench.h"
#include "runtime/measure_runner.h"
#include "runtime/swing_sim.h"
#include "tuners/measure_loop.h"

namespace perfbench {
namespace {

using namespace tvmbo;

constexpr std::size_t kTrajectories = 3;  ///< seeds per round
constexpr std::size_t kYtoptEvals = 120;
constexpr std::size_t kXgbEvals = 48;
constexpr std::size_t kXgbBatch = 8;

/// Forwards to a real tuner, timing next_batch (ask) and update (tell).
class TracedTuner final : public tuners::Tuner {
 public:
  TracedTuner(tuners::Tuner& inner, const cs::ConfigurationSpace* space,
              Tracer* tracer, const char* ask, const char* tell)
      : Tuner(space, 0), inner_(inner), tracer_(tracer), ask_(ask),
        tell_(tell) {}
  std::string name() const override { return inner_.name(); }
  std::vector<cs::Configuration> next_batch(std::size_t n) override {
    return traced(tracer_, ask_, asks_++, [&] { return inner_.next_batch(n); });
  }
  void update(std::span<const tuners::Trial> trials) override {
    traced(tracer_, tell_, tells_++, [&] { inner_.update(trials); });
  }
  bool has_next() const override { return inner_.has_next(); }

 private:
  tuners::Tuner& inner_;
  Tracer* tracer_;
  const char* ask_;
  const char* tell_;
  std::int64_t asks_ = 0;  ///< also the observation count at each ask
  std::int64_t tells_ = 0;
};

/// One leg's op boundaries: the leg start, then the time each op's first
/// make_input call happened, then the leg end.
struct Leg {
  std::vector<double> bounds;
  tuners::MeasureLoopResult result;
  std::size_t trials_per_op = 1;
  std::size_t ops() const { return bounds.size() - 1; }
  double op_ms(std::size_t i) const {
    return (bounds[i + 1] - bounds[i]) * 1e3;
  }
};

class TuneSim final : public Workload {
 public:
  explicit TuneSim(const RunOptions& options) : options_(options) {}

  void setup() override {
    workload_ = kernels::make_workload("lu", kernels::Dataset::kLarge);
    space_ = std::make_unique<cs::ConfigurationSpace>(
        kernels::build_space("lu", workload_.dims));
    device_seed_ = options_.seed * 7919 + 2023;
    tuner_seed_ = options_.seed * kTrajectories;
  }

  std::string round(Pass& pass, Tracer* tracer) override {
    Fingerprint fp;
    for (std::size_t k = 0; k < kTrajectories; ++k) {
      trajectory(k, pass, tracer, fp);
    }
    return fp.hex();
  }

  void trajectory(std::size_t k, Pass& pass, Tracer* tracer,
                  Fingerprint& fp) {
    runtime::SwingSimDevice sim(device_seed_ + k);
    TracedDevice traced_device(sim, tracer);
    runtime::Device& device = tracer ? static_cast<runtime::Device&>(
                                           traced_device)
                                     : sim;
    runtime::MeasureRunner runner(&device);
    std::unique_ptr<tuners::Tuner> ytopt = framework::make_strategy_tuner(
        framework::StrategyKind::kYtopt, space_.get(), tuner_seed_ + k);
    std::unique_ptr<tuners::Tuner> xgb = framework::make_strategy_tuner(
        framework::StrategyKind::kAutotvmXgb, space_.get(), tuner_seed_ + k);

    Leg bo = run_leg(*ytopt, runner, tracer, "ytopt.ask", "ytopt.tell",
                     kYtoptEvals, 1, 1, /*async=*/true);
    Leg batch = run_leg(*xgb, runner, tracer, "autotvm.next_batch",
                        "autotvm.update", kXgbEvals, kXgbBatch, 3,
                        /*async=*/false);

    for (const Leg* leg : {&bo, &batch}) {
      for (std::size_t i = 0; i < leg->ops(); ++i) {
        for (std::size_t t = 0; t < leg->trials_per_op; ++t) {
          pass.latency_ms.push_back(leg->op_ms(i));
        }
      }
      pass.busy_s += leg->bounds.back() - leg->bounds.front();
      for (std::size_t i = 0; i < leg->result.trials.size(); ++i) {
        const tuners::Trial& trial = leg->result.trials[i];
        fp.add(space_->values_int(trial.config));
        fp.add(static_cast<std::uint64_t>(trial.valid));
        ++pass.ops;
        ++pass.attempted;
        if (!leg->result.results[i].valid) ++pass.failed;
      }
    }
    if (tracer != nullptr) account(*tracer, bo, batch);
    if (first_.bounds.empty()) {
      first_ = bo;
      first_best_ = ytopt->best() ? ytopt->best()->runtime_s : 0.0;
    }
  }

  void check(Report& report) override {
    // The reported best must be the sim device's own value for that
    // config: replay the first ytopt leg on a fresh device of its seed.
    const std::vector<tuners::Trial>& trials = first_.result.trials;
    runtime::SwingSimDevice replay(device_seed_);
    runtime::MeasureOption option;
    option.repeat = 1;
    bool replay_matches = !trials.empty();
    std::size_t best_index = trials.size();
    for (std::size_t i = 0; i < trials.size(); ++i) {
      runtime::MeasureInput input;
      input.workload = workload_;
      input.tiles = space_->values_int(trials[i].config);
      const runtime::MeasureResult result = replay.measure(input, option);
      replay_matches = replay_matches && result.runtime_s == trials[i].runtime_s;
      if (best_index == trials.size() && trials[i].runtime_s == first_best_) {
        best_index = i;
      }
    }
    report.check(replay_matches,
                 "tune-sim: sim replay disagrees with measured trajectory");
    report.check(best_index < trials.size(),
                 "tune-sim: reported best is not a measured trial");
    if (best_index < trials.size()) {
      const double surface = replay.surface_runtime(
          workload_, space_->values_int(trials[best_index].config));
      report.check(std::abs(first_best_ / surface - 1.0) < 0.1,
                   "tune-sim: best runtime far from the sim surface value");
      best_ms_ = first_best_ * 1e3;
      // Wall-clock until the final best was first reached: end of that op.
      time_to_best_s_ = first_.bounds[best_index + 1] - first_.bounds[0];
    }
    report.check(accounting_ok_,
                 "tune-sim: per-op spans exceed the op's wall-clock");
  }

  void layers(const Tracer& tracer, const Pass&, Report& report) override {
    report.layer("ytopt.ask_ms", median(tracer.durations_ms("ytopt.ask")),
                 "ms");
    report.layer("ytopt.ask_ms_at_100", median(ask_at_100_), "ms");
    report.layer("ytopt.ask_ms_at_end", median(ask_at_end_), "ms");
    report.layer("ytopt.tell_us",
                 median(tracer.durations_ms("ytopt.tell")) * 1e3, "us");
    report.layer("ytopt.time_to_best_s", time_to_best_s_, "s");
    report.layer("ytopt.best_runtime_ms", best_ms_, "ms");
    report.layer("autotvm.next_batch_ms",
                 median(tracer.durations_ms("autotvm.next_batch")), "ms");
    report.layer("autotvm.update_ms",
                 median(tracer.durations_ms("autotvm.update")), "ms");
    report.layer("runtime.device_measure_us",
                 median(tracer.durations_ms("runtime.device_measure")) * 1e3,
                 "us");
    report.layer("runtime.loop_overhead_us", median(overhead_us_), "us");
  }

  void notes(Report& report) override {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "time_to_best_s: %.6f s (first ytopt leg, %zu evals); "
                  "best_runtime_ms: %.6f ms",
                  time_to_best_s_, kYtoptEvals, best_ms_);
    report.note(line);
    if (!overhead_us_.empty()) {
      std::snprintf(line, sizeof(line),
                    "span accounting: %zu ops, ask+tell+measure+remainder = "
                    "wall; min remainder %.3f us",
                    overhead_us_.size(), min_remainder_us_);
      report.note(line);
    }
  }

 private:
  Leg run_leg(tuners::Tuner& tuner, runtime::MeasureRunner& runner,
              Tracer* tracer, const char* ask, const char* tell,
              std::size_t evals, std::size_t batch, int repeat, bool async) {
    TracedTuner traced_tuner(tuner, space_.get(), tracer, ask, tell);
    tuners::Tuner& driven = tracer ? traced_tuner : tuner;
    Leg leg;
    leg.trials_per_op = batch;
    std::size_t inputs = 0;
    const tuners::MeasureInputFn make_input =
        [&](const cs::Configuration& config) {
          if (inputs > 0 && inputs % batch == 0) leg.bounds.push_back(now_s());
          ++inputs;
          runtime::MeasureInput input;
          input.workload = workload_;
          input.tiles = space_->values_int(config);
          return input;
        };
    tuners::MeasureLoopOptions loop;
    loop.max_evaluations = evals;
    loop.batch_size = batch;
    loop.measure.repeat = repeat;
    leg.bounds.push_back(now_s());
    leg.result = async ? tuners::run_measure_loop_async(driven, runner,
                                                        make_input, loop)
                       : tuners::run_measure_loop(driven, runner, make_input,
                                                  loop);
    leg.bounds.push_back(now_s());
    return leg;
  }

  /// Splits each op's wall-clock into its ask/tell/measure spans and the
  /// loop's own remainder; spans are assigned to the op whose interval
  /// contains their start.
  void account(const Tracer& tracer, const Leg& bo, const Leg& batch) {
    const std::vector<Span> spans = tracer.spans();
    for (const Leg* leg : {&bo, &batch}) {
      const bool is_bo = leg == &bo;
      std::vector<double> covered(leg->ops(), 0.0);
      for (const Span& span : spans) {
        if (span.start < leg->bounds.front() ||
            span.start >= leg->bounds.back()) {
          continue;
        }
        std::size_t op = 0;
        while (op + 1 < leg->ops() && span.start >= leg->bounds[op + 1]) ++op;
        covered[op] += span.end - span.start;
        if (is_bo && span.name == "ytopt.ask") {
          if (span.op >= 96 && span.op <= 104) ask_at_100_.push_back(span.ms());
          if (span.op >= static_cast<std::int64_t>(kYtoptEvals) - 9) {
            ask_at_end_.push_back(span.ms());
          }
        }
      }
      for (std::size_t i = 0; i < leg->ops(); ++i) {
        const double remainder_us =
            (leg->bounds[i + 1] - leg->bounds[i] - covered[i]) * 1e6;
        min_remainder_us_ = std::min(min_remainder_us_, remainder_us);
        accounting_ok_ = accounting_ok_ && remainder_us > -1.0;
        for (std::size_t t = 0; t < leg->trials_per_op; ++t) {
          overhead_us_.push_back(remainder_us /
                                 static_cast<double>(leg->trials_per_op));
        }
      }
    }
  }

  RunOptions options_;
  runtime::Workload workload_;
  std::unique_ptr<cs::ConfigurationSpace> space_;
  std::uint64_t device_seed_ = 0;
  std::uint64_t tuner_seed_ = 0;
  Leg first_;
  double first_best_ = 0.0;
  double best_ms_ = 0.0;
  double time_to_best_s_ = 0.0;
  std::vector<double> ask_at_100_;
  std::vector<double> ask_at_end_;
  std::vector<double> overhead_us_;
  double min_remainder_us_ = 1e300;
  bool accounting_ok_ = true;
};

}  // namespace

std::unique_ptr<Workload> make_tune_sim(const RunOptions& options) {
  return std::make_unique<TuneSim>(options);
}

}  // namespace perfbench
