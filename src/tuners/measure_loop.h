// The one ask -> measure -> tell driver behind every tuning loop: ask
// the Tuner for configurations (Step 1), measure them through a
// MeasureRunner (Steps 2–4: fault-isolated, traced, serial or parallel),
// and tell the results back (Step 5), until the evaluation budget is
// spent, the tuner exhausts its space, or the caller stops it.
//
// A round policy is the only difference between the strategies' loops:
//  * barrier — next_batch(B), measure the whole batch, one update (the
//    AutoTVM batch of 8, ytopt's qLCB batches, the paper's sequential
//    AMBS loop at B = 1);
//  * streaming — ask one configuration per free runner slot and tell
//    each completion as it lands (ytopt's asynchronous AMBS).
// With a one-slot runner the two coincide at B = 1: strict
// ask/measure/tell alternation, trajectory-identical at a fixed seed.
//
// The caller supplies two hooks: the metric the tuner minimizes (runtime,
// energy, ...) and a per-round callback that records the trials and may
// stop the loop. AutotuningSession uses them for its objective and its
// process clock; run_measure_loop / run_measure_loop_async are the plain
// runtime-minimizing loops for examples, tools and custom drivers.
#pragma once

#include <functional>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "runtime/measure_runner.h"
#include "tuners/tuner.h"

namespace tvmbo::tuners {

/// Builds the MeasureInput for a proposed configuration (Step 2: bind the
/// code mold / native kernel to concrete tiles).
using MeasureInputFn =
    std::function<runtime::MeasureInput(const cs::Configuration&)>;

struct MeasureLoopOptions {
  std::size_t max_evaluations = 100;
  std::size_t batch_size = 8;  ///< B of a barrier round
  runtime::MeasureOption measure;
};

/// How many proposals the driver holds before it reports back.
enum class RoundPolicy {
  kBarrier,    ///< next_batch(batch_size), measure all, one update
  kStreaming,  ///< ask one per free runner slot, tell each completion
};

struct LoopHooks {
  /// Maps a measurement to (metric the tuner minimizes, valid).
  std::function<std::pair<double, bool>(const runtime::MeasureResult&)>
      metric;
  /// Called once per completed round — a barrier's whole batch in
  /// submission order, or one streamed completion — before the tuner is
  /// told; trials[i] carries the mapped metric of results[i]. Returning
  /// false stops proposing: the driver still tells (and reports here)
  /// every trial already in flight, then returns.
  std::function<bool(std::span<const Trial> trials,
                     std::span<const runtime::MeasureResult> results)>
      on_round;
};

/// Runs the loop to completion. Per-trial failures never abort it: they
/// reach the tuner as invalid trials. Both hooks are required.
void drive_measure_loop(Tuner& tuner, runtime::MeasureRunner& runner,
                        const MeasureInputFn& make_input,
                        const MeasureLoopOptions& options,
                        RoundPolicy policy, const LoopHooks& hooks);

struct MeasureLoopResult {
  /// One entry per evaluation, in measurement order; trials[i] and
  /// results[i] describe the same configuration.
  std::vector<Trial> trials;
  std::vector<runtime::MeasureResult> results;
  std::size_t evaluations = 0;
};

/// The barrier loop minimizing runtime_s, collecting every trial.
MeasureLoopResult run_measure_loop(Tuner& tuner,
                                   runtime::MeasureRunner& runner,
                                   const MeasureInputFn& make_input,
                                   const MeasureLoopOptions& options = {});

/// The propose/tell state machine of a streaming tuning session, with the
/// driving loop factored *out*: ask() hands the caller the next
/// configuration to measure (strict ask-one order, so trajectories are
/// reproducible) and tell() feeds a completed measurement back, while the
/// session tracks budget, in-flight count, and space exhaustion. The
/// streaming driver and the tvmbo_serve scheduler drive their sessions
/// through this class — the daemon's externally-ticked multi-tenant
/// loops and the single-tenant `--async` loop are the same machine,
/// which is what makes a fixed-seed serve job reproduce the
/// `--runner proc --async` trajectory bit-identically.
///
/// Not thread-safe: exactly one driver (the loop, or the serve scheduler
/// thread) may call ask()/tell().
class AskTellSession {
 public:
  /// The tuner must outlive the session. `max_evaluations` caps submitted
  /// trials (asked configurations), told or not.
  AskTellSession(Tuner& tuner, std::size_t max_evaluations);

  /// Proposes the next configuration, or nullopt once the budget is fully
  /// submitted or the tuner exhausts its space. Every returned
  /// configuration must eventually be tell()-ed (or abandon()-ed).
  std::optional<cs::Configuration> ask();

  /// Feeds one completed measurement back to the tuner (completion order;
  /// a liar-imputing tuner un-hallucinates the config on update).
  void tell(const cs::Configuration& config, double metric, bool valid);

  /// Drops one in-flight trial without telling the tuner (a cancelled or
  /// discarded measurement). The budget slot is *not* refunded.
  void abandon();

  /// True while ask() may still return a configuration.
  bool can_ask() const;
  /// True once every submitted trial has been told/abandoned and no more
  /// can be asked — the session's terminal state.
  bool done() const { return !can_ask() && in_flight() == 0; }

  std::size_t submitted() const { return submitted_; }
  std::size_t completed() const { return completed_; }
  std::size_t in_flight() const { return submitted_ - completed_; }
  std::size_t max_evaluations() const { return max_evaluations_; }
  Tuner& tuner() { return tuner_; }

 private:
  Tuner& tuner_;
  std::size_t max_evaluations_;
  std::size_t submitted_ = 0;
  std::size_t completed_ = 0;
  bool exhausted_ = false;
};

/// The streaming loop minimizing runtime_s; trials[i]/results[i] are in
/// completion order.
MeasureLoopResult run_measure_loop_async(
    Tuner& tuner, runtime::MeasureRunner& runner,
    const MeasureInputFn& make_input, const MeasureLoopOptions& options = {});

}  // namespace tvmbo::tuners
