#include "tuners/measure_loop.h"

#include <algorithm>
#include <map>

#include "common/logging.h"

namespace tvmbo::tuners {

AskTellSession::AskTellSession(Tuner& tuner, std::size_t max_evaluations)
    : tuner_(tuner), max_evaluations_(max_evaluations) {}

bool AskTellSession::can_ask() const {
  return !exhausted_ && submitted_ < max_evaluations_ && tuner_.has_next();
}

std::optional<cs::Configuration> AskTellSession::ask() {
  if (!can_ask()) return std::nullopt;
  // Strict ask-one order: a liar-imputing tuner accounts for the
  // configurations already in flight, so asking one at a time never
  // re-proposes a pending point — and keeps the proposal sequence a pure
  // function of (space, seed, tell history), independent of how many
  // slots the driver happens to have free.
  std::vector<cs::Configuration> next = tuner_.next_batch(1);
  if (next.empty()) {
    exhausted_ = true;
    return std::nullopt;
  }
  ++submitted_;
  return std::move(next[0]);
}

void AskTellSession::tell(const cs::Configuration& config, double metric,
                          bool valid) {
  TVMBO_CHECK_LT(completed_, submitted_)
      << "tell without a matching in-flight ask";
  Trial trial{config, metric, valid};
  tuner_.update({&trial, 1});
  ++completed_;
}

void AskTellSession::abandon() {
  TVMBO_CHECK_LT(completed_, submitted_)
      << "abandon without a matching in-flight ask";
  ++completed_;
}

namespace {

/// The plain loops: minimize runtime_s and collect every trial.
MeasureLoopResult collect_runtime_loop(Tuner& tuner,
                                       runtime::MeasureRunner& runner,
                                       const MeasureInputFn& make_input,
                                       const MeasureLoopOptions& options,
                                       RoundPolicy policy) {
  MeasureLoopResult out;
  LoopHooks hooks;
  hooks.metric = [](const runtime::MeasureResult& result) {
    return std::make_pair(result.runtime_s, result.valid);
  };
  hooks.on_round = [&out](std::span<const Trial> trials,
                          std::span<const runtime::MeasureResult> results) {
    out.trials.insert(out.trials.end(), trials.begin(), trials.end());
    out.results.insert(out.results.end(), results.begin(), results.end());
    out.evaluations += trials.size();
    return true;
  };
  drive_measure_loop(tuner, runner, make_input, options, policy, hooks);
  return out;
}

}  // namespace

void drive_measure_loop(Tuner& tuner, runtime::MeasureRunner& runner,
                        const MeasureInputFn& make_input,
                        const MeasureLoopOptions& options,
                        RoundPolicy policy, const LoopHooks& hooks) {
  TVMBO_CHECK(make_input && hooks.metric && hooks.on_round)
      << "measure loop requires an input builder and both hooks";
  const bool streaming = policy == RoundPolicy::kStreaming;
  TVMBO_CHECK(streaming || options.batch_size > 0)
      << "batch_size must be positive";
  const std::size_t slots = runner.async_slots();
  AskTellSession session(tuner, options.max_evaluations);  // streaming
  std::size_t barrier_asked = 0;
  // Ordered by ticket, which is submission order.
  std::map<runtime::MeasureRunner::Ticket, cs::Configuration> in_flight;
  const auto submit = [&](cs::Configuration config) {
    const runtime::MeasureRunner::Ticket ticket =
        runner.submit(make_input(config), options.measure);
    in_flight.emplace(ticket, std::move(config));
  };

  bool proposing = true;
  while (true) {
    // Ask: streaming refills every free slot one proposal at a time (an
    // ask is cheap next to a measurement); a barrier asks for its whole
    // round once the previous round has been told.
    if (streaming) {
      while (proposing && in_flight.size() < slots) {
        std::optional<cs::Configuration> next = session.ask();
        if (!next.has_value()) break;
        submit(std::move(*next));
      }
    } else if (proposing && barrier_asked < options.max_evaluations &&
               tuner.has_next()) {
      std::vector<cs::Configuration> batch = tuner.next_batch(std::min(
          options.batch_size, options.max_evaluations - barrier_asked));
      barrier_asked += batch.size();
      for (cs::Configuration& config : batch) submit(std::move(config));
    }
    if (in_flight.empty()) break;  // budget spent, space exhausted, stopped

    // A streaming round is one completion; a barrier round is all of
    // them, reported in submission order.
    std::vector<runtime::MeasureRunner::Completion> done;
    do {
      done.push_back(runner.wait_any());
    } while (!streaming && done.size() < in_flight.size());
    std::sort(done.begin(), done.end(), [](const auto& a, const auto& b) {
      return a.ticket < b.ticket;
    });
    std::vector<Trial> trials;
    std::vector<runtime::MeasureResult> results;
    trials.reserve(done.size());
    results.reserve(done.size());
    for (runtime::MeasureRunner::Completion& completion : done) {
      auto it = in_flight.find(completion.ticket);
      TVMBO_CHECK(it != in_flight.end())
          << "completion for unknown ticket " << completion.ticket;
      const auto [metric, valid] = hooks.metric(completion.result);
      trials.push_back({std::move(it->second), metric, valid});
      in_flight.erase(it);
      results.push_back(std::move(completion.result));
    }

    const bool keep_going = hooks.on_round(trials, results);
    proposing = proposing && keep_going;
    if (streaming) {
      session.tell(trials[0].config, trials[0].runtime_s, trials[0].valid);
    } else {
      tuner.update(trials);
    }
  }
}

MeasureLoopResult run_measure_loop(Tuner& tuner,
                                   runtime::MeasureRunner& runner,
                                   const MeasureInputFn& make_input,
                                   const MeasureLoopOptions& options) {
  return collect_runtime_loop(tuner, runner, make_input, options,
                              RoundPolicy::kBarrier);
}

MeasureLoopResult run_measure_loop_async(Tuner& tuner,
                                         runtime::MeasureRunner& runner,
                                         const MeasureInputFn& make_input,
                                         const MeasureLoopOptions& options) {
  return collect_runtime_loop(tuner, runner, make_input, options,
                              RoundPolicy::kStreaming);
}

}  // namespace tvmbo::tuners
