#include "ytopt/bayes_opt.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <unordered_map>

#include "common/logging.h"

namespace tvmbo::ytopt {

BayesianOptimizer::BayesianOptimizer(const cs::ConfigurationSpace* space,
                                     std::uint64_t seed, BoOptions options)
    : Tuner(space, seed), options_(options), encoder_(space),
      forest_(options.forest) {
  TVMBO_CHECK_GT(options_.initial_points, 0u)
      << "initial design must have at least one point";
  TVMBO_CHECK_GT(options_.candidates_per_iteration, 0u)
      << "candidate pool must be non-empty";
  TVMBO_CHECK(options_.local_fraction >= 0.0 &&
              options_.local_fraction <= 1.0)
      << "local_fraction must be in [0, 1]";
}

cs::Configuration BayesianOptimizer::sample_unvisited() {
  for (int attempt = 0; attempt < 256; ++attempt) {
    cs::Configuration config = space_->sample(rng_);
    if (!is_visited(config)) return config;
  }
  // Near-exhausted small space: sweep for any leftover configuration.
  if (space_->fully_discrete()) {
    for (std::uint64_t flat = 0; flat < space_->cardinality(); ++flat) {
      cs::Configuration config = space_->from_flat_index(flat);
      if (!is_visited(config)) return config;
    }
  }
  return space_->sample(rng_);
}

double BayesianOptimizer::worst_valid_runtime() const {
  double worst = 0.0;
  for (const tuners::Trial& trial : history_) {
    if (trial.valid && trial.runtime_s > 0.0) {
      worst = std::max(worst, trial.runtime_s);
    }
  }
  return worst;
}

surrogate::Dataset BayesianOptimizer::surrogate_data(double worst) const {
  // Failed measurements are informative: penalize, don't discard
  // (skopt-style imputation with a value worse than anything seen). The
  // penalty is scale-relative — an absolute floor (1 s) is ~6 orders of
  // magnitude off for microsecond-scale kernels and warps the log-space
  // forest around the imputed points.
  const double penalty = worst * 2.0;
  surrogate::Dataset data;
  for (const tuners::Trial& trial : history_) {
    const double runtime =
        trial.valid && trial.runtime_s > 0.0 ? trial.runtime_s : penalty;
    data.add(encoder_.encode(trial.config), std::log(runtime));
  }
  // Constant-liar (cl-max): hallucinate in-flight configurations at the
  // worst valid runtime, so a streaming ask() avoids the neighborhoods
  // of trials still being measured without blocking on their results.
  for (const cs::Configuration& config : pending_) {
    data.add(encoder_.encode(config), std::log(worst));
  }
  return data;
}

surrogate::Prediction BayesianOptimizer::predict(
    const cs::Configuration& config) const {
  TVMBO_CHECK(forest_.fitted()) << "surrogate not fitted yet";
  surrogate::Prediction log_pred =
      forest_.predict_with_std(encoder_.encode(config));
  // Report in seconds: exp(mean) with the std scaled by the derivative
  // (first-order delta method).
  surrogate::Prediction out;
  out.mean = std::exp(log_pred.mean);
  out.std = out.mean * log_pred.std;
  return out;
}

double BayesianOptimizer::acquisition(
    const cs::Configuration& config) const {
  TVMBO_CHECK(forest_.fitted()) << "surrogate not fitted yet";
  const surrogate::Prediction pred =
      forest_.predict_with_std(encoder_.encode(config));
  return pred.mean - options_.kappa * pred.std;
}

cs::Configuration BayesianOptimizer::ask() {
  std::vector<cs::Configuration> batch = propose(1);
  TVMBO_CHECK(!batch.empty()) << "search space exhausted";
  return batch[0];
}

std::vector<cs::Configuration> BayesianOptimizer::propose(std::size_t n) {
  TVMBO_CHECK_GT(n, 0u) << "propose of zero configurations";
  std::vector<cs::Configuration> batch;

  // Transfer seeds go first — before the random initial design — so a
  // model-warm-started session spends its earliest (most valuable) trials
  // on the predicted-best configurations. Their measurements flow through
  // the normal tell() path and count toward the initial design.
  while (batch.size() < n && !seeds_.empty()) {
    cs::Configuration config = std::move(seeds_.front());
    seeds_.erase(seeds_.begin());
    if (mark_visited(config)) {
      remember_pending(config);
      batch.push_back(std::move(config));
    }
  }
  if (batch.size() >= n) return batch;

  // Warmup phase (or surrogate unavailable): random design. Bounded
  // rejections: on an effectively exhausted space that is not fully
  // discrete (e.g. a conditional float pinned to its bound),
  // sample_unvisited's fallback keeps returning visited configurations
  // that mark_visited rejects — return a short batch instead of looping
  // forever.
  auto random_fill = [&] {
    int rejected = 0;
    while (batch.size() < n && rejected < 256) {
      if (space_->fully_discrete() &&
          num_visited() >= space_->cardinality()) {
        break;
      }
      cs::Configuration config = sample_unvisited();
      if (mark_visited(config)) {
        remember_pending(config);
        batch.push_back(std::move(config));
        rejected = 0;
      } else {
        ++rejected;
      }
    }
  };
  if (history_.size() < options_.initial_points || history_.size() < 2) {
    random_fill();
    return batch;
  }
  // Refit when due. With no valid measurement yet an all-imputed constant
  // dataset would anchor the forest at an arbitrary level, so stay in the
  // random design until a real runtime lands.
  const bool refit_due =
      !forest_.fitted() ||
      history_.size() >= fitted_on_ + options_.refit_interval;
  const double worst = refit_due ? worst_valid_runtime() : 0.0;
  const bool refit =
      worst > 0.0 && history_.size() + pending_.size() >= 2;
  if (!refit && !forest_.fitted()) {
    random_fill();
    return batch;
  }

  // Candidate pool: mostly uniform exploration, plus neighbours of the
  // best configurations seen (local exploitation). The pool is drawn with
  // replacement, so each distinct configuration is encoded once into a
  // row-major matrix and scored once; duplicates take their first
  // occurrence's score. On a refit the pool is drawn while pool threads
  // build the trees.
  std::vector<cs::Configuration> candidates;
  std::vector<std::size_t> distinct_of;
  std::vector<double> features;
  auto draw = [&]() -> std::span<const double> {
    draw_candidates(candidates);
    const std::size_t width = encoder_.num_features();
    distinct_of.resize(candidates.size());
    features.reserve(candidates.size() * width);
    std::unordered_map<std::uint64_t, std::size_t> first;
    first.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      const auto [it, inserted] =
          first.try_emplace(candidates[i].hash(), first.size());
      if (inserted) {
        features.resize(features.size() + width);
        encoder_.encode(candidates[i], std::span(features).last(width));
      }
      distinct_of[i] = it->second;
    }
    return features;
  };
  std::vector<surrogate::Prediction> preds;
  if (refit) {
    surrogate::Dataset data;
    forest_.fit_and_score(
        [&]() -> const surrogate::Dataset& {
          data = surrogate_data(worst);
          return data;
        },
        rng_, draw, preds);
    fitted_on_ = history_.size();
  } else {
    forest_.score(draw(), preds);
  }
  if (candidates.empty()) {
    random_fill();
    return batch;
  }

  // qLCB: rank the whole pool by the acquisition and take the n best
  // distinct candidates (multi-point generalization of the single pick).
  std::vector<std::pair<double, std::size_t>> scored;
  scored.reserve(candidates.size());
  for (std::size_t i = 0; i < candidates.size(); ++i) {
    const surrogate::Prediction& pred = preds[distinct_of[i]];
    scored.emplace_back(pred.mean - options_.kappa * pred.std, i);
  }
  std::sort(scored.begin(), scored.end());
  for (const auto& [lcb, index] : scored) {
    if (batch.size() >= n) break;
    cs::Configuration config = candidates[index];
    if (mark_visited(config)) {
      remember_pending(config);
      batch.push_back(std::move(config));
    }
  }
  if (batch.size() < n) random_fill();
  return batch;
}

void BayesianOptimizer::draw_candidates(
    std::vector<cs::Configuration>& candidates) {
  candidates.reserve(options_.candidates_per_iteration);
  const auto num_local = static_cast<std::size_t>(
      options_.local_fraction *
      static_cast<double>(options_.candidates_per_iteration));

  std::vector<const tuners::Trial*> ranked;
  for (const tuners::Trial& trial : history_) {
    if (trial.valid) ranked.push_back(&trial);
  }
  std::sort(ranked.begin(), ranked.end(),
            [](const tuners::Trial* a, const tuners::Trial* b) {
              return a->runtime_s < b->runtime_s;
            });
  const std::size_t seeds = std::min(options_.local_seeds, ranked.size());
  // Visited neighbours must be replaced, not dropped: late in a run most
  // one-hop neighbours of the incumbents are already measured, and
  // dropping them silently shrank the local share of the pool toward
  // zero — the optimizer degraded to pure uniform search exactly when
  // local refinement matters most. Retry each draw with bounded extra
  // hops (walking outward from the seed) and bound the total attempts so
  // an exhausted neighbourhood still terminates.
  last_local_ = 0;
  if (seeds > 0 && num_local > 0) {
    const std::size_t max_attempts = num_local * 4;
    for (std::size_t attempt = 0;
         attempt < max_attempts && last_local_ < num_local; ++attempt) {
      const cs::Configuration& seed_config = ranked[attempt % seeds]->config;
      cs::Configuration candidate = space_->neighbor(seed_config, rng_);
      // A couple of extra hops diversify the local cloud.
      if (rng_.bernoulli(0.5)) candidate = space_->neighbor(candidate, rng_);
      for (int hop = 0; hop < 4 && is_visited(candidate); ++hop) {
        candidate = space_->neighbor(candidate, rng_);
      }
      if (!is_visited(candidate)) {
        candidates.push_back(std::move(candidate));
        ++last_local_;
      }
    }
  }
  // Same bounded-rejection guard as random_fill: a near-exhausted space
  // may reject every uniform draw.
  int rejected = 0;
  while (candidates.size() < options_.candidates_per_iteration &&
         rejected < 256) {
    cs::Configuration candidate = space_->sample(rng_);
    if (!is_visited(candidate)) {
      candidates.push_back(std::move(candidate));
      rejected = 0;
    } else if (space_->fully_discrete() &&
               num_visited() >= space_->cardinality()) {
      break;
    } else {
      ++rejected;
    }
  }
}

std::vector<cs::Configuration> BayesianOptimizer::next_batch(
    std::size_t n) {
  if (n == 0 || !has_next()) return {};
  return propose(n);
}

void BayesianOptimizer::remember_pending(const cs::Configuration& config) {
  pending_.push_back(config);
}

void BayesianOptimizer::forget_pending(const cs::Configuration& config) {
  const std::uint64_t hash = config.hash();
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (it->hash() == hash) {
      pending_.erase(it);
      return;
    }
  }
}

void BayesianOptimizer::tell(const cs::Configuration& config,
                             double runtime_s, bool valid) {
  tuners::Trial trial{config, runtime_s, valid};
  update({&trial, 1});
}

void BayesianOptimizer::update(std::span<const tuners::Trial> trials) {
  for (const tuners::Trial& trial : trials) forget_pending(trial.config);
  Tuner::update(trials);
}

void BayesianOptimizer::warm_start(std::span<const tuners::Trial> prior) {
  for (const tuners::Trial& trial : prior) {
    mark_visited(trial.config);
  }
  Tuner::update(prior);
}

void BayesianOptimizer::seed_proposals(
    std::vector<cs::Configuration> seeds) {
  for (cs::Configuration& seed : seeds) {
    seeds_.push_back(std::move(seed));
  }
}

}  // namespace tvmbo::ytopt
