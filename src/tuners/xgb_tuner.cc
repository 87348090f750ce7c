#include "tuners/xgb_tuner.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "common/logging.h"

namespace tvmbo::tuners {

XgbTuner::XgbTuner(const cs::ConfigurationSpace* space, std::uint64_t seed,
                   XgbOptions options)
    : Tuner(space, seed), options_(options), encoder_(space),
      model_(options.gbt) {}

bool XgbTuner::has_next() const {
  if (options_.paper_eval_cap > 0 &&
      num_visited() >= options_.paper_eval_cap) {
    return false;
  }
  return Tuner::has_next();
}

double XgbTuner::predicted_runtime(const cs::Configuration& config) const {
  TVMBO_CHECK(model_.fitted()) << "cost model not trained yet";
  // The model is trained on log-runtime; undo the transform.
  return std::exp(model_.predict(encoder_.encode(config)));
}

void XgbTuner::train_model() {
  surrogate::Dataset data;
  for (const Trial& trial : history_) {
    if (!trial.valid || trial.runtime_s <= 0.0) continue;
    // Log-transform compresses the orders-of-magnitude spread of bad tile
    // configurations so they don't dominate the squared loss.
    data.add(encoder_.encode(trial.config), std::log(trial.runtime_s));
  }
  if (data.size() < 2) return;
  model_.fit(data, rng_);
  trained_on_ = history_.size();
}

std::vector<cs::Configuration> XgbTuner::propose_random(std::size_t n) {
  std::vector<cs::Configuration> batch;
  std::size_t rejects = 0;
  while (batch.size() < n && rejects < 64 * (n + 1)) {
    cs::Configuration config = space_->sample(rng_);
    if (mark_visited(config)) {
      batch.push_back(std::move(config));
    } else {
      ++rejects;
    }
  }
  return batch;
}

namespace {

/// Open-addressing index from Configuration::hash (the tuners' dedup
/// identity, as in the visited set) to what one annealing batch knows of
/// a configuration: its energy, and whether it is in the pool. Sized once
/// for every state a batch can score, so it never grows or rehashes.
class AnnealIndex {
 public:
  struct Entry {
    std::uint64_t hash = 0;
    double energy = 0.0;
    bool used = false;
    bool pooled = false;
  };

  explicit AnnealIndex(std::size_t max_entries)
      : slots_(std::bit_ceil(max_entries + max_entries / 2 + 2)),
        shift_(64 - std::countr_zero(slots_.size())) {}

  /// The entry of `hash`, claimed (used == false on return) when new.
  Entry& find(std::uint64_t hash) {
    const std::size_t mask = slots_.size() - 1;
    // Fibonacci hashing spreads the hash's high bits over the table.
    for (std::size_t i = (hash * 0x9E3779B97F4A7C15ull) >> shift_;;
         i = (i + 1) & mask) {
      Entry& entry = slots_[i];
      if (!entry.used || entry.hash == hash) {
        entry.hash = hash;
        return entry;
      }
    }
  }

 private:
  std::vector<Entry> slots_;
  int shift_;
};

}  // namespace

std::vector<cs::Configuration> XgbTuner::propose_by_model(std::size_t n) {
  // Simulated-annealing walk scored by the cost model: chains start from
  // random points plus perturbations of the best measured configs.
  struct Chain {
    cs::Configuration state;
    double energy;  // predicted log-runtime
  };
  // Chains keep revisiting the same states, and a state's energy is a
  // pure function of its features: score each distinct state once per
  // batch, encoding into one reused buffer.
  AnnealIndex index(options_.sa_chains * (options_.sa_iterations + 1));
  std::vector<double> features(encoder_.num_features());
  auto energy_of = [&](const cs::Configuration& config) {
    AnnealIndex::Entry& entry = index.find(config.hash());
    if (!entry.used) {
      encoder_.encode(config, features);
      entry.energy = model_.predict(features);
      entry.used = true;
    }
    return entry.energy;
  };

  std::vector<Chain> chains;
  chains.reserve(options_.sa_chains);
  // Seed half the chains from the measured elite (exploitation).
  std::vector<const Trial*> elite;
  for (const Trial& trial : history_) {
    if (trial.valid) elite.push_back(&trial);
  }
  std::sort(elite.begin(), elite.end(), [](const Trial* a, const Trial* b) {
    return a->runtime_s < b->runtime_s;
  });
  for (std::size_t c = 0; c < options_.sa_chains; ++c) {
    cs::Configuration start =
        (c % 2 == 0 && c / 2 < elite.size())
            ? space_->neighbor(elite[c / 2]->config, rng_)
            : space_->sample(rng_);
    chains.push_back({start, energy_of(start)});
  }

  // Track the best distinct unvisited states seen along all chains. An
  // offered state was scored, so its entry exists.
  std::vector<Chain> pool;
  auto offer = [&](const cs::Configuration& config, double energy) {
    if (is_visited(config)) return;
    AnnealIndex::Entry& entry = index.find(config.hash());
    if (entry.pooled) return;
    entry.pooled = true;
    pool.push_back({config, energy});
  };
  for (Chain& chain : chains) offer(chain.state, chain.energy);

  double temperature = options_.sa_initial_temperature;
  for (std::size_t iteration = 0; iteration < options_.sa_iterations;
       ++iteration) {
    for (Chain& chain : chains) {
      cs::Configuration candidate = space_->neighbor(chain.state, rng_);
      const double energy = energy_of(candidate);
      const double delta = energy - chain.energy;
      if (delta <= 0.0 ||
          rng_.uniform() < std::exp(-delta / std::max(temperature, 1e-6))) {
        chain.state = std::move(candidate);
        chain.energy = energy;
        offer(chain.state, chain.energy);
      }
    }
    temperature *= options_.sa_cooling;
  }

  std::sort(pool.begin(), pool.end(), [](const Chain& a, const Chain& b) {
    return a.energy < b.energy;
  });

  std::vector<cs::Configuration> batch;
  const auto num_random = static_cast<std::size_t>(
      std::floor(options_.epsilon * static_cast<double>(n)));
  for (const Chain& candidate : pool) {
    if (batch.size() + num_random >= n) break;
    cs::Configuration config = candidate.state;
    if (mark_visited(config)) batch.push_back(std::move(config));
  }
  // Epsilon tail plus any shortfall from the pool.
  auto random_tail = propose_random(n - batch.size());
  for (auto& config : random_tail) batch.push_back(std::move(config));
  return batch;
}

std::vector<cs::Configuration> XgbTuner::next_batch(std::size_t n) {
  if (options_.paper_eval_cap > 0) {
    const std::size_t used = num_visited();
    if (used >= options_.paper_eval_cap) return {};
    n = std::min(n, options_.paper_eval_cap - used);
  }
  std::size_t valid_history = 0;
  for (const Trial& trial : history_) {
    if (trial.valid) ++valid_history;
  }
  if (valid_history < options_.min_history_for_model) {
    return propose_random(n);
  }
  if (history_.size() > trained_on_ || !model_.fitted()) train_model();
  if (!model_.fitted()) return propose_random(n);
  return propose_by_model(n);
}

}  // namespace tvmbo::tuners
