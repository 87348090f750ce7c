#include "surrogate/random_forest.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace tvmbo::surrogate {

RandomForest::RandomForest(ForestOptions options) : options_(options) {
  TVMBO_CHECK_GT(options_.num_trees, 0) << "num_trees must be positive";
  TVMBO_CHECK(options_.bootstrap_fraction > 0.0 &&
              options_.bootstrap_fraction <= 1.0)
      << "bootstrap_fraction must be in (0, 1]";
}

void RandomForest::fit(const Dataset& data, Rng& rng) {
  TVMBO_CHECK(!data.x.empty()) << "fit on empty dataset";
  trees_.clear();
  trees_.reserve(static_cast<std::size_t>(options_.num_trees));

  TreeOptions tree_options = options_.tree;
  if (options_.max_features == 0) {
    tree_options.max_features = static_cast<int>(
        (data.num_features() + 2) / 3);  // ceil(p/3), regression default
  } else {
    tree_options.max_features = options_.max_features;
  }

  const std::size_t n = data.size();
  TVMBO_CHECK_LE(n, std::size_t{UINT32_MAX})
      << "dataset too large for 32-bit row ids";
  const std::size_t sample_size =
      !options_.bootstrap
          ? n
          : std::max<std::size_t>(
                1, static_cast<std::size_t>(
                       std::llround(options_.bootstrap_fraction *
                                    static_cast<double>(n))));

  // Derive every tree's independent RNG stream and bootstrap rows up
  // front, so the fit is deterministic whether trees are built serially or
  // on the pool (each stream draws its bootstrap before any feature
  // shuffle, as a per-tree serial fit would).
  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  std::vector<Rng> streams;
  streams.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) streams.push_back(rng.split());
  std::vector<std::uint32_t> rows(num_trees * sample_size);
  trees_.assign(num_trees, DecisionTree(tree_options));
  for (std::size_t t = 0; t < num_trees; ++t) {
    const std::span<std::uint32_t> tree_rows(rows.data() + t * sample_size,
                                             sample_size);
    if (options_.bootstrap) {
      for (std::uint32_t& row : tree_rows) {
        row = static_cast<std::uint32_t>(
            streams[t].uniform_int(static_cast<std::int64_t>(n)));
      }
    } else {
      std::iota(tree_rows.begin(), tree_rows.end(), std::uint32_t{0});
    }
    trees_[t].reserve_nodes(tree_rows, n);
  }

  // One feature-major copy shared by every tree; one scratch slot per
  // chunk, claimed by the chunk that runs on it.
  const FeatureColumns columns(data);
  ThreadPool& pool = default_thread_pool();
  const std::size_t slots =
      options_.parallel_fit ? std::min(num_trees, pool.num_threads()) : 1;
  std::vector<TreeScratch> scratch;
  scratch.reserve(slots);
  for (std::size_t s = 0; s < slots; ++s) {
    scratch.emplace_back(sample_size, columns.num_features());
  }
  std::atomic<std::size_t> next_slot{0};
  auto fit_range = [&](std::size_t begin, std::size_t end) {
    TreeScratch& own = scratch[next_slot.fetch_add(1)];
    for (std::size_t t = begin; t < end; ++t) {
      trees_[t].fit(columns, data.y,
                    {rows.data() + t * sample_size, sample_size},
                    &streams[t], own);
    }
  };
  if (slots > 1) {
    pool.parallel_for_chunks(num_trees, slots, fit_range);
  } else {
    fit_range(0, num_trees);
  }
}

void RandomForest::predict_batch(std::span<const double> features,
                                 std::span<Prediction> out) const {
  TVMBO_CHECK(fitted()) << "predict before fit";
  if (out.empty()) return;
  TVMBO_CHECK_EQ(features.size() % out.size(), 0u)
      << "feature matrix is not out.size() rows";
  const std::size_t width = features.size() / out.size();
  // Tree-outer keeps one tree's nodes hot across the rows; per row the
  // sums still accumulate in tree order, as predict_with_std does. `out`
  // holds the running sum (mean) and sum of squares (std) until the end.
  for (Prediction& p : out) p = Prediction{};
  for (const DecisionTree& tree : trees_) {
    for (std::size_t r = 0; r < out.size(); ++r) {
      const double value = tree.predict(features.subspan(r * width, width));
      out[r].mean += value;
      out[r].std += value * value;
    }
  }
  const double n = static_cast<double>(trees_.size());
  for (Prediction& p : out) {
    const double mean = p.mean / n;
    const double variance = std::max(0.0, p.std / n - mean * mean);
    p.mean = mean;
    p.std = std::sqrt(variance);
  }
}

double RandomForest::predict(std::span<const double> features) const {
  return predict_with_std(features).mean;
}

Prediction RandomForest::predict_with_std(
    std::span<const double> features) const {
  TVMBO_CHECK(fitted()) << "predict before fit";
  double sum = 0.0, sum_sq = 0.0;
  for (const DecisionTree& tree : trees_) {
    const double value = tree.predict(features);
    sum += value;
    sum_sq += value * value;
  }
  const double n = static_cast<double>(trees_.size());
  Prediction prediction;
  prediction.mean = sum / n;
  const double variance =
      std::max(0.0, sum_sq / n - prediction.mean * prediction.mean);
  prediction.std = std::sqrt(variance);
  return prediction;
}

}  // namespace tvmbo::surrogate
