#include "surrogate/random_forest.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>

#include "common/logging.h"

namespace tvmbo::surrogate {

RandomForest::RandomForest(ForestOptions options) : options_(options) {
  TVMBO_CHECK_GT(options_.num_trees, 0) << "num_trees must be positive";
  TVMBO_CHECK(options_.bootstrap_fraction > 0.0 &&
              options_.bootstrap_fraction <= 1.0)
      << "bootstrap_fraction must be in (0, 1]";
}

std::size_t RandomForest::helpers() const {
  if (!options_.parallel_fit) return 0;
  return std::min(static_cast<std::size_t>(options_.num_trees),
                  default_thread_pool().num_threads()) -
         1;
}

void RandomForest::fit(const Dataset& data, Rng& rng) {
  std::vector<Prediction> none;
  fit_and_score([&data]() -> const Dataset& { return data; }, rng, {}, none);
}

void RandomForest::fit_and_score(
    const std::function<const Dataset&()>& make_data, Rng& rng,
    const std::function<std::span<const double>()>& draw,
    std::vector<Prediction>& scores) {
  // Wake first: a pool thread takes tens to hundreds of microseconds to
  // start, which the helpers spend while the caller builds the plan.
  ThreadPool::Team team(default_thread_pool(), helpers());
  const Dataset& data = make_data();
  TVMBO_CHECK(!data.x.empty()) << "fit on empty dataset";
  trees_.clear();
  num_features_ = data.num_features();

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

  const auto num_trees = static_cast<std::size_t>(options_.num_trees);
  std::vector<Rng> streams(num_trees);
  // Each tree's rows are padded to a multiple of 64 bytes: builds
  // partition them in place, neighbouring trees on different threads.
  const std::size_t stride = (sample_size + 15) / 16 * 16;
  std::vector<std::uint32_t> rows(num_trees * stride);
  trees_.assign(num_trees, DecisionTree(tree_options));
  RowMarks marks(n);

  // One feature-major copy shared by every tree; one scratch slot per
  // participant.
  const FeatureColumns columns(data);
  std::vector<TreeScratch> scratch;
  scratch.reserve(team.participants());
  for (std::size_t p = 0; p < team.participants(); ++p) {
    scratch.emplace_back(sample_size, columns.num_features());
  }
  const ThreadPool::Team::Body build = [&](std::size_t t, std::size_t p) {
    trees_[t].fit(columns, data.y,
                  {rows.data() + t * stride, sample_size}, &streams[t],
                  scratch[p]);
  };
  // Plan each tree on the caller and publish it at once, so helpers build
  // while the caller plans the rest and then draws the pool. A tree's plan
  // is its own RNG stream, split off `rng` in tree order (so the fit is
  // deterministic whether trees are built serially or on the pool, and
  // every split precedes draw()), its bootstrap rows, drawn from the
  // stream before any feature shuffle as a serial fit would, and its node
  // storage (allocations stay on the caller).
  ThreadPool::Team::Stage trees = team.publish(0, build);
  for (std::size_t t = 0; t < num_trees; ++t) {
    streams[t] = rng.split();
    const std::span<std::uint32_t> tree_rows(rows.data() + t * stride,
                                             sample_size);
    if (options_.bootstrap) {
      for (std::uint32_t& row : tree_rows) {
        row = static_cast<std::uint32_t>(
            streams[t].uniform_int(static_cast<std::int64_t>(n)));
      }
    } else {
      std::iota(tree_rows.begin(), tree_rows.end(), std::uint32_t{0});
    }
    trees_[t].reserve_nodes(tree_rows, marks);
    trees.extend(t + 1);
  }
  const std::span<const double> features =
      draw ? draw() : std::span<const double>{};
  trees.join();
  score_on(team, features, scores);
}

void RandomForest::score(std::span<const double> features,
                         std::vector<Prediction>& scores) const {
  ThreadPool::Team team(default_thread_pool(), helpers());
  score_on(team, features, scores);
}

void RandomForest::score_on(ThreadPool::Team& team,
                            std::span<const double> features,
                            std::vector<Prediction>& scores) const {
  TVMBO_CHECK(fitted()) << "predict before fit";
  scores.clear();
  if (features.empty()) return;
  const std::size_t width = num_features_;
  TVMBO_CHECK(width > 0 && features.size() % width == 0)
      << "feature matrix is not rows of the fitted dataset's columns";
  const std::size_t count = features.size() / width;
  scores.resize(count);
  // Per row the sums run over the trees in order, so any chunking gives
  // predict_batch's bits.
  const std::size_t chunks = std::min(count, team.participants());
  const std::size_t base = count / chunks;
  const std::size_t extra = count % chunks;
  team.run(chunks, [&](std::size_t c, std::size_t) {
    const std::size_t begin = c * base + std::min(c, extra);
    const std::size_t rows = base + (c < extra ? 1 : 0);
    predict_batch(features.subspan(begin * width, rows * width),
                  std::span(scores).subspan(begin, rows));
  });
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
