#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/stats.h"
#include "configspace/divisors.h"
#include "surrogate/gbt.h"
#include "surrogate/random_forest.h"

namespace tvmbo::surrogate {
namespace {

// A deterministic nonlinear regression problem: y = (x0-0.5)^2 + 0.3*x1.
Dataset quadratic_dataset(std::size_t n, Rng& rng) {
  Dataset data;
  for (std::size_t i = 0; i < n; ++i) {
    const double x0 = rng.uniform();
    const double x1 = rng.uniform();
    data.add({x0, x1}, (x0 - 0.5) * (x0 - 0.5) + 0.3 * x1);
  }
  return data;
}

TEST(Dataset, AddChecksArity) {
  Dataset data;
  data.add({1.0, 2.0}, 3.0);
  EXPECT_THROW(data.add({1.0}, 2.0), CheckError);
  EXPECT_EQ(data.size(), 1u);
  EXPECT_EQ(data.num_features(), 2u);
}

TEST(DecisionTree, FitsConstantTarget) {
  Dataset data;
  for (int i = 0; i < 10; ++i) data.add({static_cast<double>(i)}, 4.0);
  DecisionTree tree;
  tree.fit(data);
  EXPECT_EQ(tree.num_leaves(), 1u);  // zero variance -> single leaf
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{3.0}), 4.0);
}

TEST(DecisionTree, LearnsStepFunctionExactly) {
  Dataset data;
  for (int i = 0; i < 20; ++i) {
    data.add({static_cast<double>(i)}, i < 10 ? 1.0 : 5.0);
  }
  DecisionTree tree;
  tree.fit(data);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{2.0}), 1.0);
  EXPECT_DOUBLE_EQ(tree.predict(std::vector<double>{15.0}), 5.0);
  EXPECT_EQ(tree.num_leaves(), 2u);
}

TEST(DecisionTree, InterpolatesTraining) {
  Rng rng(1);
  const Dataset data = quadratic_dataset(200, rng);
  DecisionTree tree(TreeOptions{.max_depth = 20, .min_samples_leaf = 1});
  tree.fit(data);
  for (std::size_t i = 0; i < data.size(); i += 10) {
    EXPECT_NEAR(tree.predict(data.x[i]), data.y[i], 1e-9);
  }
}

TEST(DecisionTree, DepthLimitRespected) {
  Rng rng(2);
  const Dataset data = quadratic_dataset(300, rng);
  DecisionTree tree(TreeOptions{.max_depth = 3});
  tree.fit(data);
  EXPECT_LE(tree.depth(), 4u);  // root + 3 levels
}

TEST(DecisionTree, MinSamplesLeafRespected) {
  Rng rng(3);
  const Dataset data = quadratic_dataset(64, rng);
  DecisionTree tree(TreeOptions{.min_samples_leaf = 8});
  tree.fit(data);
  // With >= 8 samples per leaf, at most 64/8 leaves.
  EXPECT_LE(tree.num_leaves(), 8u);
}

TEST(DecisionTree, PredictBeforeFitThrows) {
  DecisionTree tree;
  EXPECT_THROW(tree.predict(std::vector<double>{1.0}), CheckError);
}

TEST(DecisionTree, RandomFeatureSubsettingRequiresRng) {
  Dataset data;
  data.add({1.0}, 1.0);
  data.add({2.0}, 2.0);
  DecisionTree tree(TreeOptions{.max_features = 1});
  EXPECT_THROW(tree.fit(data), CheckError);
}

TEST(RandomForest, BetterThanSingleNoisyTreeOnHoldout) {
  Rng rng(7);
  Dataset train = quadratic_dataset(300, rng);
  const Dataset test = quadratic_dataset(100, rng);
  // Add label noise to the training set.
  Rng noise(8);
  for (double& y : train.y) y += noise.normal(0.0, 0.05);

  RandomForest forest(ForestOptions{.num_trees = 60});
  Rng fit_rng(9);
  forest.fit(train, fit_rng);

  std::vector<double> predictions;
  for (const auto& x : test.x) predictions.push_back(forest.predict(x));
  EXPECT_GT(r_squared(predictions, test.y), 0.8);
}

TEST(RandomForest, PredictionStdPositiveOffData) {
  Rng rng(11);
  const Dataset data = quadratic_dataset(50, rng);
  RandomForest forest(ForestOptions{.num_trees = 40});
  Rng fit_rng(12);
  forest.fit(data, fit_rng);
  // Uncertainty must be strictly positive somewhere (trees disagree).
  double max_std = 0.0;
  for (int i = 0; i < 20; ++i) {
    const auto pred =
        forest.predict_with_std(std::vector<double>{rng.uniform(),
                                                    rng.uniform()});
    max_std = std::max(max_std, pred.std);
    EXPECT_GE(pred.std, 0.0);
  }
  EXPECT_GT(max_std, 0.0);
}

TEST(RandomForest, DeterministicGivenSeed) {
  Rng rng(13);
  const Dataset data = quadratic_dataset(80, rng);
  RandomForest a(ForestOptions{.num_trees = 10});
  RandomForest b(ForestOptions{.num_trees = 10});
  Rng ra(99), rb(99);
  a.fit(data, ra);
  b.fit(data, rb);
  const std::vector<double> x{0.3, 0.7};
  EXPECT_DOUBLE_EQ(a.predict(x), b.predict(x));
}

TEST(RandomForest, BatchPredictIsBitIdenticalToPredictWithStd) {
  Rng rng(21);
  const Dataset data = quadratic_dataset(90, rng);
  RandomForest forest(ForestOptions{.num_trees = 30});
  Rng fit_rng(5);
  forest.fit(data, fit_rng);
  // A candidate pool with duplicates, as ytopt's with-replacement pool has:
  // every third row repeats an earlier one.
  std::vector<std::vector<double>> pool;
  for (std::size_t i = 0; i < 60; ++i) {
    if (i % 3 == 2) {
      pool.push_back(pool[i / 2]);
    } else {
      pool.push_back({rng.uniform(), rng.uniform()});
    }
  }
  std::vector<double> matrix;
  for (const auto& row : pool) {
    matrix.insert(matrix.end(), row.begin(), row.end());
  }
  std::vector<Prediction> batch(pool.size());
  forest.predict_batch(matrix, batch);
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const Prediction single = forest.predict_with_std(pool[i]);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].mean),
              std::bit_cast<std::uint64_t>(single.mean))
        << "row " << i;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(batch[i].std),
              std::bit_cast<std::uint64_t>(single.std))
        << "row " << i;
  }
  // Chunked scoring (as ytopt runs it) matches the one-shot batch.
  std::vector<Prediction> chunked(pool.size());
  for (std::size_t begin = 0; begin < pool.size(); begin += 7) {
    const std::size_t count = std::min<std::size_t>(7, pool.size() - begin);
    forest.predict_batch(std::span(matrix).subspan(begin * 2, count * 2),
                         std::span(chunked).subspan(begin, count));
  }
  for (std::size_t i = 0; i < pool.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(chunked[i].mean),
              std::bit_cast<std::uint64_t>(batch[i].mean));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(chunked[i].std),
              std::bit_cast<std::uint64_t>(batch[i].std));
  }
}

TEST(RandomForest, FitEmptyThrows) {
  RandomForest forest;
  Rng rng(1);
  EXPECT_THROW(forest.fit(Dataset{}, rng), CheckError);
}

TEST(Gbt, FitsQuadraticWellInSample) {
  Rng rng(17);
  const Dataset data = quadratic_dataset(300, rng);
  GradientBoostedTrees gbt;
  Rng fit_rng(18);
  gbt.fit(data, fit_rng);
  EXPECT_LT(gbt.training_rmse(), 0.02);
}

TEST(Gbt, GeneralizesOnHoldout) {
  Rng rng(19);
  const Dataset train = quadratic_dataset(400, rng);
  const Dataset test = quadratic_dataset(100, rng);
  GradientBoostedTrees gbt;
  Rng fit_rng(20);
  gbt.fit(train, fit_rng);
  std::vector<double> predictions;
  for (const auto& x : test.x) predictions.push_back(gbt.predict(x));
  EXPECT_GT(r_squared(predictions, test.y), 0.9);
}

TEST(Gbt, RanksConfigurationsUsefully) {
  // The XGBTuner only needs ranking quality; check Spearman correlation.
  Rng rng(21);
  const Dataset train = quadratic_dataset(200, rng);
  const Dataset test = quadratic_dataset(60, rng);
  GradientBoostedTrees gbt;
  Rng fit_rng(22);
  gbt.fit(train, fit_rng);
  std::vector<double> predictions;
  for (const auto& x : test.x) predictions.push_back(gbt.predict(x));
  EXPECT_GT(spearman(predictions, test.y), 0.9);
}

TEST(Gbt, EarlyStopReducesRounds) {
  Rng rng(23);
  Dataset data;
  for (int i = 0; i < 50; ++i) {
    data.add({static_cast<double>(i)}, i < 25 ? 0.0 : 1.0);  // trivial
  }
  GbtOptions options;
  options.num_rounds = 100;
  options.subsample = 1.0;
  options.early_stop_tolerance = 1e-6;
  GradientBoostedTrees gbt(options);
  Rng fit_rng(24);
  gbt.fit(data, fit_rng);
  EXPECT_LT(gbt.num_rounds_used(), 100u);
}

TEST(Gbt, PredictBeforeFitThrows) {
  GradientBoostedTrees gbt;
  EXPECT_THROW(gbt.predict(std::vector<double>{0.0}), CheckError);
}

TEST(Gbt, InvalidOptionsThrow) {
  GbtOptions bad;
  bad.learning_rate = 0.0;
  EXPECT_THROW(GradientBoostedTrees{bad}, CheckError);
  GbtOptions bad2;
  bad2.subsample = 1.5;
  EXPECT_THROW(GradientBoostedTrees{bad2}, CheckError);
}

TEST(FeatureEncoder, EncodesPositionAndMagnitude) {
  cs::ConfigurationSpace space;
  space.add(cs::tile_factor_param("P0", 2000));
  space.add(cs::tile_factor_param("P1", 2000));
  FeatureEncoder encoder(&space);
  EXPECT_EQ(encoder.num_features(), 4u);
  cs::Configuration config = space.default_configuration();
  config.set_index(0, 0);   // tile 1
  config.set_index(1, 19);  // tile 2000
  const auto features = encoder.encode(config);
  EXPECT_DOUBLE_EQ(features[0], 0.0);
  EXPECT_NEAR(features[1], std::log2(2.0), 1e-12);
  EXPECT_DOUBLE_EQ(features[2], 1.0);
  EXPECT_NEAR(features[3], std::log2(2001.0), 1e-12);
}

}  // namespace
}  // namespace tvmbo::surrogate
