#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>

#include "common/stats.h"
#include "configspace/divisors.h"
#include "kernels/polybench.h"
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

TEST(DecisionTree, RowMarksCountEachSampleAfresh) {
  // One RowMarks across successive bootstrap samples (as a forest plans
  // its trees) counts each sample's distinct rows as a fresh set would.
  RowMarks marks(50);
  Rng rng(3);
  for (int sample = 0; sample < 200; ++sample) {
    std::vector<std::uint32_t> rows(1 + sample % 80);
    for (std::uint32_t& row : rows) {
      row = static_cast<std::uint32_t>(rng.uniform_int(50));
    }
    std::vector<std::uint32_t> sorted = rows;
    std::sort(sorted.begin(), sorted.end());
    const auto distinct = static_cast<std::size_t>(
        std::unique(sorted.begin(), sorted.end()) - sorted.begin());
    EXPECT_EQ(marks.count_distinct(rows), distinct) << "sample " << sample;
  }
  EXPECT_EQ(marks.count_distinct({}), 0u);
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

TEST(RandomForest, FitAndScoreMatchesFitThenPredictBatch) {
  Rng rng(22);
  const Dataset data = quadratic_dataset(80, rng);
  // A pool with duplicate rows, as ytopt's with-replacement pool has.
  std::vector<double> pool;
  for (std::size_t i = 0; i < 50; ++i) {
    if (i % 4 == 3) {
      const double x0 = pool[(i / 2) * 2];
      const double x1 = pool[(i / 2) * 2 + 1];
      pool.push_back(x0);
      pool.push_back(x1);
    } else {
      pool.push_back(rng.uniform());
      pool.push_back(rng.uniform());
    }
  }
  auto bits = [](double v) { return std::bit_cast<std::uint64_t>(v); };
  for (const bool parallel : {true, false}) {
    for (const bool empty : {false, true}) {
      const std::span<const double> rows =
          empty ? std::span<const double>{} : std::span<const double>(pool);
      ForestOptions options{.num_trees = 24, .parallel_fit = parallel};
      RandomForest reference(options);
      Rng reference_rng(9);
      reference.fit(data, reference_rng);
      std::vector<Prediction> expected(rows.size() / 2);
      reference.predict_batch(rows, expected);
      // draw() runs after every split of the fit's generator.
      const std::uint64_t after_fit = reference_rng();

      RandomForest forest(options);
      Rng fit_rng(9);
      std::uint64_t at_draw = 0;
      std::vector<Prediction> scores{Prediction{1.0, 1.0}};
      forest.fit_and_score([&]() -> const Dataset& { return data; }, fit_rng,
                           [&] {
                             at_draw = fit_rng();
                             return rows;
                           },
                           scores);
      EXPECT_EQ(at_draw, after_fit);
      ASSERT_EQ(scores.size(), expected.size());
      for (std::size_t i = 0; i < scores.size(); ++i) {
        EXPECT_EQ(bits(scores[i].mean), bits(expected[i].mean)) << "row " << i;
        EXPECT_EQ(bits(scores[i].std), bits(expected[i].std)) << "row " << i;
      }
      // The forests themselves are identical too.
      for (std::size_t i = 0; i + 2 <= pool.size(); i += 2) {
        const std::span<const double> x(pool.data() + i, 2);
        EXPECT_EQ(bits(forest.predict_with_std(x).std),
                  bits(reference.predict_with_std(x).std));
      }
      // score() on the fitted forest gives predict_batch's bits as well.
      std::vector<Prediction> rescored;
      forest.score(rows, rescored);
      ASSERT_EQ(rescored.size(), expected.size());
      for (std::size_t i = 0; i < rescored.size(); ++i) {
        EXPECT_EQ(bits(rescored[i].mean), bits(expected[i].mean));
      }
    }
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

// The encoder's precomputed tables must give the formula's doubles: the
// reference below is the per-call computation the tables replaced.
void expect_tables_match_formula(const cs::ConfigurationSpace& space) {
  const FeatureEncoder encoder(&space);
  const cs::Configuration base = space.default_configuration();
  std::vector<double> features(encoder.num_features());
  auto check = [&](const cs::Configuration& config, std::size_t i) {
    encoder.encode(config, features);
    const cs::Hyperparameter& param = space.param(i);
    const std::uint64_t card = param.cardinality();
    const std::vector<double> values = space.values(config);
    double position;
    if (card > 1) {
      position = static_cast<double>(config.index(i)) /
                 static_cast<double>(card - 1);
    } else if (card == 1) {
      position = 0.0;
    } else {
      const auto& f =
          static_cast<const cs::UniformFloatHyperparameter&>(param);
      position = (config.real(i) - f.lower()) / (f.upper() - f.lower());
    }
    const double magnitude = std::log2(1.0 + std::fabs(values[i]));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(features[2 * i]),
              std::bit_cast<std::uint64_t>(position))
        << param.name() << " index " << config.index(i);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(features[2 * i + 1]),
              std::bit_cast<std::uint64_t>(magnitude))
        << param.name() << " index " << config.index(i);
  };
  for (std::size_t i = 0; i < space.num_params(); ++i) {
    const std::uint64_t card = space.param(i).cardinality();
    cs::Configuration config = base;
    if (card == 0) {
      const auto& f =
          static_cast<const cs::UniformFloatHyperparameter&>(space.param(i));
      for (int step = 0; step <= 16; ++step) {
        config.set_real(i, f.lower() + (f.upper() - f.lower()) * step / 16);
        check(config, i);
      }
      continue;
    }
    for (std::uint64_t index = 0; index < card; ++index) {
      config.set_index(i, static_cast<std::int64_t>(index));
      check(config, i);
    }
  }
}

TEST(FeatureEncoder, TablesMatchFormulaBitwise) {
  for (const char* kernel : {"lu", "cholesky", "3mm"}) {
    for (const kernels::Dataset size :
         {kernels::Dataset::kLarge, kernels::Dataset::kExtraLarge}) {
      SCOPED_TRACE(kernel);
      expect_tables_match_formula(kernels::build_space(
          kernel, kernels::make_workload(kernel, size).dims));
    }
  }
  // A float parameter and an integer range too wide for a table use the
  // formula directly.
  cs::ConfigurationSpace mixed;
  mixed.add(cs::tile_factor_param("P0", 2000));
  mixed.add(std::make_shared<cs::UniformFloatHyperparameter>("alpha", -3.0,
                                                             7.5));
  mixed.add(std::make_shared<cs::UniformIntegerHyperparameter>(
      "wide", -5, static_cast<std::int64_t>(
                      FeatureEncoder::kMaxTableIndices) + 10));
  expect_tables_match_formula(mixed);
}

}  // namespace
}  // namespace tvmbo::surrogate
