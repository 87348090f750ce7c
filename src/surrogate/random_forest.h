// Random-Forest regressor with predictive uncertainty — the surrogate
// model ytopt's Bayesian optimization uses (§2.2 of the paper: "a
// dynamically updated Random Forest surrogate model ... balance
// exploration and exploitation"). The per-tree spread provides the
// uncertainty the LCB acquisition needs.
#pragma once

#include <vector>

#include "common/rng.h"
#include "surrogate/decision_tree.h"

namespace tvmbo::surrogate {

struct ForestOptions {
  int num_trees = 100;
  /// Fit trees on the shared thread pool, the calling thread included.
  /// Deterministic regardless: every tree's RNG stream and bootstrap rows
  /// are derived up front on the caller, so parallel and serial fits
  /// produce identical forests. Pool threads never allocate: node storage
  /// and scratch are sized before dispatch.
  bool parallel_fit = true;
  /// Bootstrap sample fraction per tree (with replacement).
  double bootstrap_fraction = 1.0;
  bool bootstrap = true;
  TreeOptions tree{.max_depth = 16, .min_samples_split = 2,
                   .min_samples_leaf = 1};
  /// Per-split random feature count; 0 = ceil(num_features / 3)
  /// (the scikit-learn regression default).
  int max_features = 0;
};

struct Prediction {
  double mean = 0.0;
  double std = 0.0;
};

class RandomForest {
 public:
  explicit RandomForest(ForestOptions options = {});

  void fit(const Dataset& data, Rng& rng);

  bool fitted() const { return !trees_.empty(); }
  std::size_t num_trees() const { return trees_.size(); }

  double predict(std::span<const double> features) const;
  /// Mean and standard deviation across trees.
  Prediction predict_with_std(std::span<const double> features) const;
  /// predict_with_std for each row of the row-major `features` matrix
  /// (out.size() rows), bit-identical to one call per row: every row's
  /// sums run over the trees in the same order.
  void predict_batch(std::span<const double> features,
                     std::span<Prediction> out) const;

 private:
  ForestOptions options_;
  std::vector<DecisionTree> trees_;
};

}  // namespace tvmbo::surrogate
