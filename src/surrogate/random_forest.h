// Random-Forest regressor with predictive uncertainty — the surrogate
// model ytopt's Bayesian optimization uses (§2.2 of the paper: "a
// dynamically updated Random Forest surrogate model ... balance
// exploration and exploitation"). The per-tree spread provides the
// uncertainty the LCB acquisition needs.
#pragma once

#include <functional>
#include <span>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "surrogate/decision_tree.h"

namespace tvmbo::surrogate {

struct ForestOptions {
  int num_trees = 100;
  /// Fit trees and score candidates on the shared thread pool, the calling
  /// thread included. Deterministic regardless: every tree's RNG stream
  /// and bootstrap rows are derived on the caller, in tree order, so
  /// parallel and serial fits produce identical forests. Pool threads
  /// never allocate: node storage and scratch are sized before a tree is
  /// handed out.
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

  /// A refitting ask's pass over the shared pool: fits the forest on the
  /// dataset `data()` returns, then scores the candidate pool `draw()`
  /// returns (a row-major matrix with the dataset's columns; may be empty)
  /// into `scores`, one prediction per row. Helpers are woken before
  /// `data()` runs; the caller plans each tree (RNG stream, bootstrap
  /// rows, node storage) and publishes it at once, then runs `draw()`
  /// while the helpers build. Both callbacks run on the calling thread;
  /// `draw()` runs after every split of `rng`, so it may use `rng` itself.
  /// The forest and `scores` are bit-identical to fit() followed by
  /// predict_batch(). fit() is this pass with no pool.
  void fit_and_score(const std::function<const Dataset&()>& data, Rng& rng,
                     const std::function<std::span<const double>()>& draw,
                     std::vector<Prediction>& scores);

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
  /// predict_batch of every row of `features` into `scores` (resized), in
  /// row chunks on the shared pool with the caller participating.
  void score(std::span<const double> features,
             std::vector<Prediction>& scores) const;

 private:
  /// Participants beyond the caller for a pass over the shared pool.
  std::size_t helpers() const;
  void score_on(ThreadPool::Team& team, std::span<const double> features,
                std::vector<Prediction>& scores) const;

  ForestOptions options_;
  std::vector<DecisionTree> trees_;
  std::size_t num_features_ = 0;  ///< columns of the dataset last fit
};

}  // namespace tvmbo::surrogate
