// CART regression tree with exact variance-reduction splits.
//
// The building block for both the Random-Forest surrogate (ytopt) and the
// gradient-boosted model (AutoTVM's XGBTuner). Trees are fit on at most a
// few hundred observations here, so exact split scans (sort per feature
// per node) are the right tradeoff — no histograms needed.
//
// The builder works on a feature-major copy of the dataset (FeatureColumns)
// that every tree of an ensemble shares. Per node and candidate feature it
// sorts contiguous {value, row} keys, so the split scan streams through one
// array instead of chasing row pointers. A fit into caller-sized scratch
// (TreeScratch, plus reserve_nodes) never allocates, which lets a forest
// build trees on pool threads without growing per-thread malloc arenas.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.h"
#include "surrogate/dataset.h"

namespace tvmbo::surrogate {

struct TreeOptions {
  int max_depth = 16;
  int min_samples_split = 2;
  int min_samples_leaf = 1;
  double min_variance_decrease = 0.0;
  /// Features examined per split: 0 = all (CART), otherwise a random
  /// subset of this size (random-forest style decorrelation).
  int max_features = 0;
};

/// Feature-major copy of a dataset's features: column(f)[r] is feature f
/// of row r.
class FeatureColumns {
 public:
  explicit FeatureColumns(const Dataset& data);

  std::size_t num_rows() const { return rows_; }
  std::size_t num_features() const { return features_; }
  const double* column(std::size_t feature) const {
    return values_.data() + feature * rows_;
  }

 private:
  std::size_t rows_;
  std::size_t features_;
  std::vector<double> values_;
};

/// One sample of a node, keyed by the feature being scanned.
struct SortKey {
  double v;
  std::uint32_t row;
};

/// Working memory of one tree build, sized before the build starts.
struct TreeScratch {
  std::vector<SortKey> keys;           ///< one per sampled row
  std::vector<std::size_t> features;   ///< one per feature

  TreeScratch(std::size_t sample_rows, std::size_t num_features)
      : keys(sample_rows), features(num_features) {}
};

/// Counts the distinct rows of successive samples of one dataset without
/// clearing anything between them: a row was seen in the current sample
/// when its mark holds the sample's stamp. One instance serves every tree
/// of an ensemble fit (fewer than 2^32 samples), so planning a tree
/// allocates nothing.
class RowMarks {
 public:
  explicit RowMarks(std::size_t num_rows) : marks_(num_rows) {}

  std::size_t count_distinct(std::span<const std::uint32_t> rows);

 private:
  std::vector<std::uint32_t> marks_;
  std::uint32_t stamp_ = 0;
};

class DecisionTree {
 public:
  explicit DecisionTree(TreeOptions options = {});

  /// Fits on `data` restricted to `rows` (all rows when empty). `rng` is
  /// required when options.max_features > 0.
  void fit(const Dataset& data, std::span<const std::size_t> rows = {},
           Rng* rng = nullptr);

  /// Fits on `rows` of the shared columns (duplicates allowed, permuted in
  /// place), targets `y`. Allocation-free when `scratch` holds at least
  /// rows.size() keys and num_features() features and reserve_nodes was
  /// called with the same rows.
  void fit(const FeatureColumns& columns, std::span<const double> y,
           std::span<std::uint32_t> rows, Rng* rng, TreeScratch& scratch);

  /// Reserves the most nodes a fit on `rows` can create: every leaf holds
  /// at least one distinct row (copies of a row never split apart), so u
  /// distinct rows give at most u leaves and 2u - 1 nodes; max_depth caps
  /// the count too. `marks` covers the rows' dataset.
  void reserve_nodes(std::span<const std::uint32_t> rows, RowMarks& marks);

  double predict(std::span<const double> features) const;

  bool fitted() const { return !nodes_.empty(); }
  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_leaves() const;
  std::size_t depth() const;

 private:
  /// Nodes are stored in preorder, so an internal node's left child is the
  /// node right after it; only the right child needs an index.
  struct Node {
    double value = 0;  ///< split threshold (internal) or prediction (leaf)
    int feature = -1;  ///< -1 for leaves; go left when x[feature] <= value
    int right = -1;
    bool is_leaf() const { return feature < 0; }
  };

  struct Build {
    const FeatureColumns& columns;
    std::span<const double> y;
    Rng* rng;
    TreeScratch& scratch;
    std::vector<Node>& nodes;
  };

  int build(Build& ctx, std::span<std::uint32_t> rows, int depth);
  std::size_t depth_below(std::size_t node) const;

  TreeOptions options_;
  std::vector<Node> nodes_;
};

}  // namespace tvmbo::surrogate
