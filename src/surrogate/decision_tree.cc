#include "surrogate/decision_tree.h"

#include <algorithm>
#include <cstdint>
#include <numeric>

#include "common/logging.h"

namespace tvmbo::surrogate {

FeatureColumns::FeatureColumns(const Dataset& data)
    : rows_(data.size()), features_(data.num_features()),
      values_(rows_ * features_) {
  for (std::size_t r = 0; r < rows_; ++r) {
    for (std::size_t f = 0; f < features_; ++f) {
      values_[f * rows_ + r] = data.x[r][f];
    }
  }
}

DecisionTree::DecisionTree(TreeOptions options) : options_(options) {
  TVMBO_CHECK_GT(options_.max_depth, 0) << "max_depth must be positive";
  TVMBO_CHECK_GE(options_.min_samples_leaf, 1)
      << "min_samples_leaf must be >= 1";
}

void DecisionTree::fit(const Dataset& data,
                       std::span<const std::size_t> rows, Rng* rng) {
  TVMBO_CHECK(!data.x.empty()) << "fit on empty dataset";
  TVMBO_CHECK_EQ(data.x.size(), data.y.size()) << "dataset size mismatch";
  TVMBO_CHECK_LE(data.size(), std::size_t{UINT32_MAX})
      << "dataset too large for 32-bit row ids";
  std::vector<std::uint32_t> working;
  if (rows.empty()) {
    working.resize(data.size());
    std::iota(working.begin(), working.end(), std::uint32_t{0});
  } else {
    working.assign(rows.begin(), rows.end());
  }
  const FeatureColumns columns(data);
  TreeScratch scratch(working.size(), columns.num_features());
  RowMarks marks(data.size());
  reserve_nodes(working, marks);
  fit(columns, data.y, working, rng, scratch);
}

void DecisionTree::fit(const FeatureColumns& columns,
                       std::span<const double> y,
                       std::span<std::uint32_t> rows, Rng* rng,
                       TreeScratch& scratch) {
  TVMBO_CHECK(!rows.empty()) << "fit on empty dataset";
  TVMBO_CHECK_EQ(columns.num_rows(), y.size()) << "dataset size mismatch";
  TVMBO_CHECK_GE(scratch.keys.size(), rows.size())
      << "tree scratch smaller than the sample";
  TVMBO_CHECK_GE(scratch.features.size(), columns.num_features())
      << "tree scratch smaller than the feature count";
  if (options_.max_features > 0) {
    TVMBO_CHECK(rng != nullptr)
        << "random feature subsetting requires an Rng";
  }
  // Build into locals (the node storage moved out of the tree and back,
  // the stream copied in and out): a forest builds neighbouring trees on
  // different threads, and writing their adjacent members node by node
  // would bounce the shared cache lines between cores.
  std::vector<Node> nodes = std::move(nodes_);
  nodes.clear();
  Rng stream = rng != nullptr ? *rng : Rng();
  Build ctx{columns, y, rng != nullptr ? &stream : nullptr, scratch, nodes};
  build(ctx, rows, 0);
  nodes_ = std::move(nodes);
  if (rng != nullptr) *rng = stream;
}

std::size_t RowMarks::count_distinct(std::span<const std::uint32_t> rows) {
  ++stamp_;
  std::size_t distinct = 0;
  for (std::uint32_t row : rows) {
    if (marks_[row] != stamp_) {
      marks_[row] = stamp_;
      ++distinct;
    }
  }
  return distinct;
}

void DecisionTree::reserve_nodes(std::span<const std::uint32_t> rows,
                                 RowMarks& marks) {
  const std::size_t distinct = marks.count_distinct(rows);
  std::size_t nodes = distinct == 0 ? 0 : 2 * distinct - 1;
  if (options_.max_depth < 32) {
    nodes = std::min(nodes, (std::size_t{2} << options_.max_depth) - 1);
  }
  nodes_.reserve(nodes);
}

int DecisionTree::build(Build& ctx, std::span<std::uint32_t> rows,
                        int depth) {
  TVMBO_CHECK(!rows.empty()) << "empty node range";
  const std::size_t count = rows.size();

  double sum = 0.0, sum_sq = 0.0;
  for (std::uint32_t row : rows) {
    const double y = ctx.y[row];
    sum += y;
    sum_sq += y * y;
  }
  const double node_mean = sum / static_cast<double>(count);
  const double node_var =
      sum_sq / static_cast<double>(count) - node_mean * node_mean;

  std::vector<Node>& nodes = ctx.nodes;
  auto make_leaf = [&]() -> int {
    nodes.push_back(Node{.value = node_mean});
    return static_cast<int>(nodes.size()) - 1;
  };

  if (depth >= options_.max_depth ||
      count < static_cast<std::size_t>(options_.min_samples_split) ||
      node_var <= 1e-24) {
    return make_leaf();
  }

  // Candidate features: all, or a random subset.
  const std::size_t num_features = ctx.columns.num_features();
  std::span<std::size_t> features(ctx.scratch.features.data(), num_features);
  std::iota(features.begin(), features.end(), std::size_t{0});
  if (options_.max_features > 0 &&
      static_cast<std::size_t>(options_.max_features) < num_features) {
    ctx.rng->shuffle(features);
    features = features.first(static_cast<std::size_t>(options_.max_features));
  }

  // Exact best split: for each candidate feature, sort this node's rows by
  // the feature and scan split points between distinct values. The keys
  // carry each feature's sorted order into the next feature's sort, and
  // std::sort's permutation depends only on comparison outcomes, so ties
  // land exactly where a sort of the row indices themselves would put them.
  double best_gain = options_.min_variance_decrease;
  int best_feature = -1;
  double best_threshold = 0.0;

  std::span<SortKey> keys(ctx.scratch.keys.data(), count);
  for (std::size_t i = 0; i < count; ++i) keys[i].row = rows[i];
  const double total_sum = sum;
  for (std::size_t feature : features) {
    const double* column = ctx.columns.column(feature);
    for (SortKey& key : keys) key.v = column[key.row];
    std::sort(keys.begin(), keys.end(),
              [](const SortKey& a, const SortKey& b) { return a.v < b.v; });
    double left_sum = 0.0;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      left_sum += ctx.y[keys[i].row];
      const double v = keys[i].v;
      const double v_next = keys[i + 1].v;
      if (v == v_next) continue;
      const std::size_t left_n = i + 1;
      const std::size_t right_n = count - left_n;
      if (left_n < static_cast<std::size_t>(options_.min_samples_leaf) ||
          right_n < static_cast<std::size_t>(options_.min_samples_leaf)) {
        continue;
      }
      const double right_sum = total_sum - left_sum;
      // Variance reduction up to constants: sum^2/n terms.
      const double gain =
          left_sum * left_sum / static_cast<double>(left_n) +
          right_sum * right_sum / static_cast<double>(right_n) -
          total_sum * total_sum / static_cast<double>(count);
      if (gain / static_cast<double>(count) > best_gain) {
        best_gain = gain / static_cast<double>(count);
        best_feature = static_cast<int>(feature);
        // Midpoint, unless v and v_next are so close it rounds up to
        // v_next — then `x <= threshold` would send every row left and
        // produce an empty partition. v itself always splits cleanly
        // (no training value lies strictly between v and v_next).
        best_threshold = 0.5 * (v + v_next);
        if (best_threshold >= v_next) best_threshold = v;
      }
    }
  }

  if (best_feature < 0) return make_leaf();

  // Partition rows in place around the chosen split.
  const double* split_column =
      ctx.columns.column(static_cast<std::size_t>(best_feature));
  const auto middle =
      std::partition(rows.begin(), rows.end(), [&](std::uint32_t row) {
        return split_column[row] <= best_threshold;
      });
  const auto split = static_cast<std::size_t>(middle - rows.begin());
  TVMBO_CHECK(split > 0 && split < count)
      << "degenerate partition in tree build";

  const int node_index = static_cast<int>(nodes.size());
  nodes.push_back(Node{.value = best_threshold, .feature = best_feature});
  build(ctx, rows.first(split), depth + 1);
  const int right = build(ctx, rows.subspan(split), depth + 1);
  nodes[static_cast<std::size_t>(node_index)].right = right;
  return node_index;
}

double DecisionTree::predict(std::span<const double> features) const {
  TVMBO_CHECK(fitted()) << "predict before fit";
  std::size_t node = 0;
  while (!nodes_[node].is_leaf()) {
    const Node& split = nodes_[node];
    TVMBO_CHECK_LT(static_cast<std::size_t>(split.feature), features.size())
        << "feature arity mismatch in predict";
    node = features[static_cast<std::size_t>(split.feature)] <= split.value
               ? node + 1
               : static_cast<std::size_t>(split.right);
  }
  return nodes_[node].value;
}

std::size_t DecisionTree::num_leaves() const {
  std::size_t leaves = 0;
  for (const Node& node : nodes_) {
    if (node.is_leaf()) ++leaves;
  }
  return leaves;
}

std::size_t DecisionTree::depth_below(std::size_t node) const {
  const Node& n = nodes_[node];
  if (n.is_leaf()) return 1;
  return 1 + std::max(depth_below(node + 1),
                      depth_below(static_cast<std::size_t>(n.right)));
}

std::size_t DecisionTree::depth() const {
  if (nodes_.empty()) return 0;
  return depth_below(0);
}

}  // namespace tvmbo::surrogate
