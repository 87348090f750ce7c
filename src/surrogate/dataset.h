// Feature matrices for the surrogate models, plus the encoder that turns
// ConfigSpace configurations into model features.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "configspace/configspace.h"

namespace tvmbo::surrogate {

/// Row-major regression dataset.
struct Dataset {
  std::vector<std::vector<double>> x;  ///< feature rows
  std::vector<double> y;               ///< targets

  std::size_t size() const { return x.size(); }
  std::size_t num_features() const { return x.empty() ? 0 : x[0].size(); }

  void add(std::vector<double> features, double target);
};

/// Encodes a configuration as surrogate features. Each parameter
/// contributes two features: its normalized position in the domain
/// (ordinal locality) and log2(1 + |value|) (magnitude, which is what
/// matters for tile sizes spanning 1..2400). Both features of every index
/// of a discrete parameter (up to kMaxTableIndices of them) are computed
/// once, at construction, so the space must be complete by then.
class FeatureEncoder {
 public:
  static constexpr std::uint64_t kMaxTableIndices = 4096;

  explicit FeatureEncoder(const cs::ConfigurationSpace* space);

  std::size_t num_features() const;
  std::vector<double> encode(const cs::Configuration& config) const;
  /// Writes the features into `out` (num_features() entries).
  void encode(const cs::Configuration& config, std::span<double> out) const;

 private:
  static constexpr std::size_t kNoTable = SIZE_MAX;

  /// The two features of `param` at `index`, or at the real value `real`
  /// for a continuous parameter.
  static void features_of(const cs::Hyperparameter& param,
                          std::int64_t index, double real, double* out);

  const cs::ConfigurationSpace* space_;
  /// Per parameter, where its (position, magnitude) pairs start in
  /// table_: kNoTable when continuous or over kMaxTableIndices indices.
  struct Column {
    std::size_t offset = kNoTable;
    std::uint64_t indices = 0;
  };
  std::vector<Column> columns_;
  std::vector<double> table_;
};

}  // namespace tvmbo::surrogate
