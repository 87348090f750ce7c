#include "surrogate/dataset.h"

#include <cmath>

#include "common/logging.h"

namespace tvmbo::surrogate {

void Dataset::add(std::vector<double> features, double target) {
  if (!x.empty()) {
    TVMBO_CHECK_EQ(features.size(), x[0].size())
        << "feature arity mismatch in dataset";
  }
  x.push_back(std::move(features));
  y.push_back(target);
}

FeatureEncoder::FeatureEncoder(const cs::ConfigurationSpace* space)
    : space_(space) {
  TVMBO_CHECK(space_ != nullptr) << "encoder requires a space";
  columns_.resize(space_->num_params());
  for (std::size_t i = 0; i < space_->num_params(); ++i) {
    const cs::Hyperparameter& param = space_->param(i);
    const std::uint64_t card = param.cardinality();
    if (card == 0 || card > kMaxTableIndices) continue;
    columns_[i] = {table_.size(), card};
    table_.resize(table_.size() + 2 * card);
    for (std::uint64_t index = 0; index < card; ++index) {
      features_of(param, static_cast<std::int64_t>(index), 0.0,
                  table_.data() + columns_[i].offset + 2 * index);
    }
  }
}

std::size_t FeatureEncoder::num_features() const {
  return 2 * space_->num_params();
}

std::vector<double> FeatureEncoder::encode(
    const cs::Configuration& config) const {
  std::vector<double> features(num_features());
  encode(config, features);
  return features;
}

void FeatureEncoder::features_of(const cs::Hyperparameter& param,
                                 std::int64_t index, double real,
                                 double* out) {
  const std::uint64_t card = param.cardinality();
  double position;
  double value;
  if (card > 0) {
    position = card > 1 ? static_cast<double>(index) /
                              static_cast<double>(card - 1)
                        : 0.0;
    value = param.value_at(static_cast<std::uint64_t>(index));
  } else {
    // Continuous: normalize the real value.
    const auto& f = static_cast<const cs::UniformFloatHyperparameter&>(param);
    position = (real - f.lower()) / (f.upper() - f.lower());
    value = real;
  }
  out[0] = position;
  out[1] = std::log2(1.0 + std::fabs(value));
}

void FeatureEncoder::encode(const cs::Configuration& config,
                            std::span<double> out) const {
  TVMBO_CHECK_EQ(out.size(), num_features()) << "feature buffer size";
  TVMBO_CHECK_EQ(config.size(), columns_.size())
      << "configuration arity mismatch";
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    double* pair = out.data() + 2 * i;
    const Column& column = columns_[i];
    if (column.offset != kNoTable) {
      const auto index = static_cast<std::uint64_t>(config.index(i));
      TVMBO_CHECK_LT(index, column.indices) << "index out of domain";
      const double* entry = table_.data() + column.offset + 2 * index;
      pair[0] = entry[0];
      pair[1] = entry[1];
    } else {
      const cs::Hyperparameter& param = space_->param(i);
      const bool discrete = param.cardinality() > 0;
      features_of(param, discrete ? config.index(i) : 0,
                  discrete ? 0.0 : config.real(i), pair);
    }
  }
}

}  // namespace tvmbo::surrogate
