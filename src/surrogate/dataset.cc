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

void FeatureEncoder::encode(const cs::Configuration& config,
                            std::span<double> out) const {
  TVMBO_CHECK_EQ(out.size(), num_features()) << "feature buffer size";
  const std::vector<double> values = space_->values(config);
  for (std::size_t i = 0; i < space_->num_params(); ++i) {
    const auto& param = space_->param(i);
    const std::uint64_t card = param.cardinality();
    double position;
    if (card > 1) {
      position = static_cast<double>(config.index(i)) /
                 static_cast<double>(card - 1);
    } else if (card == 1) {
      position = 0.0;
    } else {
      // Continuous: normalize the real value.
      const auto& f =
          static_cast<const cs::UniformFloatHyperparameter&>(param);
      position = (config.real(i) - f.lower()) / (f.upper() - f.lower());
    }
    out[2 * i] = position;
    out[2 * i + 1] = std::log2(1.0 + std::fabs(values[i]));
  }
}

}  // namespace tvmbo::surrogate
