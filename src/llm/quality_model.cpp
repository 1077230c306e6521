#include "llm/quality_model.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "common/stats.h"

namespace cachegen {

std::vector<double> QualityModel::LayerWeights(size_t num_layers) const {
  std::vector<double> w(num_layers);
  for (size_t l = 0; l < num_layers; ++l) {
    w[l] = std::exp(-p_.layer_decay * static_cast<double>(l) /
                    static_cast<double>(num_layers));
  }
  return w;
}

QualityReference::QualityReference(const KVCache& ref) : ref_(&ref) {
  var_.reserve(ref.num_layers());
  for (size_t l = 0; l < ref.num_layers(); ++l) {
    const auto& layer = ref.layer(l);
    RunningStats rs;
    for (float x : layer.k.Data()) rs.Add(x);
    for (float x : layer.v.Data()) rs.Add(x);
    var_.push_back(std::max(rs.Variance(), 1e-12));
  }
}

double QualityModel::WeightedNmse(const QualityReference& ref,
                                  const KVCache& recon) const {
  const size_t L = ref.cache().num_layers();
  if (L == 0) return 0.0;
  std::vector<double> per_layer(L);
  const std::vector<double> mse = recon.PerLayerMse(ref.cache());
  for (size_t l = 0; l < L; ++l) {
    // Normalize by the layer's signal variance (mean-removed power).
    per_layer[l] = mse[l] / ref.LayerVariance(l);
  }
  return WeightedNmse(per_layer);
}

double QualityModel::WeightedNmse(std::span<const double> per_layer_nmse) const {
  if (per_layer_nmse.empty()) return 0.0;
  const std::vector<double> w = LayerWeights(per_layer_nmse.size());
  double num = 0.0, den = 0.0;
  for (size_t l = 0; l < per_layer_nmse.size(); ++l) {
    num += w[l] * per_layer_nmse[l];
    den += w[l];
  }
  return num / den;
}

double QualityModel::QualityFromDistortion(double weighted_nmse) const {
  if (weighted_nmse <= 0.0) return 1.0;
  const double x = std::log10(weighted_nmse) - p_.log10_nmse_mid;
  return 1.0 / (1.0 + std::exp(p_.logistic_k * x));
}

double QualityModel::QualityFromKV(const QualityReference& ref,
                                   const KVCache& recon) const {
  return QualityFromDistortion(WeightedNmse(ref, recon));
}

double QualityModel::QualityFromDrop(double lost_mass, bool attention_aware) const {
  lost_mass = std::clamp(lost_mass, 0.0, 1.0);
  const double beta = attention_aware ? p_.drop_beta_kv : p_.drop_beta_text;
  return std::clamp(1.0 - beta * lost_mass - 0.35 * lost_mass * lost_mass, 0.0, 1.0);
}

double QualityModel::ToMetric(TaskMetric metric, double q) {
  q = std::clamp(q, 0.0, 1.0);
  switch (metric) {
    case TaskMetric::kAccuracy:
      return q;
    case TaskMetric::kF1:
      return 95.0 * q;  // TriviaQA-like ceiling, in percent
    case TaskMetric::kPerplexity:
      // Diverges as quality collapses; 5.9 matches a well-served WikiText run.
      return 5.9 * std::pow(std::max(q, 0.02), -1.2);
  }
  throw std::logic_error("QualityModel::ToMetric: bad metric");
}

}  // namespace cachegen
