#include "nn/quantized.h"

#include "nn/linear.h"
#include "portability/log.h"

namespace kml::nn {
namespace {

constexpr double kQMax = 32000.0;  // safe margin inside Q16.16 range

bool in_range(const matrix::MatD& m) {
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (math::kml_abs(m.data()[i]) > kQMax) return false;
  }
  return true;
}

math::Fixed fixed_activation(LayerType type, math::Fixed x) {
  switch (type) {
    case LayerType::kSigmoid:
      return math::fixed_sigmoid(x);
    case LayerType::kReLU:
      return x > math::Fixed::zero() ? x : math::Fixed::zero();
    case LayerType::kTanh: {
      // hard tanh: clamp(x, -1, 1) — same piecewise-linear spirit.
      if (x > math::Fixed::one()) return math::Fixed::one();
      if (x < -math::Fixed::one()) return -math::Fixed::one();
      return x;
    }
    default:
      return x;
  }
}

}  // namespace

bool QuantizedNetwork::quantize(const Network& net, QuantizedNetwork& out) {
  QuantizedNetwork q;
  auto& mutable_net = const_cast<Network&>(net);
  for (int i = 0; i < net.num_layers(); ++i) {
    Layer& layer = mutable_net.layer(i);
    QLayer ql;
    ql.type = layer.type();
    switch (layer.type()) {
      case LayerType::kLinear: {
        auto& lin = static_cast<Linear&>(layer);
        if (!in_range(lin.weights()) || !in_range(lin.bias())) {
          KML_ERROR("quantize: layer %d weights exceed Q16.16 range", i);
          return false;
        }
        ql.weights = matrix::to_fixed(lin.weights());
        ql.bias = matrix::to_fixed(lin.bias());
        break;
      }
      case LayerType::kSigmoid:
      case LayerType::kReLU:
      case LayerType::kTanh:
        break;
      default:
        KML_ERROR("quantize: unsupported layer type %d",
                  static_cast<int>(layer.type()));
        return false;
    }
    q.layers_.push_back(std::move(ql));
  }

  std::vector<double> means;
  std::vector<double> stds;
  net.normalizer().export_moments(means, stds);
  for (std::size_t j = 0; j < means.size(); ++j) {
    if (math::kml_abs(means[j]) > kQMax) {
      KML_ERROR("quantize: normalizer mean %zu exceeds Q16.16 range", j);
      return false;
    }
    q.norm_mean_.push_back(math::Fixed::from_double(means[j]));
    const double inv = stds[j] < 1e-9 ? 0.0 : 1.0 / stds[j];
    q.norm_inv_std_.push_back(math::Fixed::from_double(inv));
  }
  if (!q.chains()) {
    KML_ERROR("quantize: layer or normalizer widths do not chain");
    return false;
  }
  out = std::move(q);
  return true;
}

matrix::MatX QuantizedNetwork::forward(const matrix::MatX& in) const {
  const int width = in_features();
  if (width > 0 && in.cols() != width) return matrix::MatX();
  matrix::MatX activation = in;
  for (const QLayer& layer : layers_) {
    if (layer.type == LayerType::kLinear) {
      matrix::MatX out(activation.rows(), layer.weights.cols());
      matrix::matmul(activation, layer.weights, out);
      for (int r = 0; r < out.rows(); ++r) {
        for (int c = 0; c < out.cols(); ++c) {
          out.at(r, c) += layer.bias.at(0, c);
        }
      }
      activation = std::move(out);
    } else {
      for (std::size_t i = 0; i < activation.size(); ++i) {
        activation.data()[i] = fixed_activation(layer.type,
                                                activation.data()[i]);
      }
    }
  }
  return activation;
}

int QuantizedNetwork::infer_class(const double* features, int n) const {
  if (features == nullptr || n <= 0 || n != in_features()) return -1;
  matrix::MatX x(1, n);
  for (int j = 0; j < n; ++j) {
    math::Fixed v = math::Fixed::from_double(features[j]);
    if (!norm_mean_.empty()) {
      const auto idx = static_cast<std::size_t>(j);
      v = (v - norm_mean_[idx]) * norm_inv_std_[idx];
    }
    x.at(0, j) = v;
  }
  const matrix::MatX logits = forward(x);
  int best = 0;
  for (int c = 1; c < logits.cols(); ++c) {
    if (logits.at(0, c) > logits.at(0, best)) best = c;
  }
  return best;
}

int QuantizedNetwork::num_layers() const {
  return static_cast<int>(layers_.size());
}

int QuantizedNetwork::in_features() const {
  for (const QLayer& layer : layers_) {
    if (layer.type == LayerType::kLinear) return layer.weights.rows();
  }
  return 0;
}

int QuantizedNetwork::out_features() const {
  for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) {
    if (it->type == LayerType::kLinear) return it->weights.cols();
  }
  return 0;
}

bool QuantizedNetwork::chains() const {
  int width = -1;  // output width of the previous linear layer
  for (const QLayer& layer : layers_) {
    if (layer.type != LayerType::kLinear) continue;
    if (width >= 0 && layer.weights.rows() != width) return false;
    width = layer.weights.cols();
  }
  return norm_mean_.empty() ||
         norm_mean_.size() == static_cast<std::size_t>(in_features());
}

namespace {

constexpr std::uint32_t kQMagic = 0x514c4d4b;  // "KMLQ"
constexpr std::uint32_t kQVersion = 1;         // Q16.16 payload
// v2 carried int8 weights plus double scales; int8 serving was retired and
// its files are refused by name.
constexpr std::uint32_t kQVersionRetired = 2;
constexpr std::uint32_t kQMaxDim = 1u << 16;

bool write_u32(KmlFile* f, std::uint32_t v) {
  return kml_fwrite(f, &v, sizeof(v)) == sizeof(v);
}

bool read_u32(KmlFile* f, std::uint32_t& v) {
  return kml_fread(f, &v, sizeof(v)) == sizeof(v);
}

bool write_raw32(KmlFile* f, const math::Fixed* data, std::size_t n) {
  if (n == 0) return true;
  const auto bytes = static_cast<std::int64_t>(n * sizeof(math::Fixed));
  return kml_fwrite(f, data, n * sizeof(math::Fixed)) == bytes;
}

bool read_raw32(KmlFile* f, math::Fixed* data, std::size_t n) {
  if (n == 0) return true;
  const auto bytes = static_cast<std::int64_t>(n * sizeof(math::Fixed));
  return kml_fread(f, data, n * sizeof(math::Fixed)) == bytes;
}

}  // namespace

bool QuantizedNetwork::save(const char* path) const {
  KmlFile* f = kml_fopen(path, "w");
  if (f == nullptr) return false;
  bool ok = write_u32(f, kQMagic) && write_u32(f, kQVersion);
  ok = ok && write_u32(f, static_cast<std::uint32_t>(norm_mean_.size()));
  ok = ok && write_raw32(f, norm_mean_.data(), norm_mean_.size());
  ok = ok && write_raw32(f, norm_inv_std_.data(), norm_inv_std_.size());

  ok = ok && write_u32(f, static_cast<std::uint32_t>(layers_.size()));
  for (const QLayer& layer : layers_) {
    ok = ok && write_u32(f, static_cast<std::uint32_t>(layer.type));
    ok = ok && write_u32(f, static_cast<std::uint32_t>(layer.weights.rows()));
    ok = ok && write_u32(f, static_cast<std::uint32_t>(layer.weights.cols()));
    if (layer.type == LayerType::kLinear) {
      ok = ok && write_raw32(f, layer.weights.data(), layer.weights.size());
      ok = ok && write_raw32(f, layer.bias.data(), layer.bias.size());
    }
  }
  kml_fclose(f);
  return ok;
}

bool QuantizedNetwork::load(const char* path) {
  KmlFile* f = kml_fopen(path, "r");
  if (f == nullptr) return false;
  QuantizedNetwork fresh;

  std::uint32_t magic = 0;
  std::uint32_t version = 0;
  bool ok = read_u32(f, magic) && read_u32(f, version) && magic == kQMagic;
  if (ok && version == kQVersionRetired) {
    kml_fclose(f);
    KML_ERROR("QuantizedNetwork::load: %s is a KMLQ v2 (int8) file; int8 "
              "serving was retired, re-quantize the model to Q16.16 (v1)",
              path);
    return false;
  }
  ok = ok && version == kQVersion;

  std::uint32_t nfeat = 0;
  ok = ok && read_u32(f, nfeat) && nfeat <= kQMaxDim;
  if (ok) {
    fresh.norm_mean_.resize(nfeat);
    fresh.norm_inv_std_.resize(nfeat);
    ok = read_raw32(f, fresh.norm_mean_.data(), nfeat) &&
         read_raw32(f, fresh.norm_inv_std_.data(), nfeat);
  }

  std::uint32_t nlayers = 0;
  ok = ok && read_u32(f, nlayers) && nlayers <= 1024;
  for (std::uint32_t i = 0; ok && i < nlayers; ++i) {
    std::uint32_t type = 0;
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    ok = read_u32(f, type) && read_u32(f, rows) && read_u32(f, cols) &&
         rows <= kQMaxDim && cols <= kQMaxDim;
    if (!ok) break;
    QLayer layer;
    layer.type = static_cast<LayerType>(type);
    switch (layer.type) {
      case LayerType::kLinear:
        layer.weights =
            matrix::MatX(static_cast<int>(rows), static_cast<int>(cols));
        layer.bias = matrix::MatX(1, static_cast<int>(cols));
        ok = read_raw32(f, layer.weights.data(), layer.weights.size()) &&
             read_raw32(f, layer.bias.data(), layer.bias.size());
        break;
      case LayerType::kSigmoid:
      case LayerType::kReLU:
      case LayerType::kTanh:
        break;
      default:
        ok = false;
        break;
    }
    if (ok) fresh.layers_.push_back(std::move(layer));
  }
  kml_fclose(f);
  if (!ok) {
    KML_ERROR("QuantizedNetwork::load: failed to parse %s", path);
    return false;
  }
  if (!fresh.chains()) {
    KML_ERROR("QuantizedNetwork::load: %s has layers or normalizer widths "
              "that do not chain",
              path);
    return false;
  }
  *this = std::move(fresh);
  return true;
}

std::size_t QuantizedNetwork::param_bytes() const {
  std::size_t total =
      (norm_mean_.size() + norm_inv_std_.size()) * sizeof(math::Fixed);
  for (const QLayer& layer : layers_) {
    total += (layer.weights.size() + layer.bias.size()) * sizeof(math::Fixed);
  }
  return total;
}

}  // namespace kml::nn
