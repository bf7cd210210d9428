// quantized.h — FPU-free fixed-point inference (§3.1).
//
// "Another way to perform FP operations in a kernel is to use a fixed-point
// representation. Operations on fixed-point representations can be faster
// and do not require an FP unit in the running processor." KML supports
// int/float/double matrices; this module completes the story: convert a
// trained double-precision chain network into Q16.16 fixed point (weights,
// biases, and the normalizer moments) and run inference without a single
// kernel_fpu_begin(). Activations use the piecewise-linear hard sigmoid.
//
// The tradeoff the paper warns about ("fixed-point representations cannot
// emulate large ranges, which can lead to numerical instability") is real:
// inputs must be normalized (Z-scores are O(1)) and accuracy drops slightly
// — tests and bench_ablation quantify it.
#pragma once

#include "matrix/linalg.h"
#include "nn/network.h"

#include <vector>

namespace kml::nn {

class QuantizedNetwork {
 public:
  QuantizedNetwork() = default;

  // Quantize a trained chain network to Q16.16. Supported layers: Linear,
  // Sigmoid, ReLU, Tanh. Returns false (leaving `out` untouched) on
  // unsupported layers or weights outside the representable Q16.16 range.
  static bool quantize(const Network& net, QuantizedNetwork& out);

  // Forward pass, fixed-point end to end. `features` are RAW (the
  // quantized normalizer is applied internally). Returns the argmax class,
  // or -1 when `features` is null or n != in_features().
  int infer_class(const double* features, int n) const;

  // Fixed-point logits for inspection/testing; empty when in.cols() !=
  // in_features().
  matrix::MatX forward(const matrix::MatX& in) const;

  int num_layers() const;
  int in_features() const;
  int out_features() const;

  // Bytes of quantized parameter storage (4 B/element Q16.16).
  std::size_t param_bytes() const;

  // Quantized model file format ('KMLQ' v1): raw Q16.16 words, no doubles
  // anywhere (the strictly FPU-free artifact). load() validates the layer
  // chain (each linear layer's input width is the previous one's output
  // width; the normalizer, when present, matches the first) and rejects the
  // retired v2 int8 format; on any failure it returns false and leaves the
  // object untouched.
  bool save(const char* path) const;
  bool load(const char* path);

 private:
  struct QLayer {
    LayerType type;
    matrix::MatX weights;  // empty for activations
    matrix::MatX bias;
  };

  // True when each linear layer's input width is the previous linear
  // layer's output width and the normalizer is absent or as wide as the
  // first; infer_class and forward rely on it to stay in bounds.
  bool chains() const;

  std::vector<QLayer> layers_;
  std::vector<math::Fixed> norm_mean_;
  std::vector<math::Fixed> norm_inv_std_;  // precomputed 1/stddev
};

}  // namespace kml::nn
