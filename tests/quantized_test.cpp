// Tests for src/nn/quantized: fidelity of fixed-point inference vs the
// double-precision network, the no-FPU guarantee, range rejection,
// footprint arithmetic, and model-file validation.
#include "nn/quantized.h"

#include "nn/activations.h"
#include "nn/linear.h"

#include "portability/log.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace kml::nn {
namespace {

// A trained-ish network over well-separated classes.
Network make_separable_net(math::Rng& rng, int classes = 3) {
  Network net = build_mlp_classifier(4, 8, classes, rng);
  // Train briefly so quantization has realistic weights to approximate.
  matrix::MatD x(90, 4);
  matrix::MatD y(90, classes);
  for (int i = 0; i < 90; ++i) {
    const int cls = i % classes;
    for (int j = 0; j < 4; ++j) x.at(i, j) = rng.normal(2.0 * cls, 0.4);
    y.at(i, cls) = 1.0;
  }
  net.normalizer().fit(x);
  const matrix::MatD z = net.normalizer().transform(x);
  CrossEntropyLoss loss;
  SGD opt(0.1, 0.9);
  opt.attach(net.params());
  net.train(z, y, loss, opt, 60, 16, rng);
  return net;
}

TEST(Quantized, AgreesWithDoubleNetworkOnSeparableData) {
  math::Rng rng(3);
  Network net = make_separable_net(rng);
  QuantizedNetwork q;
  ASSERT_TRUE(QuantizedNetwork::quantize(net, q));

  int agree = 0;
  const int kProbes = 200;
  for (int i = 0; i < kProbes; ++i) {
    const int cls = i % 3;
    double f[4];
    for (int j = 0; j < 4; ++j) f[j] = rng.normal(2.0 * cls, 0.4);

    std::vector<double> z(f, f + 4);
    net.normalizer().transform_row(z.data(), 4);
    matrix::MatD x(1, 4);
    for (int j = 0; j < 4; ++j) x.at(0, j) = z[static_cast<std::size_t>(j)];
    const int ref = net.predict_classes(x).at(0, 0);

    if (q.infer_class(f, 4) == ref) ++agree;
  }
  // The hard-sigmoid approximation costs some fidelity, not much.
  EXPECT_GT(agree, kProbes * 85 / 100);
}

TEST(Quantized, ForwardTouchesNoFpu) {
  math::Rng rng(5);
  Network net = make_separable_net(rng);
  QuantizedNetwork q;
  ASSERT_TRUE(QuantizedNetwork::quantize(net, q));

  matrix::MatX x(1, 4);
  for (int j = 0; j < 4; ++j) {
    x.at(0, j) = math::Fixed::from_double(0.25 * j);
  }
  kml_fpu_reset_stats();
  const matrix::MatX logits = q.forward(x);
  EXPECT_EQ(kml_fpu_region_count(), 0u);  // the §3.1 guarantee
  EXPECT_EQ(logits.rows(), 1);
  EXPECT_EQ(logits.cols(), 3);
}

TEST(Quantized, ParamBytesAreHalfOfDouble) {
  math::Rng rng(7);
  Network net = build_mlp_classifier(5, 16, 4, rng);
  net.normalizer().import_moments(std::vector<double>(5, 0.0),
                                  std::vector<double>(5, 1.0));
  QuantizedNetwork q;
  ASSERT_TRUE(QuantizedNetwork::quantize(net, q));
  // weights in Q16.16 (4 B) vs double (8 B), plus 2*5 normalizer scalars.
  EXPECT_EQ(q.param_bytes(),
            net.param_bytes() / 2 + 2 * 5 * sizeof(math::Fixed));
  EXPECT_EQ(q.in_features(), 5);
  EXPECT_EQ(q.out_features(), 4);
  EXPECT_EQ(q.num_layers(), net.num_layers());
}

TEST(Quantized, RejectsOutOfRangeWeights) {
  math::Rng rng(9);
  Network net = build_mlp_classifier(2, 2, 2, rng);
  auto& lin = static_cast<Linear&>(net.layer(0));
  lin.weights().at(0, 0) = 1e6;  // outside Q16.16
  QuantizedNetwork q;
  EXPECT_FALSE(QuantizedNetwork::quantize(net, q));
}

TEST(Quantized, KnownTinyNetworkForward) {
  // y = hard_sigmoid(2x - 1) through a hand-built 1-1 net.
  Network net;
  auto lin = std::make_unique<Linear>(1, 1);
  lin->weights().at(0, 0) = 2.0;
  lin->bias().at(0, 0) = -1.0;
  net.add(std::move(lin)).add(std::make_unique<Sigmoid>());

  QuantizedNetwork q;
  ASSERT_TRUE(QuantizedNetwork::quantize(net, q));
  matrix::MatX x(1, 1);
  x.at(0, 0) = math::Fixed::from_double(0.5);  // 2*0.5 - 1 = 0 -> 0.5
  EXPECT_NEAR(q.forward(x).at(0, 0).to_double(), 0.5, 1e-3);
  x.at(0, 0) = math::Fixed::from_double(4.0);  // saturates -> 1.0
  EXPECT_NEAR(q.forward(x).at(0, 0).to_double(), 1.0, 1e-3);
}

TEST(Quantized, SaveLoadRoundTripPreservesInference) {
  const char* path = "/tmp/kml_quantized_roundtrip.kmlq";
  math::Rng rng(11);
  Network net = make_separable_net(rng);
  QuantizedNetwork q;
  ASSERT_TRUE(QuantizedNetwork::quantize(net, q));
  ASSERT_TRUE(q.save(path));

  QuantizedNetwork loaded;
  ASSERT_TRUE(loaded.load(path));
  EXPECT_EQ(loaded.num_layers(), q.num_layers());
  EXPECT_EQ(loaded.param_bytes(), q.param_bytes());
  for (int i = 0; i < 50; ++i) {
    double f[4];
    for (int j = 0; j < 4; ++j) f[j] = rng.uniform(-2.0, 6.0);
    EXPECT_EQ(loaded.infer_class(f, 4), q.infer_class(f, 4)) << i;
  }
  std::remove(path);
}

TEST(Quantized, LoadRejectsGarbage) {
  const char* path = "/tmp/kml_quantized_bad.kmlq";
  FILE* f = fopen(path, "wb");
  fputs("definitely not a KMLQ file", f);
  fclose(f);
  QuantizedNetwork q;
  EXPECT_FALSE(q.load(path));
  EXPECT_FALSE(q.load("/tmp/kml_quantized_missing.kmlq"));
  std::remove(path);
}

// Writes a KMLQ v1 file by hand: `nfeat` identity normalizer moments, then
// one linear layer per (rows, cols) shape with every weight and bias 0.5.
void write_v1_file(const char* path, std::uint32_t nfeat,
                   const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                       linear_shapes) {
  FILE* f = std::fopen(path, "wb");
  ASSERT_NE(f, nullptr);
  const auto put = [f](std::uint32_t v) { std::fwrite(&v, sizeof(v), 1, f); };
  const auto put_words = [f](std::size_t n, double value) {
    const math::Fixed x = math::Fixed::from_double(value);
    for (std::size_t i = 0; i < n; ++i) std::fwrite(&x, sizeof(x), 1, f);
  };
  put(0x514c4d4b);  // "KMLQ"
  put(1);
  put(nfeat);
  put_words(nfeat, 0.0);  // means
  put_words(nfeat, 1.0);  // 1/stddev
  put(static_cast<std::uint32_t>(linear_shapes.size()));
  for (const auto& [rows, cols] : linear_shapes) {
    put(static_cast<std::uint32_t>(LayerType::kLinear));
    put(rows);
    put(cols);
    put_words(static_cast<std::size_t>(rows) * cols, 0.5);
    put_words(cols, 0.5);
  }
  std::fclose(f);
}

// A loaded model to check that failed loads leave the object untouched.
QuantizedNetwork make_loaded_model(const char* path) {
  QuantizedNetwork q;
  write_v1_file(path, 2, {{2, 3}, {3, 2}});
  EXPECT_TRUE(q.load(path));
  return q;
}

TEST(Quantized, LoadRejectsLayersThatDoNotChain) {
  const char* good = "/tmp/kml_quantized_chain_good.kmlq";
  const char* bad = "/tmp/kml_quantized_chain_bad.kmlq";
  QuantizedNetwork q = make_loaded_model(good);
  ASSERT_EQ(q.in_features(), 2);
  ASSERT_EQ(q.out_features(), 2);
  const double f[2] = {1.0, -0.5};
  const int before = q.infer_class(f, 2);
  ASSERT_GE(before, 0);

  // A 2x3 layer followed by a 2x2 one: the second reads 2 of the first's 3
  // outputs, so inference would walk past its weight buffer.
  write_v1_file(bad, 2, {{2, 3}, {2, 2}});
  EXPECT_FALSE(q.load(bad));
  // A normalizer wider than the first layer's input.
  write_v1_file(bad, 3, {{2, 3}, {3, 2}});
  EXPECT_FALSE(q.load(bad));

  // Both failures left the previous model in place.
  EXPECT_EQ(q.num_layers(), 2);
  EXPECT_EQ(q.in_features(), 2);
  EXPECT_EQ(q.infer_class(f, 2), before);
  std::remove(good);
  std::remove(bad);
}

TEST(Quantized, InferClassRejectsWrongWidth) {
  const char* path = "/tmp/kml_quantized_width.kmlq";
  const QuantizedNetwork q = make_loaded_model(path);
  const double f[3] = {1.0, -0.5, 2.0};
  EXPECT_EQ(q.infer_class(f, 3), -1);
  EXPECT_EQ(q.infer_class(f, 1), -1);
  EXPECT_EQ(q.infer_class(nullptr, 2), -1);
  EXPECT_GE(q.infer_class(f, 2), 0);
  matrix::MatX wide(1, 3);
  EXPECT_EQ(q.forward(wide).size(), 0u);
  std::remove(path);
}

std::string g_log_lines;  // log sink capture (sinks are plain functions)

TEST(Quantized, LoadRefusesRetiredV2File) {
  const char* good = "/tmp/kml_quantized_v1_keep.kmlq";
  const char* v2 = "/tmp/kml_quantized_v2_retired.kmlq";
  QuantizedNetwork q = make_loaded_model(good);
  const double f[2] = {0.25, 0.75};
  const int before = q.infer_class(f, 2);
  const std::size_t bytes = q.param_bytes();

  // A v2 header (int8 weights + double scales) followed by payload bytes.
  FILE* file = std::fopen(v2, "wb");
  ASSERT_NE(file, nullptr);
  const std::uint32_t header[4] = {0x514c4d4b, 2, 2, 0};
  std::fwrite(header, sizeof(header), 1, file);
  const double moments[4] = {0.0, 0.0, 1.0, 1.0};
  std::fwrite(moments, sizeof(moments), 1, file);
  std::fclose(file);

  g_log_lines.clear();
  kml_set_log_sink(+[](LogLevel, const char* line) { g_log_lines += line; });
  EXPECT_FALSE(q.load(v2));
  kml_set_log_sink(nullptr);
  EXPECT_NE(g_log_lines.find("v2"), std::string::npos) << g_log_lines;
  EXPECT_NE(g_log_lines.find("int8"), std::string::npos) << g_log_lines;

  EXPECT_EQ(q.num_layers(), 2);
  EXPECT_EQ(q.param_bytes(), bytes);
  EXPECT_EQ(q.infer_class(f, 2), before);
  std::remove(good);
  std::remove(v2);
}

TEST(Quantized, NormalizerAppliedInFixedPoint) {
  Network net;
  auto lin = std::make_unique<Linear>(1, 2);
  lin->weights().at(0, 0) = 1.0;
  lin->weights().at(0, 1) = -1.0;
  net.add(std::move(lin));
  net.normalizer().import_moments({10.0}, {2.0});

  QuantizedNetwork q;
  ASSERT_TRUE(QuantizedNetwork::quantize(net, q));
  // Raw 14 -> z = 2 -> logits (2, -2) -> class 0; raw 6 -> z = -2 -> class 1.
  const double hi = 14.0;
  const double lo = 6.0;
  EXPECT_EQ(q.infer_class(&hi, 1), 0);
  EXPECT_EQ(q.infer_class(&lo, 1), 1);
}

}  // namespace
}  // namespace kml::nn
