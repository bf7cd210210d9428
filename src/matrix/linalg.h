// linalg.h — linear-algebra kernels over Mat<T> (§2).
//
// Shapes follow the usual (rows x cols) convention; all functions assert
// conformance in debug builds. FP variants take one FPU bracket per call.
#pragma once

#include "matrix/matrix.h"

namespace kml::matrix {

// out = a * b  (m x k) * (k x n) -> (m x n). Row stripes run in parallel
// on the thread pool; double and float stripes go through the SIMD seam
// (portability/simd.h), int and Fixed stripes through its scalar tier, the
// register-tiled kernel (portability/tiled_matmul.h). Per output element
// the k reduction runs ascending exactly as in matmul_naive, so results are
// bit-identical at every tier and thread count (FP addition order is
// preserved, not just mathematically equal).
template <typename T>
void matmul(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);

// out = a * b^T  (m x k) * (n x k)^T -> (m x n); the backward-pass shape.
// Routed like matmul; bit-identical to matmul_bt_naive.
template <typename T>
void matmul_bt(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);

// out = a^T * b  (k x m)^T * (k x n) -> (m x n); weight-gradient shape.
// Routed like matmul; bit-identical to matmul_at_naive.
template <typename T>
void matmul_at(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);

// Reference single-loop-nest kernels. Kept as the one ground truth for the
// equivalence tests and the baseline for the tiled-vs-naive throughput
// benchmark.
template <typename T>
void matmul_naive(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);
template <typename T>
void matmul_bt_naive(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);
template <typename T>
void matmul_at_naive(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);

// Elementwise: out = a + b, out = a - b, out = a ⊙ b.
template <typename T>
void add(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);
template <typename T>
void sub(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);
template <typename T>
void hadamard(const Mat<T>& a, const Mat<T>& b, Mat<T>& out);

// In-place: a += alpha * b (axpy). The SGD update step.
void axpy(double alpha, const MatD& b, MatD& a);

// out = m^T.
template <typename T>
Mat<T> transpose(const Mat<T>& m);

// Scale in place.
void scale(MatD& m, double alpha);

// Broadcast-add a 1 x n bias row to every row of (m x n) `a`.
void add_bias_row(MatD& a, const MatD& bias);

// Column-wise sum of (m x n) into (1 x n) — the bias gradient.
void col_sums(const MatD& a, MatD& out);

// Row-wise softmax, stable.
void softmax_rows(const MatD& in, MatD& out);

// Index of the max element in each row -> n-element int matrix (n x 1).
MatI argmax_rows(const MatD& m);

// Frobenius norm.
double frobenius_norm(const MatD& m);

}  // namespace kml::matrix
