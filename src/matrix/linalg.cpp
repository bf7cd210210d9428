#include "matrix/linalg.h"

#include "portability/simd.h"
#include "portability/threadpool.h"
#include "portability/tiled_matmul.h"

namespace kml::matrix {

namespace {

// --- kernel routing ----------------------------------------------------------
//
// double/float kernels always go through the SIMD seam (portability/
// simd.h), whose scalar tier is the register-tiled kernel and whose vector
// tiers are bit-identical to it, so the dispatch tier is a pure speed
// decision. int and math::Fixed have no seam entry: they run the same
// tiled template directly, and plain loops for the elementwise ops.

template <typename T>
struct Kernels {
  static constexpr auto mm = &tiled_matmul<T>;
  static constexpr auto mm_bt = &tiled_matmul_bt<T>;
  static constexpr auto mm_at = &tiled_matmul_at<T>;
  static void add(const T* a, const T* b, T* o, long n) {
    for (long i = 0; i < n; ++i) o[i] = a[i] + b[i];
  }
  static void sub(const T* a, const T* b, T* o, long n) {
    for (long i = 0; i < n; ++i) o[i] = a[i] - b[i];
  }
  static void mul(const T* a, const T* b, T* o, long n) {
    for (long i = 0; i < n; ++i) o[i] = a[i] * b[i];
  }
};

template <>
struct Kernels<double> {
  static constexpr auto mm = &kml_simd_matmul_f64;
  static constexpr auto mm_bt = &kml_simd_matmul_bt_f64;
  static constexpr auto mm_at = &kml_simd_matmul_at_f64;
  static constexpr auto add = &kml_simd_add_f64;
  static constexpr auto sub = &kml_simd_sub_f64;
  static constexpr auto mul = &kml_simd_mul_f64;
};

template <>
struct Kernels<float> {
  static constexpr auto mm = &kml_simd_matmul_f32;
  static constexpr auto mm_bt = &kml_simd_matmul_bt_f32;
  static constexpr auto mm_at = &kml_simd_matmul_at_f32;
  static constexpr auto add = &kml_simd_add_f32;
  static constexpr auto sub = &kml_simd_sub_f32;
  static constexpr auto mul = &kml_simd_mul_f32;
};

// Parallelization policy. Kernels partition independent output rows (or
// elements) across the pool with static chunking: every output element is
// computed by exactly one worker running the same k-ascending loops as the
// serial code, so results are bit-identical at ANY thread count. The grain
// keeps at least kParMinWork scalar mul-adds (or elementwise ops) per
// chunk — below that, dispatch overhead beats the win and parallel_for
// degrades to the plain serial loop (preserving, among other things, the
// one-FPU-region-per-op property for small matrices).
constexpr long kParMinWork = 32'768;

inline long par_grain(long work_per_unit) {
  if (work_per_unit < 1) work_per_unit = 1;
  const long g = (kParMinWork + work_per_unit - 1) / work_per_unit;
  return g < 1 ? 1 : g;
}

// Parallel loop of the matmul family: partitions the m output rows into
// kTileM-row stripes across the pool and hands each worker's contiguous run
// of stripes, as (first row, row count), to `kernel`. Stripes are disjoint,
// so every output element stays on exactly one worker.
template <typename T, typename Kernel>
void for_row_stripes(int m, int n, int kdim, Kernel&& kernel) {
  FpuGuard<T> guard;
  const long blocks = (m + kTileM - 1) / kTileM;
  const long block_work = static_cast<long>(kTileM) * n * kdim;
  parallel_for(blocks, par_grain(block_work), [&](long b0, long b1, int) {
    FpuGuard<T> wguard;
    const int i0 = static_cast<int>(b0) * kTileM;
    const long hi = b1 * kTileM;
    const int i1 = hi < m ? static_cast<int>(hi) : m;
    kernel(i0, i1 - i0);
  });
}

// Parallel loop of the elementwise ops: element chunks across the pool.
template <typename T, typename Span>
void for_element_chunks(long size, Span&& span) {
  FpuGuard<T> guard;
  parallel_for(size, par_grain(1), [&](long i0, long i1, int) {
    FpuGuard<T> wguard;
    span(i0, i1 - i0);
  });
}

}  // namespace

template <typename T>
void matmul(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.cols() == b.rows());
  assert(out.rows() == a.rows() && out.cols() == b.cols());
  const int lda = a.cols();
  const int ldb = b.cols();
  const int ldo = out.cols();
  for_row_stripes<T>(a.rows(), b.cols(), a.cols(), [&](int i0, int rows) {
    Kernels<T>::mm(a.data() + static_cast<std::size_t>(i0) * lda, lda,
                   b.data(), ldb,
                   out.data() + static_cast<std::size_t>(i0) * ldo, ldo, rows,
                   b.cols(), a.cols());
  });
}

template <typename T>
void matmul_bt(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.cols() == b.cols());
  assert(out.rows() == a.rows() && out.cols() == b.rows());
  const int lda = a.cols();
  const int ldb = b.cols();
  const int ldo = out.cols();
  for_row_stripes<T>(a.rows(), b.rows(), a.cols(), [&](int i0, int rows) {
    Kernels<T>::mm_bt(a.data() + static_cast<std::size_t>(i0) * lda, lda,
                      b.data(), ldb,
                      out.data() + static_cast<std::size_t>(i0) * ldo, ldo,
                      rows, b.rows(), a.cols());
  });
}

template <typename T>
void matmul_at(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.rows() == b.rows());
  assert(out.rows() == a.cols() && out.cols() == b.cols());
  const int lda = a.cols();
  const int ldb = b.cols();
  const int ldo = out.cols();
  for_row_stripes<T>(a.cols(), b.cols(), a.rows(), [&](int i0, int rows) {
    // The stripe offsets a by i0 COLUMNS (out-row i reads a's column i).
    Kernels<T>::mm_at(a.data() + i0, lda, b.data(), ldb,
                      out.data() + static_cast<std::size_t>(i0) * ldo, ldo,
                      rows, b.cols(), a.rows());
  });
}

template <typename T>
void matmul_naive(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.cols() == b.rows());
  assert(out.rows() == a.rows() && out.cols() == b.cols());
  FpuGuard<T> guard;
  out.fill(T{});
  for (int i = 0; i < a.rows(); ++i) {
    const T* arow = a.row(i);
    T* orow = out.row(i);
    for (int k = 0; k < a.cols(); ++k) {
      const T aik = arow[k];
      const T* brow = b.row(k);
      for (int j = 0; j < b.cols(); ++j) {
        orow[j] += aik * brow[j];
      }
    }
  }
}

template <typename T>
void matmul_bt_naive(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.cols() == b.cols());
  assert(out.rows() == a.rows() && out.cols() == b.rows());
  FpuGuard<T> guard;
  for (int i = 0; i < a.rows(); ++i) {
    const T* arow = a.row(i);
    T* orow = out.row(i);
    for (int j = 0; j < b.rows(); ++j) {
      const T* brow = b.row(j);
      T acc{};
      for (int k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
}

template <typename T>
void matmul_at_naive(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.rows() == b.rows());
  assert(out.rows() == a.cols() && out.cols() == b.cols());
  FpuGuard<T> guard;
  out.fill(T{});
  for (int k = 0; k < a.rows(); ++k) {
    const T* arow = a.row(k);
    const T* brow = b.row(k);
    for (int i = 0; i < a.cols(); ++i) {
      const T aki = arow[i];
      T* orow = out.row(i);
      for (int j = 0; j < b.cols(); ++j) {
        orow[j] += aki * brow[j];
      }
    }
  }
}

template <typename T>
void add(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.same_shape(b) && a.same_shape(out));
  for_element_chunks<T>(static_cast<long>(a.size()), [&](long i0, long len) {
    Kernels<T>::add(a.data() + i0, b.data() + i0, out.data() + i0, len);
  });
}

template <typename T>
void sub(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.same_shape(b) && a.same_shape(out));
  for_element_chunks<T>(static_cast<long>(a.size()), [&](long i0, long len) {
    Kernels<T>::sub(a.data() + i0, b.data() + i0, out.data() + i0, len);
  });
}

template <typename T>
void hadamard(const Mat<T>& a, const Mat<T>& b, Mat<T>& out) {
  assert(a.same_shape(b) && a.same_shape(out));
  for_element_chunks<T>(static_cast<long>(a.size()), [&](long i0, long len) {
    Kernels<T>::mul(a.data() + i0, b.data() + i0, out.data() + i0, len);
  });
}

void axpy(double alpha, const MatD& b, MatD& a) {
  assert(a.same_shape(b));
  for_element_chunks<double>(static_cast<long>(a.size()),
                             [&](long i0, long len) {
                               kml_simd_axpy_f64(alpha, b.data() + i0,
                                                 a.data() + i0, len);
                             });
}

template <typename T>
Mat<T> transpose(const Mat<T>& m) {
  Mat<T> out(m.cols(), m.rows());
  for (int i = 0; i < m.rows(); ++i) {
    for (int j = 0; j < m.cols(); ++j) {
      out.at(j, i) = m.at(i, j);
    }
  }
  return out;
}

void scale(MatD& m, double alpha) {
  for_element_chunks<double>(static_cast<long>(m.size()),
                             [&](long i0, long len) {
                               kml_simd_scale_f64(m.data() + i0, alpha, len);
                             });
}

void add_bias_row(MatD& a, const MatD& bias) {
  assert(bias.rows() == 1 && bias.cols() == a.cols());
  FpuGuard<double> guard;
  parallel_for(a.rows(), par_grain(a.cols()), [&](long r0, long r1, int) {
    FpuGuard<double> wguard;
    for (long i = r0; i < r1; ++i) {
      double* arow = a.row(static_cast<int>(i));
      kml_simd_add_f64(arow, bias.row(0), arow, a.cols());
    }
  });
}

void col_sums(const MatD& a, MatD& out) {
  assert(out.rows() == 1 && out.cols() == a.cols());
  FpuGuard<double> guard;
  out.fill(0.0);
  for (int i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    for (int j = 0; j < a.cols(); ++j) out.at(0, j) += arow[j];
  }
}

void softmax_rows(const MatD& in, MatD& out) {
  assert(in.same_shape(out));
  FpuGuard<double> guard;
  // exp dominates, so weight a row at ~16 mul-add equivalents per element.
  parallel_for(in.rows(), par_grain(static_cast<long>(in.cols()) * 16),
               [&](long r0, long r1, int) {
                 FpuGuard<double> wguard;
                 for (long i = r0; i < r1; ++i) {
                   math::kml_softmax(in.row(static_cast<int>(i)),
                                     out.row(static_cast<int>(i)), in.cols());
                 }
               });
}

MatI argmax_rows(const MatD& m) {
  MatI out(m.rows(), 1);
  for (int i = 0; i < m.rows(); ++i) {
    const double* row = m.row(i);
    int best = 0;
    for (int j = 1; j < m.cols(); ++j) {
      if (row[j] > row[best]) best = j;
    }
    out.at(i, 0) = best;
  }
  return out;
}

double frobenius_norm(const MatD& m) {
  FpuGuard<double> guard;
  double acc = 0.0;
  for (std::size_t i = 0; i < m.size(); ++i) {
    acc += m.data()[i] * m.data()[i];
  }
  return math::kml_sqrt(acc);
}

// Explicit instantiations for the four supported element types.
#define KML_INSTANTIATE(T)                                      \
  template void matmul<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template void matmul_bt<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template void matmul_at<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template void matmul_naive<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template void matmul_bt_naive<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template void matmul_at_naive<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template void add<T>(const Mat<T>&, const Mat<T>&, Mat<T>&);  \
  template void sub<T>(const Mat<T>&, const Mat<T>&, Mat<T>&);  \
  template void hadamard<T>(const Mat<T>&, const Mat<T>&, Mat<T>&); \
  template Mat<T> transpose<T>(const Mat<T>&);

KML_INSTANTIATE(double)
KML_INSTANTIATE(float)
KML_INSTANTIATE(int)
KML_INSTANTIATE(math::Fixed)
#undef KML_INSTANTIATE

}  // namespace kml::matrix
