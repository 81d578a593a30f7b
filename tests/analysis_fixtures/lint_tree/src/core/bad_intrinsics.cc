// Fixture: vector intrinsics are banned everywhere — the sweep kernels
// run one portable scalar body, and so must every other layer.
#include <immintrin.h>

#include <vector>

namespace spammass::core {

double SumFast(const std::vector<double>& values) {
  __m256d acc = _mm256_setzero_pd();
  size_t i = 0;
  for (; i + 4 <= values.size(); i += 4) {
    acc = _mm256_add_pd(acc, _mm256_loadu_pd(&values[i]));
  }
  double lanes[4];
  _mm256_storeu_pd(lanes, acc);
  double total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < values.size(); ++i) total += values[i];
  return total;
}

}  // namespace spammass::core
