// Seeded violation for the fp-fence check: an fma() call, banned in every
// source file. The analyzer must flag the fused rounding.
#include <cmath>

namespace fixture {

double planted_fused(double a, double b, double c) {
  return std::fma(a, b, c);  // planted: fused multiply-add
}

}  // namespace fixture
