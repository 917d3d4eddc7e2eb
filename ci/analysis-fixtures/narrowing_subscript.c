/* A conversion to a narrower integer wraps: `(signed char)i` goes from 127
 * to -128, whether the cast is written or implicit in an initialisation.
 * Neither subscript is affine in `i`, and reversing either loop changes
 * which store lands last: the pass must say it cannot judge them instead
 * of reading the conversions as the identity. */
int main(void) {
  int a[600];
  #pragma omp reverse
  for (int i = 0; i < 300; i += 1)
    a[(signed char)i + 300] = i;
  #pragma omp reverse
  for (int i = 0; i < 300; i += 1) {
    signed char c = i;
    a[c + 300] = i;
  }
  return 0;
}
