/* Loop transformations that consume one another (paper §2: a consuming
 * directive takes the generated loop "as if it was a literal for-loop").
 * One row per way a generated loop reaches its consumer: a directive over
 * each of the five transformations, `collapse(2)` over the two loops
 * `interchange` generates, `tile` over a nest whose inner loop `reverse`
 * generated, and a transformation over a range-based `for`. Only sums are
 * printed, so the output does not depend on the team size.
 *
 *   ompltc --run --threads 4 examples/c/stacked_transformations.c
 *   ompltc --enable-irbuilder --opt --run examples/c/stacked_transformations.c
 */
void print_i64(long v);
long a[24];
long b[24];
long m[6][8];
long c[8];

int main(void) {
  for (int i = 0; i < 24; i += 1)
    a[i] = (i * 7) % 11;

  long s = 0;
  #pragma omp parallel for reduction(+: s)
  #pragma omp unroll partial(2)
  for (int i = 0; i < 24; i += 1)
    s += a[i] * (i + 1);
  print_i64(s);

  #pragma omp for
  #pragma omp tile sizes(5)
  for (int i = 0; i < 24; i += 1)
    b[i] = a[i] * 3 + i;

  #pragma omp simd
  #pragma omp reverse
  for (int i = 0; i < 24; i += 1)
    b[i] = b[i] - a[i];

  #pragma omp unroll partial(3)
  #pragma omp fuse
  {
    for (int i = 0; i < 24; i += 1)
      a[i] = a[i] + 1;
    for (int j = 0; j < 20; j += 1)
      b[j] = b[j] * 2;
  }
  s = 0;
  for (int i = 0; i < 24; i += 1)
    s += a[i] * 100 + b[i];
  print_i64(s);

  #pragma omp parallel for collapse(2)
  #pragma omp interchange
  for (int i = 0; i < 6; i += 1)
    for (int j = 0; j < 8; j += 1)
      m[i][j] = i * 10 + j;

  s = 0;
  for (int i = 0; i < 6; i += 1)
    for (int j = 0; j < 8; j += 1)
      s += m[i][j] * (i + j + 1);
  print_i64(s);

  #pragma omp tile sizes(2, 2)
  for (int i = 0; i < 6; i += 1)
    #pragma omp reverse
    for (int j = 0; j < 8; j += 1)
      c[j] = c[j] * 3 + i;
  s = 0;
  for (int j = 0; j < 8; j += 1)
    s += c[j] * (j + 1);
  print_i64(s);

  #pragma omp unroll partial(2)
  #pragma omp reverse
  for (long &v : a)
    v = v * 3 + 1;
  s = 0;
  for (int i = 0; i < 24; i += 1)
    s += a[i] * (i + 1);
  print_i64(s);
  return 0;
}
