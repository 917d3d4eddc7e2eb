/* The paper's range-based `for` (Fig. lst:rangeloop) under the directives
 * that associate with it. `parallel for` writes each element through the
 * reference, `simd reduction` sums the elements' copies, and `tile` and
 * `unroll partial` transform the `__begin` iterator loop Sema desugared.
 * Only sums are printed, so the output does not depend on the team size.
 *
 *   ompltc --run --threads 4 examples/c/range_for.c
 *   ompltc --enable-irbuilder --opt --run examples/c/range_for.c
 */
void print_i64(long v);
long container[50];

int main(void) {
  for (int i = 0; i < 50; i += 1)
    container[i] = (i * 37) % 23;

  #pragma omp parallel for
  for (long &val : container)
    val = val * 3 + 1;

  long sum = 0;
  #pragma omp simd reduction(+: sum)
  for (long val : container)
    sum += val;
  print_i64(sum);

  #pragma omp tile sizes(4)
  for (long &val : container)
    val = val - 1;

  long hash = 0;
  #pragma omp unroll partial(3)
  for (long &val : container)
    hash = (hash * 31 + val) % 1000003;
  print_i64(hash);
  return 0;
}
