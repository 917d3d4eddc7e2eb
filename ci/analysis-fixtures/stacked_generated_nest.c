/* Order-changing directives over a *generated* nest. The `.capture_expr.`
 * declarations a consumed transformation puts in front of its loop are the
 * generated nest's prologue, not intervening code: none of these nests is
 * "not perfectly nested". What stops the dependence tests is genuine — the
 * user variable is re-materialized from the generated counter, so the
 * subscripts are not affine in the generated iteration variables — and the
 * note names the access. The last nest has no memory access at all: its
 * graph is complete and clean, so it must stay silent. */
void use(int i);
int main(void) {
  int a[64];
  int b[64];
  #pragma omp reverse
  #pragma omp tile sizes(4)
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  #pragma omp interchange
  #pragma omp tile sizes(4, 4)
  for (int i = 0; i < 8; i += 1)
    for (int j = 0; j < 8; j += 1)
      b[i * 8 + j] = i + j;
  #pragma omp simd
  #pragma omp reverse
  for (int i = 0; i < 64; i += 1)
    a[i] = a[i] + 1;
  #pragma omp reverse
  #pragma omp tile sizes(4)
  for (int i = 0; i < 8; i += 1)
    use(i);
  return 0;
}
