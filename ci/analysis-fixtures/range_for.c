/* A range-based `for` binds its loop variable to the element `__begin`
 * points at, once per iteration: a read or write of a `long &v` is an
 * access of `*__begin`, an element of the array the range walks, and the
 * gate judges it as it judges `*p` in the pointer loop
 * `for (long *p = a; p < a + 8; p++)`. The first loop is race-free, the
 * second carries no dependence, the third sums copies under a reduction,
 * and none of them gets a finding. The last loop reads `a[0]`, which its
 * first iteration writes: the dependence on `a` is real, the gate reports
 * it, and the loop never runs widened. */
void print_i64(long v);
long a[8];
int main(void) {
  for (int i = 0; i < 8; i += 1)
    a[i] = i + 1;
  #pragma omp parallel for
  for (long &v : a)
    v = v * 2;
  #pragma omp simd
  for (long &v : a)
    v = v + 1;
  long s = 0;
  #pragma omp simd reduction(+: s)
  for (long v : a)
    s += v;
  #pragma omp simd
  for (long &v : a)
    v = a[0] + v;
  print_i64(s);
  print_i64(a[0] + a[7]);
  return 0;
}
