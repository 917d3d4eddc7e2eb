/* How the legality gate sets a `simd` loop's lanes on every compile. The
 * first loop reads three iterations back: lock-step lanes may run at most
 * three together, so `safelen(8)` is clamped to 3 — CodeGen writes
 * `safelen 3` and the VM widens no further, with no diagnostic. The second
 * loop writes a[i + 1] before it reads a[i + 2]: the anti dependence has
 * distance 1 and its sink runs first in the body, so a lane would read what
 * the lane before it already overwrote. That loop warns and runs scalar;
 * both print what the program prints without OpenMP. */
void print_i64(long v);
long a[70];
long b[64];
int main(void) {
  for (int i = 0; i < 70; i += 1)
    a[i] = i * 3;
  #pragma omp simd safelen(8)
  for (int i = 3; i < 64; i += 1)
    a[i] = a[i - 3] + 1;
  #pragma omp simd
  for (int i = 0; i < 64; i += 1) {
    a[i + 1] = 5;
    b[i] = a[i + 2];
  }
  long s = 0;
  for (int i = 0; i < 64; i += 1)
    s += a[i] + b[i] * (i + 1);
  print_i64(s);
  return 0;
}
