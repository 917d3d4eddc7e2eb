/* Widening conversions that keep their value: a `char`, `short` or `int`
 * read as a `long` (`sext`), a comparison or a `_Bool` read as an integer
 * (`zext i1`) and a `float` read as a `double` (`fpext`). A register
 * already holds each of them widened, so the bytecode backend lowers these
 * casts as copies, and register coalescing deletes a copy unless its two
 * registers are live at once — as they are in the first loop, where the
 * narrow value changes while its widened copy is still read.
 *
 *   ompltc --backend=vm --run examples/c/widening_casts.c
 *   ompltc --backend=vm --vector-width=4 --emit-bytecode examples/c/widening_casts.c
 */
void print_i64(long v);
int x[103];
long wide[103];

int main(void) {
  for (int i = 0; i < 103; i += 1)
    x[i] = 5 * i - 250;

  /* The narrow values are carried from one iteration to the next and change
   * after they are widened, while the widened copies are still live. */
  char c = 1;
  short s = -7;
  int n = 3;
  long mixed = 0;
  for (int i = 0; i < 60; i += 1) {
    long wc = c;
    long ws = s;
    long wn = n;
    c = c * 5 + 1;
    s = s * 3 - i;
    n = n * 7 + x[i];
    mixed = mixed + wc * 3 + ws * 5 + wn + c + s + n;
  }
  print_i64(mixed);

  /* A comparison and a `_Bool`, each widened to `int` and to `long`. */
  long counted = 0;
  int below = 0;
  for (int i = 0; i < 103; i += 1) {
    _Bool odd = i % 2;
    int lt = x[i] < i;
    below = below + lt;
    counted = counted + odd + (long)(x[i] > 0) * 2;
  }
  print_i64(counted);
  print_i64(below);

  /* A `float` accumulation read as a `double` on every iteration. */
  float f = 0.5f;
  double d = 0.0;
  for (int i = 0; i < 40; i += 1) {
    f = f * 0.75f + 1.25f;
    d = d + f;
  }
  print_i64((long)(d * 1000.0));

  /* A `simd` reduction over loaded `int` lanes sign-extended to `long`. */
  long total = 0;
  #pragma omp simd reduction(+: total) simdlen(4)
  for (int i = 0; i < 103; i += 1)
    total += x[i];
  print_i64(total);

  /* A loop that sign-extends its own counter. */
  #pragma omp simd simdlen(4)
  for (int i = 0; i < 103; i += 1)
    wide[i] = i;
  long check = 0;
  for (int i = 0; i < 103; i += 1)
    check = check + wide[i] * (i % 5);
  print_i64(check);
  return 0;
}
