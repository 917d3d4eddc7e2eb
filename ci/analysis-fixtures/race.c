/* `-Wrace` on the ordinary compile: the iterations of a `parallel for` run
 * on different threads. Every iteration writes the shared `sum`, and each
 * iteration of the second loop reads the element the previous one writes:
 * both race, and every compile says so with a located warning (exit 0; the
 * program runs as written). The third loop reads `a[i + 8]` in an
 * eight-iteration loop that writes `a[i]`: no two iterations touch one
 * element, so it gets no warning. `--analyze` counts the two warnings as
 * findings and exits 1. */
int main(void) {
  int sum = 0;
  int a[16];
  int b[16];
  for (int i = 0; i < 16; i += 1) {
    a[i] = i;
    b[i] = 2 * i;
  }
  #pragma omp parallel for
  for (int i = 0; i < 8; i += 1)
    sum += a[i];
  #pragma omp parallel for
  for (int i = 0; i < 15; i += 1)
    b[i + 1] = b[i] + 1;
  #pragma omp parallel for
  for (int i = 0; i < 8; i += 1)
    a[i] = a[i + 8];
  return 0;
}
