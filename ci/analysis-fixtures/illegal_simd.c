/* A loop-carried flow dependence of distance 1: after widening, lane j
 * would read the value lane j-1 was supposed to produce. No safelen can
 * make this legal (safelen(1) is scalar execution), so `--analyze` rejects
 * the directive, citing the dependence. It is a lint, not a compile error,
 * because nothing runs the lanes: the interpreter is scalar and the
 * bytecode widening pass independently refuses the loop (vm.simd.refused),
 * so this file compiles silently and runs to exit 0 on every backend
 * (tests/legality_gate.rs). */
int main(void) {
  int a[64];
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  #pragma omp simd
  for (int i = 0; i < 63; i += 1)
    a[i + 1] = a[i] + 1;
  return a[63] - 63;
}
