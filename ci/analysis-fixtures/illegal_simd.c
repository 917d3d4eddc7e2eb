/* A loop-carried flow dependence of distance 1: lanes running in lock-step
 * would read a[i] before the lane of iteration i-1 wrote it. No safelen can
 * make this legal (safelen(1) is scalar execution), so the legality gate
 * bounds the loop at one lane: every compile warns, citing the dependence,
 * CodeGen emits no `vectorize.enable`, and the loop runs scalar on every
 * backend — the file still compiles and runs to exit 0
 * (tests/legality_gate.rs). `--analyze` counts the warning as a finding
 * and exits 1. */
int main(void) {
  int a[64];
  for (int i = 0; i < 64; i += 1)
    a[i] = i;
  #pragma omp simd
  for (int i = 0; i < 63; i += 1)
    a[i + 1] = a[i] + 1;
  return a[63] - 63;
}
