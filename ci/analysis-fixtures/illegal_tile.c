/* Wavefront stencil: the flow dependence on `a` has direction (<, >). Tiling
 * both loops runs the tiles of the band in order, so the tile up and to the
 * right of a point would run before the tile its source is in. */
int main(void) {
  int a[9][9];
  #pragma omp tile sizes(2, 2)
  for (int i = 1; i < 8; i += 1)
    for (int j = 1; j < 8; j += 1)
      a[i][j] = a[i - 1][j + 1] + 1;
  return 0;
}
