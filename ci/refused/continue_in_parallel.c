/* The body of a `parallel` is outlined into a function of its own, so the
 * loop around the directive is not one a `continue` inside it may reach.
 */
void print_i64(long v);

int main(void) {
  for (int i = 0; i < 4; i += 1) {
    #pragma omp parallel num_threads(2)
    {
      if (i % 2)
        continue;
      print_i64(i);
    }
  }
  return 0;
}
