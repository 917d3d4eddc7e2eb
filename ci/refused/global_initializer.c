/* A file-scope initializer is evaluated before the program runs: it must
 * be a constant expression, not a read of another global.
 */
void print_i64(long v);
long k = 5;
long k2 = k + 1;

int main(void) {
  print_i64(k2);
  return 0;
}
