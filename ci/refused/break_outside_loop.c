/* A `break` needs a loop of its own function to leave. */
void print_i64(long v);

int main(void) {
  long n = 3;
  if (n > 2)
    break;
  print_i64(n);
  return 0;
}
