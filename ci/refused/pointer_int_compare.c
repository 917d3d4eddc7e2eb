/* A pointer compares with a pointer, not with an integer. */
void print_i64(long v);
long cells[4];

int main(void) {
  long *p = cells;
  if (p == 0)
    print_i64(0);
  print_i64(p[1]);
  return 0;
}
