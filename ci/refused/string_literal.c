/* No lowering gives a string literal storage. */
void print_char(int c);

int main(void) {
  char *s = "hi";
  print_char(s[0]);
  return 0;
}
