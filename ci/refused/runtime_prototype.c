/* A prototype of a runtime entry must be its row's C image: the runtime
 * reads `print_i64`'s argument as a `long`, so a call through this
 * prototype would hand it the bits of a double. Refused at the prototype,
 * with the row in a note, on every entrance.
 */
void print_i64(double v);

int main(void) {
  print_i64(2.5);
  return 0;
}
