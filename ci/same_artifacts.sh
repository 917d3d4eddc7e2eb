#!/usr/bin/env bash
# "Same artifacts": runs two `ompltc` builds over the same sources and
# compares everything a lowering change could move, byte for byte.
#
#   ci/same_artifacts.sh PARENT_OMPLTC CHANGE_OMPLTC [EXTRA.c…]
#
# Sources: examples/c/*.c and ci/analysis-fixtures/*.c, plus any EXTRA files
# (e.g. the generated translation units copied out of `.bench_run/` while a
# `perfbench/run.sh --workload compile_classic --seed N` run is going).
# Matrix, per source × {classic, --enable-irbuilder}:
#   --ast-dump, --ast-dump-transformed, --analyze --diag-format=json
#   × {no --opt, --opt}:
#     --emit-ir
#     --emit-bytecode-bin at --vector-width 0 and 4
#     --run --serial --counters-json on interp, vm (width 0) and vm (width 4)
# Every invocation's stdout, stderr and exit code is kept next to the file
# it wrote (image, counter document) and `cmp`-ed between the two builds.
# Prints each differing artifact (a counter document with the keys that
# moved) and exits 1 if there is any; prints the totals and exits 0
# otherwise. It builds nothing, needs no network and leaves nothing behind.
set -uo pipefail

if [ $# -lt 2 ]; then
  echo "usage: $0 PARENT_OMPLTC CHANGE_OMPLTC [EXTRA.c…]" >&2
  exit 2
fi
abs() { case "$1" in /*) echo "$1" ;; *) echo "$PWD/$1" ;; esac; }
parent=$(abs "$1")
change=$(abs "$2")
shift 2
extra=()
for f in "$@"; do extra+=("$(abs "$f")"); done
for bin in "$parent" "$change"; do
  [ -x "$bin" ] || { echo "error: $bin is not an executable" >&2; exit 2; }
done

cd "$(dirname "$0")/.."
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT

# run OUT-PREFIX BIN ARGS…: stdout, stderr and exit code of one invocation.
run() {
  local out=$1 bin=$2
  shift 2
  "$bin" "$@" >"$out.stdout" 2>"$out.stderr"
  echo $? >"$out.exit"
}

# All artifacts of one build over one source, under $work/SIDE/.
artifacts() {
  local side=$1 bin=$2 src=$3
  local base path popt
  base="$work/$side/$(basename "$(dirname "$src")")-$(basename "$src" .c)"
  for path in classic irbuilder; do
    local pflag=()
    [ "$path" = irbuilder ] && pflag=(--enable-irbuilder)
    run "$base.$path.ast" "$bin" "${pflag[@]}" --ast-dump "$src"
    run "$base.$path.ast-transformed" "$bin" "${pflag[@]}" --ast-dump-transformed "$src"
    run "$base.$path.analyze" "$bin" "${pflag[@]}" --analyze --diag-format=json "$src"
    for popt in O0 O1; do
      local oflag=()
      [ "$popt" = O1 ] && oflag=(--opt)
      local p="$base.$path.$popt"
      run "$p.ir" "$bin" "${pflag[@]}" "${oflag[@]}" --emit-ir "$src"
      for w in 0 4; do
        run "$p.w$w.bc" "$bin" "${pflag[@]}" "${oflag[@]}" --backend=vm \
          --vector-width=$w --emit-bytecode-bin="$p.w$w.image" "$src"
        run "$p.vm-w$w.run" "$bin" "${pflag[@]}" "${oflag[@]}" --run --serial --backend=vm \
          --vector-width=$w --counters-json="$p.vm-w$w.counters.json" "$src"
      done
      run "$p.interp.run" "$bin" "${pflag[@]}" "${oflag[@]}" --run --serial \
        --counters-json="$p.interp.counters.json" "$src"
    done
  done
}

sources=(examples/c/*.c ci/analysis-fixtures/*.c ${extra[@]+"${extra[@]}"})
mkdir -p "$work/parent" "$work/change"
for src in "${sources[@]}"; do
  artifacts parent "$parent" "$src"
  artifacts change "$change" "$src"
done

total=0
differing=0
for a in "$work"/parent/*; do
  name=$(basename "$a")
  b="$work/change/$name"
  total=$((total + 1))
  if ! cmp -s "$a" "$b"; then
    differing=$((differing + 1))
    echo "DIFFERS: $name"
    case "$name" in
      *.counters.json)
        diff <(tr ',{}' '\n\n\n' <"$a") <(tr ',{}' '\n\n\n' <"$b") | grep '^[<>]' | sed 's/^/    /'
        ;;
    esac
  fi
done
for b in "$work"/change/*; do
  if [ ! -e "$work/parent/$(basename "$b")" ]; then
    total=$((total + 1))
    differing=$((differing + 1))
    echo "ONLY IN CHANGE: $(basename "$b")"
  fi
done

echo "${#sources[@]} sources, $total artifacts compared, $differing differ"
[ "$differing" -eq 0 ]
