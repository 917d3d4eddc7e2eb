#!/usr/bin/env bash
# Counter-drift guard for experiment C1: the shadow-AST node counts the
# pipeline reports through `ompltc --counters-json` (23-node classic helper
# bundle vs 3 canonical meta items) must not change silently. CI runs this
# against every example in the corpus; a legitimate representation change
# must update ci/expected-counters/ in the same commit, with the PR
# explaining why the counts moved.
set -euo pipefail
cd "$(dirname "$0")/.."

ompltc=${OMPLTC:-target/release/ompltc}
if [ ! -x "$ompltc" ]; then
  echo "error: $ompltc not built (run 'cargo build --release' first)" >&2
  exit 2
fi

status=0

# pin <expected-file> <what> <got>: compares what the tool printed with the
# committed expectation; a missing file or a difference fails the script.
pin() {
  local expected=$1 what=$2 got=$3
  if [ ! -f "$expected" ]; then
    echo "missing $expected; expected contents:" >&2
    printf '%s\n' "$got" >&2
    status=1
  elif ! diff -u "$expected" <(printf '%s\n' "$got"); then
    echo "$what: update $expected if intentional" >&2
    status=1
  fi
}

for src in examples/c/*.c; do
  base=$(basename "$src" .c)
  for mode in classic irbuilder; do
    flags=(--counters-json --syntax-only)
    if [ "$mode" = irbuilder ]; then
      flags+=(--enable-irbuilder)
    fi
    expected="ci/expected-counters/$base.$mode.txt"
    got=$("$ompltc" "${flags[@]}" "$src" 2>/dev/null \
      | grep -o '"sema\.[^"]*":[0-9]*' | sort)
    pin "$expected" "counter drift in $src ($mode)" "$got"
  done
done

# Dependence-analysis drift guard: the number of dependence graphs the
# --analyze pass builds, the dependences it finds and the accesses it gives
# up on are structural properties of each example — a silent change means
# the subscript tests or the gating moved.
for src in examples/c/*.c; do
  base=$(basename "$src" .c)
  expected="ci/expected-counters/$base.analyze.txt"
  # `grep` finds nothing for examples without transformation directives —
  # that (an empty file) is itself the guarded expectation.
  got=$("$ompltc" --counters-json --analyze "$src" 2>/dev/null \
    | { grep -o '"analysis\.[^"]*":[0-9]*' || true; } | sort)
  pin "$expected" "analysis counter drift in $src" "$got"
done

# Execution-backend drift guard: the number of ops each backend retires
# running an example is deterministic (the default team size is fixed, static
# chunk assignment is a pure function of it), so a silent change means either
# the lowering, the bytecode peephole pipeline, or the scheduler moved.
# Legitimate optimizer improvements update these files in the same commit.
for src in examples/c/*.c; do
  base=$(basename "$src" .c)
  for backend in interp vm; do
    flags=(--counters-json --run)
    if [ "$backend" = vm ]; then
      flags+=(--backend=vm)
    fi
    expected="ci/expected-counters/$base.$backend.ops.txt"
    got=$("$ompltc" "${flags[@]}" "$src" 2>/dev/null | tail -1 \
      | grep -o "\"$backend\.ops\.retired\":[0-9]*")
    pin "$expected" "retired-op drift in $src ($backend)" "$got"
  done
done

# SIMD widening drift guard: for every example, `--backend=vm
# --vector-width=4` pins the widening pass's outcome counters
# (vm.simd.widened_loops / vm.simd.epilogue_iters / vm.simd.refused) and the
# retired-op count of the widened program. A silent change means the
# planner's legality gates, the clamp logic, or the vector emission moved.
# Examples without a `simd` loop pin all-zero simd counters — that absence
# is itself the guarded expectation (the widener must not touch them).
for src in examples/c/*.c; do
  base=$(basename "$src" .c)
  expected="ci/expected-counters/$base.vm.simd.txt"
  got=$("$ompltc" --counters-json --run --backend=vm --vector-width=4 "$src" 2>/dev/null | tail -1 \
    | grep -o '"vm\.\(simd\.[^"]*\|ops\.retired\)":[0-9]*' | sort)
  pin "$expected" "simd counter drift in $src" "$got"
done

# Bytecode-image drift guard: the size and checksum of the OMPLTBC container
# `--emit-bytecode-bin` writes, scalar (`--vector-width=0`) and widened (`4`).
# The size is the benchmark's `bytecode_bytes`; the checksum moves with any
# change to the wire format (a new version byte, a reordered row in the op
# table) or to what the compiler emits.
img=$(mktemp)
trap 'rm -f "$img"' EXIT
# Both lowering paths are pinned, the OMPCanonicalLoop/OpenMPIRBuilder one in
# a file of its own: the bytecode compiler must be byte-stable for either
# representation's IR.
for src in examples/c/*.c; do
  base=$(basename "$src" .c)
  for mode in classic irbuilder; do
    flags=(--backend=vm)
    expected="ci/expected-counters/$base.vm.image.txt"
    if [ "$mode" = irbuilder ]; then
      flags+=(--enable-irbuilder)
      expected="ci/expected-counters/$base.vm.image.irbuilder.txt"
    fi
    got=$(for vw in 0 4; do
      "$ompltc" "${flags[@]}" --vector-width="$vw" --emit-bytecode-bin="$img" "$src" >/dev/null 2>&1
      echo "vw=$vw bytes=$(wc -c < "$img") cksum=$(cksum < "$img" | cut -d' ' -f1)"
    done)
    pin "$expected" "bytecode image drift in $src ($mode)" "$got"
  done
done

# Bytecode-compiler drift guard: what `vm.compile` produced (ops emitted,
# `alloca` slots promoted, ops the peephole pipeline removed) and what it cost
# in analysis (liveness solves: one per dead-op sweep, none for the stages
# and the allocator that reuse the last one), scalar and widened. The first
# three move with the emitted code; the last moves when a stage stops
# sharing the solve.
for src in examples/c/*.c; do
  base=$(basename "$src" .c)
  got=$(for vw in 0 4; do
    "$ompltc" --counters-json --backend=vm --vector-width="$vw" --emit-bytecode-bin="$img" "$src" 2>/dev/null \
      | grep -o '"vm\.compile\.\(ops\|promoted\|peephole\.removed\|liveness\.solves\)":[0-9]*' | sort \
      | sed "s/^/vw=$vw /"
  done)
  pin "ci/expected-counters/$base.vm.compile.txt" "bytecode compiler drift in $src" "$got"
done

if [ "$status" = 0 ]; then
  echo "shadow-AST node counters, retired-op, simd widening and bytecode image pins match ci/expected-counters/"
fi
exit $status
