#!/usr/bin/env bash
# Code lines per crate: every line of crates/<name>/src/**/*.rs that is
# neither blank nor a `//` comment (`grep -vcE '^\s*(//|$)'`), counted in
# total and without inline test modules (a file is cut at a top-level
# `#[cfg(test)]` followed by `mod <name> {`). A `tests` row counts test
# lines: the test files (crates/*/tests/**, tests/*.rs) plus the inline
# test modules (the crates' total less their non-test lines). A last
# `vendor` row counts the vendored stubs (vendor/*/src) the same way. Both
# stand outside the `all` sum.
#
#   scripts/loc.sh            # table for the working tree
#   scripts/loc.sh <dir>      # same, for another checkout
set -euo pipefail
root="${1:-$(dirname "$0")/..}"

code() { grep -vcE '^\s*(//|$)' || true; }

non_test() {
    awk '
        /^(pub(\(crate\))? )?mod [A-Za-z_0-9]+ *\{/ && prev ~ /^#\[cfg\(test\)\]/ { cut = 1; exit }
        NR > 1 { print prev }
        { prev = $0 }
        END { if (!cut && NR > 0) print prev }
    ' "$1"
}

# Sets `total` and `non_test_total` for the .rs files under the given
# directories.
count() {
    total=0
    non_test_total=0
    while IFS= read -r file; do
        total=$((total + $(code <"$file")))
        non_test_total=$((non_test_total + $(non_test "$file" | code)))
    done < <(find "$@" -name '*.rs' | sort)
}

printf '%-14s %8s %9s\n' crate total non-test
sum_total=0
sum_non_test=0
for src in "$root"/crates/*/src; do
    count "$src"
    printf '%-14s %8d %9d\n' "$(basename "$(dirname "$src")")" "$total" "$non_test_total"
    sum_total=$((sum_total + total))
    sum_non_test=$((sum_non_test + non_test_total))
done
printf '%-14s %8d %9d\n' all "$sum_total" "$sum_non_test"
count "$root"/crates/*/tests "$root"/tests
printf '%-14s %8d %9s\n' tests $((total + sum_total - sum_non_test)) -
count "$root"/vendor/*/src
printf '%-14s %8d %9d\n' vendor "$total" "$non_test_total"
