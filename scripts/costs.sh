#!/usr/bin/env bash
# The four costs ROADMAP aim 2 asks every PR to report, counted one way, and
# the solver's API surface beside the task crates' (a cut there shows in the
# lint job's summary): run it at the parent and at the change and put both
# in CHANGES.md.
set -euo pipefail
cd "$(dirname "$0")/.."

# The non-test Rust under the given directories: every .rs outside tests/ and
# target/, each up to its first `#[cfg(test)]`.
nontest() {
  find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' -print0 |
    xargs -0 awk 'FNR == 1 { t = 0 } /^ *#\[cfg\(test\)\]/ { t = 1 } !t'
}
# The `pub` fields of struct $1 in file $2.
fields() { awk -v s="pub struct $1 " 'index($0, s) { f = 1; next } f && /^}/ { exit } f && /^ *pub [a-z_]+:/' "$2" | wc -l; }

echo "non-test lines (src, bins, benches and examples; files end at their first #[cfg(test)])"
total=0
for c in crates/* vendor/* benchmark src examples; do
  n=$(nontest "$c" | wc -l)
  total=$((total + n))
  printf '  %-18s %6d\n' "$c" "$n"
done
printf '  %-18s %6d\n' total "$total"

echo "pub fn in lejit-core + lejit-serve: $(nontest crates/core/src crates/serve/src | grep -cE '^ *pub fn ')"
echo "pub fn in lejit-smt: $(nontest crates/smt/src | grep -cE '^ *pub fn ')"

task=$(fields TaskConfig crates/core/src/tasks.rs)
serve=$(fields ServeConfig crates/serve/src/server.rs)
theory=$(fields TheoryConfig crates/smt/src/theory.rs)
env=$(grep -rhoE '"LEJIT_[A-Z_]+"' --include='*.rs' crates src examples tests benchmark/src | sort -u | wc -l)
echo "options: $((task + serve + theory + env)) (TaskConfig $task, ServeConfig $serve, TheoryConfig $theory fields; $env LEJIT_* variables read)"

echo "lint expectations (#[expect] in non-test code): $(nontest crates src vendor | grep -cE '^ *#!?\[expect\(')"
