#!/usr/bin/env bash
# The CLI commands the tests workflow checks, the reference seeds' sweeps
# among them.  It runs them once on its head, and every command but
# verify-fails must exit 0, verify-fails 1; the files, stdout and exit codes
# of that run are what the base commit, python -O and the installed qpool
# script are compared against.
#
# Usage: bash .github/cli-commands.sh OUT_DIR QPOOL...
#   QPOOL... is how to run the CLI, e.g. `python -O -m qpool.cli` or `qpool`;
#   a PYTHONPATH it needs must be absolute, since the commands run in
#   OUT_DIR.  Each command writes its files there under their own names,
#   its stdout to <name>.out, and one "<name> exit <code>" line to exits.
set -u
out="$1"
shift
qpool=("$@")
mkdir -p "$out"
cd "$out" || exit 2
: > exits
run() {  # name, CLI arguments
  local name="$1"
  shift
  "${qpool[@]}" "$@" > "$name.out" && echo "$name exit 0" >> exits || echo "$name exit $?" >> exits
}
# random povm: dims 1, 2, 3, 5, 8 x outcomes 2, 3, 5 x seeds 0, 4, 99, and
# dim 3 with 4 outcomes.
for d in 1 2 3 5 8; do for k in 2 3 5; do for s in 0 4 99; do
  run "povm-$d-$k-$s" random povm --dim $d --outcomes $k --seed $s --out "povm-$d-$k-$s.json"
done; done; done
run povm-3-4-4 random povm --dim 3 --outcomes 4 --seed 4 --out povm-3-4-4.json
run state-1 random state --dim 1 --seed 5 --out state-1.json
run s1 random state --dim 3 --seed 1 --out s1.json
run s2 random state --dim 3 --rank 1 --seed 2 --out s2.json
run s3 random state --dim 3 --rank 2 --seed 3 --out s3.json
run s4 random state --dim 3 --seed 4 --out s4.json
run s5 random state --dim 3 --rank 2 --seed 5 --out s5.json
# Five states at dim 3 take the symmetric rule's Liouville route.
for mode in ordered symmetric; do
  run "$mode-2" pool --mode $mode --in s1.json s2.json --out "$mode-2.json"
  run "$mode-3" pool --mode $mode --in s1.json s2.json s3.json --out "$mode-3.json"
  run "$mode-5" pool --mode $mode --in s1.json s2.json s3.json s4.json s5.json --out "$mode-5.json"
done
# --pretty prints through _emit's indented path.
run pool-pretty pool --mode symmetric --in s1.json s2.json s3.json --out pool-pretty.json --pretty
run compat compat s1.json s2.json
run bloch bloch --a 0,0.6,0.8 --b=-0.3,0.4,0.1
run bloch-pretty bloch --a 0,0.6,0.8 --b=-0.3,0.4,0.1 --pretty
# The closed form's edges: orthogonal pure, identical, a length past the
# sphere within BLOCH_SLACK, total ignorance, and near-antipodal mixed.
run bloch-orthogonal bloch --a 0,0,1 --b 1,0,0
run bloch-identical bloch --a 0,0.6,0.8 --b 0,0.6,0.8
run bloch-slack bloch --a 0,0,1.0000000000005 --b 0.1,0.2,0.3
run bloch-ignorance bloch --a 0,0,0 --b 0,0,0
run bloch-opposed bloch --a 0,0,0.999 --b=0,0,-0.999
run verify verify --trials 5
# Each suite alone: cmd_verify's single-suite path through harness.SUITES.
for suite in two commuting three; do
  run "verify-$suite" verify --suite $suite --trials 5
done
run verify-pretty verify --suite all --trials 3 --dims 2..3 --seed 5 --pretty
run verify-seed-3 verify --suite all --trials 20 --dims 2..4 --seed 3
# The reference seeds: every suite at dims 2..5.  A failing trial exits 1.
for s in 0 7 109 12345; do
  run "verify-ref-$s" verify --suite all --trials 40 --dims 2..5 --seed "$s"
done
# A tolerance below rounding fails every trial, so the failure report's
# bytes are compared too; it exits 1.  At seed 0 the norm discrepancy of
# one "two" trial and two "commuting" trials exceeds both rules' distances
# and sets theirs (at seed 5 it sets none).
run verify-fails verify --suite all --trials 3 --dims 2..3 --seed 0 --tol 1e-18
# The parser's help text, including --suite's choices, which the parser
# reads from qpool.suites.
run help --help
for cmd in pool compat bloch verify random; do
  run "help-$cmd" "$cmd" --help
done
