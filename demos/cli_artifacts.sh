#!/bin/sh
# Writes the CLI artifact set of the shipped scenarios into OUT_DIR:
# validate, simulate, periodic, equilibrium and continue on every
# demos/scenarios/*.json, and degree over a square near (1, 0) on the planar
# ones, each in its own process under -W error.  Each command's exit code goes
# to OUT_DIR/exits.txt; its stdout, which names OUT_DIR, is dropped.
# periodic, equilibrium, continue and degree refuse a scenario they cannot
# analyze (not T-periodic, not autonomous, a body with corners) with exit 2
# and write nothing; any other nonzero code (a traceback exits 1) fails the
# script, after the whole set has run.  demos/cli_exits.txt pins the exit
# codes of the shipped scenarios; CI diffs OUT_DIR/exits.txt against it.
#
# Two runs, of one tree or of two trees, must give the same files:
#
#     demos/cli_artifacts.sh OUT_DIR
#     diff -r OUT_DIR OTHER_OUT_DIR
#
# Two trees whose floating-point evaluation order differs must give the same
# files up to numbers within 1e-12:
#
#     python demos/compare_artifacts.py OUT_DIR OTHER_OUT_DIR --tol 1e-12
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
mkdir -p "$1" || exit 1
out=$(cd "$1" && pwd) || exit 1
cd "$(dirname "$0")/.." || exit 1
: > "$out/exits.txt"
status=0

# run SCENARIO COMMAND ALLOWED_CODES ARGS...: one CLI call, its code logged
run() {
    name="$1_$2" allowed=$3
    shift 3
    code=0
    PYTHONPATH=src python -W error -m sweepsim "$@" > /dev/null || code=$?
    echo "$name: exit $code" >> "$out/exits.txt"
    case " $allowed " in
        *" $code "*) ;;
        *) echo "$name: exit $code" >&2; status=1 ;;
    esac
}

for s in demos/scenarios/*.json; do
    b=$(basename "$s" .json)
    run "$b" validate 0 validate --scenario "$s" --n 128 --seed 1 --out "$out/${b}_validate.json"
    run "$b" simulate 0 simulate --scenario "$s" --out "$out/${b}_simulate.csv"
    run "$b" periodic "0 2" periodic --scenario "$s" --out "$out/${b}_periodic.json"
    run "$b" equilibrium "0 2" equilibrium --scenario "$s" --out "$out/${b}_equilibrium.json"
    run "$b" continue "0 2" continue --scenario "$s" --lambda-grid 0:0.1:3 \
        --out "$out/${b}_continue.json"
    planar=$(python -c "import json, sys; print(json.load(open(sys.argv[1]))['dimension'] == 2)" "$s")
    if [ "$planar" = True ]; then
        run "$b" degree "0 2" degree --scenario "$s" --polygon "0.9,-0.1;1.1,-0.1;1.1,0.1;0.9,0.1" \
            --out "$out/${b}_degree.json"
    fi
done
exit $status
