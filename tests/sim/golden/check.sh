#!/bin/sh
# Simulator golden traces: regenerates every recorded run and compares it
# byte for byte with the committed copy.
#
#   check.sh HICC EXAMPLES_DIR GOLDEN_DIR OUT_DIR [--update]
#
# For each example under both organizations it records the run bundle of
# `hicc --simulate 8 --trace=bundle` (events.jsonl, manifest.json,
# metrics.json) and the `--trace=vcd` waveform of the same run. Any byte
# that differs means the simulator no longer executes the controller
# netlists the way it did when the goldens were recorded. --update
# rewrites the goldens from OUT_DIR instead of comparing.
set -u
if [ $# -lt 4 ]; then
  echo "usage: check.sh HICC EXAMPLES_DIR GOLDEN_DIR OUT_DIR [--update]" >&2
  exit 2
fi
hicc=$1
examples=$2
golden=$3
out=$4
update=${5:-}

status=0
rm -rf "$out"
mkdir -p "$out"
for ex in fig1 pipeline stress8 stress_shared; do
  for org in arbitrated event-driven; do
    run=$ex.$org
    if ! "$hicc" --no-report --org "$org" --simulate 8 \
        --trace=bundle,out="$out/$run" "$examples/$ex.hic" >/dev/null; then
      echo "FAIL: $run: bundle run did not finish cleanly"
      status=1
    fi
    if ! "$hicc" --no-report --org "$org" --simulate 8 \
        --trace=vcd,out="$out/$run.vcd" "$examples/$ex.hic" >/dev/null; then
      echo "FAIL: $run: vcd run did not finish cleanly"
      status=1
    fi
    for f in "$run/events.jsonl" "$run/manifest.json" "$run/metrics.json" \
        "$run.vcd"; do
      if [ "$update" = "--update" ]; then
        mkdir -p "$golden/$run"
        cp "$out/$f" "$golden/$f"
      elif ! cmp "$golden/$f" "$out/$f"; then
        echo "DIFF: $f differs from the golden copy"
        status=1
      fi
    done
  done
done
[ $status -eq 0 ] && echo "golden traces: 8 runs byte-identical"
exit $status
