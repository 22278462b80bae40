#!/usr/bin/env bash
# A tour of the safelogrank command line on a synthetic trial.
#
# Exit codes are scriptable: 0 = continue, 10 = reject at alpha,
# 64 = usage error, 65 = data error.
set -u
cd "$(dirname "$0")"
# the installed console script, or the module where it is not installed
command -v safelogrank > /dev/null || safelogrank() { python3 -m safelogrank.cli "$@"; }
WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

echo "=== make a synthetic dataset (treatment halves the hazard) ==="
python3 - "$WORK/trial.csv" <<'PY'
import sys
from safelogrank import dataset_from_stream, sample_single_event_stream, stream_rng, write_dataset
stream = sample_single_event_stream(120, 120, 0.5, stream_rng(7, 0))
write_dataset(dataset_from_stream(stream), sys.argv[1])
print(f"wrote {sys.argv[1]} with {len(stream.o)} events")
PY

echo
echo "=== analyze: exact anytime-valid test ==="
safelogrank analyze "$WORK/trial.csv" --theta1 0.5 --out "$WORK/report"
case $? in
  10) echo "--> exit 10: reject at alpha" ;;
  0)  echo "--> exit 0: continue" ;;
esac
echo "per-event-time trace (first 4 rows of ${WORK}/report.csv):"
head -5 "$WORK/report.csv"

echo
echo "=== confidence sequence for the hazard ratio ==="
safelogrank confseq "$WORK/trial.csv" --grid 0.1:4:150 --out "$WORK/cs"
tail -2 "$WORK/cs.csv"

echo
echo "=== boundary table (Z scale) ==="
safelogrank boundary --theta1 0.7 --nmax 300 --n-from 50 --n-to 300 --n-step 50

echo
echo "=== design: how many events does the sequential test need? ==="
safelogrank design --theta1 0.7 --m1 2000 --m0 2000 --reps 200 --seed 1 --cap 600

echo
echo "=== audit: where the Gaussian shortcut is safe ==="
safelogrank audit --ratios 1:1,3:1 --theta-from 0.1 --theta-to 2 --points 11 --scale 50

echo
echo "=== error handling ==="
safelogrank analyze "$WORK/missing.csv" --theta1 0.7
echo "--> exit $? for a missing file (65 = data error)"
safelogrank analyze "$WORK/trial.csv"
echo "--> exit $? without --theta1 (64 = usage error)"
