#!/usr/bin/env sh
# dist_resume_smoke.sh <ceres_dist> — a crash-injected ceres_dist smoke run,
# then the same run again over the same checkpoint directory. The second
# run loads every shard from its checkpoint, so no planned crash fires and
# nothing is retried. Prints "dist_resume_smoke: OK" only if both runs pass
# their own checks with the same fused_triples and the second shows
# retries=0.
set -eu
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail() { echo "dist_resume_smoke: FAIL: $1"; cat "$work"/run*.out; exit 1; }

for run in 1 2; do
  "$1" --smoke --workers 2 --crash-rate 0.3 --checkpoint-dir "$work/ckpt" \
    >"$work/run$run.out" 2>&1 || fail "run $run exited non-zero"
  grep -q "^ceres_dist: OK$" "$work/run$run.out" || fail "run $run not OK"
done
triples() { sed -n 's/.* fused_triples=\([0-9][0-9]*\)$/\1/p' "$1"; }
first=$(triples "$work/run1.out")
second=$(triples "$work/run2.out")
[ -n "$first" ] || fail "no fused_triples in run 1"
[ "$first" = "$second" ] ||
  fail "fused_triples differ: $first then $second"
grep -q " retries=0 " "$work/run2.out" || fail "the resumed run retried"
echo "dist_resume_smoke: OK"
