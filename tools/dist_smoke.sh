#!/usr/bin/env sh
# dist_smoke.sh <ceres_dist> — the crash-injected ceres_dist smoke run at
# seeds 1 to 5. The smoke corpus has 10 sites, one shard each, so
# --crash-rate 0.3 plans ceil(0.3 * 10) = 3 crashes; each must fire once
# and be retried through, whatever the seed. Prints "dist_smoke: OK" only
# if every run passes its own checks and reports completed=10 and
# retries=3.
set -eu
out=$(mktemp)
trap 'rm -f "$out"' EXIT
for seed in 1 2 3 4 5; do
  if ! "$1" --smoke --workers 2 --crash-rate 0.3 --seed "$seed" >"$out" 2>&1
  then
    cat "$out"
    echo "dist_smoke: FAIL: seed $seed exited non-zero"
    exit 1
  fi
  cat "$out"
  grep -q "^ceres_dist: OK$" "$out" ||
    { echo "dist_smoke: FAIL: seed $seed not OK"; exit 1; }
  grep -q " completed=10 " "$out" ||
    { echo "dist_smoke: FAIL: seed $seed did not complete 10 shards"; exit 1; }
  grep -q " retries=3 " "$out" ||
    { echo "dist_smoke: FAIL: seed $seed did not retry 3 crashes"; exit 1; }
done
echo "dist_smoke: OK"
