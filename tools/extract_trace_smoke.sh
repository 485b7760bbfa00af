#!/usr/bin/env sh
# extract_trace_smoke.sh <ceres_gen_corpus> <ceres_extract> — generates the
# swde-movie corpus at scale 0.1, runs ceres_extract --trace_json on
# movies0.example.com, and checks the "metrics" object: all ten batch
# counters are present, the run is one run over 13 pages, and KB mention
# hits do not exceed lookups. Prints "extract_trace_smoke: OK" only if
# every check holds.
set -eu
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail() { echo "extract_trace_smoke: FAIL: $1"; cat "$work/err"; exit 1; }

"$1" --corpus swde-movie --scale 0.1 --out "$work/corpus" >"$work/err" 2>&1 ||
  fail "ceres_gen_corpus exited non-zero"
"$2" --kb "$work/corpus/seed.kb" --pages "$work/corpus/movies0.example.com" \
  --out "$work/out.tsv" --trace_json "$work/trace.json" >"$work/err" 2>&1 ||
  fail "ceres_extract exited non-zero"
metrics=$(sed -n 's/.*"metrics":\({"counters":{[^}]*}\).*/\1/p' \
  "$work/trace.json")
[ -n "$metrics" ] || fail "no metrics counters object in the trace JSON"
value() {
  echo "$metrics" | sed -n "s/.*\"$1\":\([0-9][0-9]*\).*/\1/p"
}
for name in ceres_kb_mention_hits_total ceres_kb_mention_lookups_total \
    ceres_pipeline_cluster_skips_total ceres_pipeline_clusters_total \
    ceres_pipeline_pages_total ceres_pipeline_runs_total \
    ceres_train_fits_capped_total ceres_train_fits_total \
    ceres_train_lbfgs_iterations_total ceres_train_objective_evals_total; do
  [ -n "$(value "$name")" ] || fail "metrics lack $name: $metrics"
done
[ "$(value ceres_pipeline_runs_total)" -eq 1 ] || fail "runs != 1: $metrics"
[ "$(value ceres_pipeline_pages_total)" -eq 13 ] ||
  fail "pages != 13: $metrics"
[ "$(value ceres_kb_mention_hits_total)" -le \
  "$(value ceres_kb_mention_lookups_total)" ] ||
  fail "mention hits exceed lookups: $metrics"
echo "extract_trace_smoke: OK"
