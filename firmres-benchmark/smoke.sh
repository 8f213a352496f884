#!/usr/bin/env bash
# Smoke test of the benchmark: its unit tests, every workload at 5% of
# its size, the traced run at the same size, and `compare` over two
# smoke runs. Fails unless every metric BENCHMARK.json names is printed
# for every workload. Run from anywhere inside the repository; after the
# first build it takes well under a minute.
set -euo pipefail
cd "$(dirname "$0")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
manifest=firmres-benchmark/Cargo.toml
mkdir -p .bench_work
out="$(mktemp -d .bench_work/smoke.XXXXXX)"
trap 'rm -rf "$out"; rmdir .bench_work 2>/dev/null || true' EXIT
bench() { cargo run --release --quiet --offline --manifest-path "$manifest" -- "$@"; }

echo "==> unit tests"
cargo test --release --quiet --offline --manifest-path "$manifest"

echo "==> every workload, scale 0.05 (twice, for compare)"
bench --workload all --scale 0.05 --seed 7 --out "$out/a.json" > "$out/a.txt"
bench --workload all --scale 0.05 --seed 7 --out "$out/b.json" > "$out/b.txt"

echo "==> traced run, scale 0.05"
bench --workload all --scale 0.05 --seed 7 --trace 1 --out "$out/t.json" > "$out/t.txt"

echo "==> every declared metric is printed for every workload"
# Metric entries are the BENCHMARK.json lines that carry a unit.
missing=0
for name in $(grep '"unit"' BENCHMARK.json | sed 's/.*"name": *"\([^"]*\)".*/\1/'); do
  seen=$(cat "$out/a.txt" "$out/t.txt" | grep -c "^${name//./\\.} " || true)
  if [ "$seen" -ne 4 ]; then
    echo "metric $name printed $seen time(s), expected 4"
    missing=1
  fi
done
[ "$missing" -eq 0 ]
for f in a b t; do
  tail -n 1 "$out/$f.txt" | grep -q '^{"correct": true,'
done

echo "==> compare"
# Single smoke runs say nothing about spread, so a "regressed" verdict
# (exit 3) is accepted here; the check is that every workload gets a row.
status=0
bench compare "$out/a.json" -- "$out/b.json" > "$out/compare.txt" || status=$?
cat "$out/compare.txt"
[ "$status" -eq 0 ] || [ "$status" -eq 3 ]
for w in cold warm update sweep; do
  grep -q "^$w " "$out/compare.txt"
done
grep -q '^compare: ' "$out/compare.txt"
echo "smoke OK"
