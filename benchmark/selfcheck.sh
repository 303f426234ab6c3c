#!/usr/bin/env bash
# Repeatability and ledger check of the benchmark itself.
#
# Runs the four workloads twice at seed 42 and once at seed 43 (untraced),
# then once traced at seed 42, and asserts:
#   * failed = 0 everywhere, with the oracle on;
#   * counts (sim_io_s, stored_ratio, read_bytes_per_op) are identical
#     between the two seed-42 runs on the single-client workloads;
#   * every other end-to-end metric of the two seed-42 runs agrees within
#     its bound in BENCHMARK.json;
#   * explore_cold's ledger rows sum to the mean op latency;
#     explore_warm bypasses pfs and decompress (< 5 % of the op latency);
#     storm's fuser and cache eviction engage.
# Warns when [profile.release] here has drifted from the root Cargo.toml.
# Results land in benchmark/out/selfcheck/ (one JSON line per run).
#
#   benchmark/selfcheck.sh [--seconds S]
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
out=benchmark/out/selfcheck
mkdir -p "$out"

profile() { awk '/^\[profile\.release\]/{on=1;next} /^\[/{on=0} on&&NF' "$1" | sort; }
if [ "$(profile Cargo.toml)" != "$(profile benchmark/Cargo.toml)" ]; then
  echo "WARNING: [profile.release] differs between Cargo.toml and benchmark/Cargo.toml" >&2
fi

run() { # label seed trace [extra args]
  local label=$1 seed=$2 trace=$3
  shift 3
  for w in import explore_cold explore_warm storm; do
    echo "selfcheck: $label $w" >&2
    bash benchmark/run.sh --workload "$w" --seed "$seed" --trace "$trace" "$@" \
      | tail -n 1 >"$out/$label-$w.json"
  done
}
run a42 42 0 "$@"
run b42 42 0 "$@"
run a43 43 0 "$@"
run t42 42 1 "$@"

python3 - "$out" <<'EOF'
import json, sys
out = sys.argv[1]
spec = json.load(open('BENCHMARK.json'))
bounds = {m['name']: (m['bound'], m['better']) for m in spec['end_to_end']}
workloads = [w['name'] for w in spec['workloads']]
exact = {'sim_io_s', 'stored_ratio', 'read_bytes_per_op'}
load = lambda label, w: json.load(open(f'{out}/{label}-{w}.json'))
bad = []
for w in workloads:
    runs = {label: load(label, w) for label in ('a42', 'b42', 'a43', 't42')}
    for label, r in runs.items():
        if r['failed'] != 0 or not r['correct']:
            bad.append(f'{w} {label}: failed={r["failed"]}')
    a, b = runs['a42']['metrics'], runs['b42']['metrics']
    for name, (bound, better) in bounds.items():
        x, y = a[name]['value'], b[name]['value']
        if x == 0 or y == 0:
            bad.append(f'{w} {name}: is 0')
        if name in exact and w != 'storm':
            if x != y:
                bad.append(f'{w} {name}: {x} != {y} at the same seed')
            continue
        rel = abs(x - y) / min(x, y)
        flag = '' if rel <= bound else '  <-- beyond bound'
        print(f'{w:13s} {name:18s} {x:16.5f} {y:16.5f}  rel {rel:.4f} (bound {bound}){flag}')
        if rel > bound:
            bad.append(f'{w} {name}: {x} vs {y} differ by {rel:.3f} > {bound}')
t = {w: load('t42', w)['metrics'] for w in workloads}
v = lambda w, n: t[w][n]['value']
cold = 'explore_cold'
ledger = ('plan.busy_ms_per_op', 'pfs.read_busy_ms_per_op', 'engine.decompress_ms_per_op',
          'engine.reconstruct_ms_per_op', 'engine.other_ms_per_op')
rows = sum(v(cold, n) for n in ledger)
print(f'explore_cold ledger rows sum to {rows:.4f} ms/op, engine.other_share {v(cold, "engine.other_share"):.3f}')
if not 0 <= v(cold, 'engine.other_share') < 1:
    bad.append('explore_cold: engine.other_share outside [0, 1)')
warm = 'explore_warm'
lat = sum(v(warm, n) for n in ledger)
for n in ('pfs.read_busy_ms_per_op', 'engine.decompress_ms_per_op'):
    share = v(warm, n) / lat
    print(f'explore_warm {n} is {100 * share:.2f} % of the op latency')
    if share >= 0.05:
        bad.append(f'explore_warm: {n} is {share:.3f} of the op latency (bypass broken)')
if not v('storm', 'fusion.fused_ratio') > 0:
    bad.append('storm: fusion.fused_ratio is 0')
if not v('storm', 'cache.evictions') > 0:
    bad.append('storm: cache.evictions is 0')
for w in workloads:
    print(f'{w:13s} trace.overhead_pct {v(w, "trace.overhead_pct"):8.3f} %')
if bad:
    print('SELFCHECK FAILED:\n  ' + '\n  '.join(bad))
    sys.exit(1)
print('selfcheck passed')
EOF
