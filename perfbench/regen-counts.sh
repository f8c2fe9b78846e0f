#!/usr/bin/env bash
# Regenerate reference-counts.txt from scratch: the deterministic per-layer
# counts of every workload at the default seed, one "<workload> <name>
# <value>" line each. Run from anywhere; builds the benchmark first.
# Counted runs are checked against each other, never against this file:
# it exists so that a change in the work a layer does shows as a diff.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
out=perfbench/reference-counts.txt
tmp="$out.tmp"
: > "$tmp"
for w in pbbs-dual pbbs-wide; do
    cargo run --quiet --release --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$w" --counts 2>/dev/null | tail -n 1 | python3 -c '
import json, sys
w = sys.argv[1]
r = json.loads(sys.stdin.read())
if not r["correct"] or r["failed"]:
    sys.exit(f"{w}: counted runs failed or disagreed")
for name, m in r["metrics"].items():
    print(w, name, repr(m["value"]))
' "$w" >> "$tmp"
done
mv "$tmp" "$out"
echo "wrote $out ($(wc -l < "$out") counts)"
