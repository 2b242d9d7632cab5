#!/usr/bin/env python3
"""Diffs the paper benches' results rows against bench/baseline/.

    python3 scripts/check_baseline.py <dir holding BENCH_<bench>.json>
    python3 scripts/check_baseline.py --write <dir> [bench ...]

Bench output is deterministic, so every row must match its baseline exactly:
the same label, measured value, paper value and unit, and no row missing or
extra. The check prints one line per difference, naming the bench, the row
and both values, and exits 1 when there is any (or when a bench file is
missing). --write copies the named benches' rows (all of them by default)
from <dir> into bench/baseline/: a change that moves a row on purpose
regenerates its bench's baseline in the same commit and explains the move in
EXPERIMENTS.md.
"""
import json
import os
import sys

BASELINE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "baseline")

# Every bench binary but bench_micro_gbench, whose rows are host timings.
BENCHES = [
    "ablations", "fig3_filebench", "fig4_memcached_peak", "fig5_memcached_fixed",
    "fig6_rocksdb", "replication", "soak", "table4_posix_objects",
    "table5_memory_objects", "table6_apps", "table7_redis",
]
FIELDS = ("measured", "paper", "unit")


def load_rows(path):
    """The results rows of one BENCH json, or None when it is unreadable."""
    try:
        with open(path) as f:
            return json.load(f)["results"]
    except (OSError, ValueError, KeyError, TypeError):
        return None


def diff(bench, base, now):
    """One line per difference between two lists of rows."""
    base_by = {r["label"]: r for r in base}
    now_by = {r["label"]: r for r in now}
    out = []
    for label, row in base_by.items():
        if label not in now_by:
            out.append(f"{bench}: row {label!r} missing (baseline {row['measured']!r} {row['unit']})")
            continue
        for field in FIELDS:
            if row[field] != now_by[label][field]:
                out.append(f"{bench}: row {label!r} {field} {row[field]!r} in the baseline, "
                           f"{now_by[label][field]!r} now")
    for label, row in now_by.items():
        if label not in base_by:
            out.append(f"{bench}: row {label!r} extra ({row['measured']!r} {row['unit']})")
    return out


def write(bench, rows):
    lines = ",\n".join(f"    {json.dumps(r)}" for r in rows)
    with open(os.path.join(BASELINE_DIR, f"BENCH_{bench}.json"), "w") as f:
        f.write(f'{{\n  "bench": "{bench}",\n  "results": [\n{lines}\n  ]\n}}\n')


def main(argv):
    writing = len(argv) > 1 and argv[1] == "--write"
    args = argv[2:] if writing else argv[1:]
    if not args or (not writing and len(args) != 1):
        sys.exit(__doc__)
    bench_dir, benches = args[0], (args[1:] or BENCHES)
    failed = 0
    for bench in benches:
        now = load_rows(os.path.join(bench_dir, f"BENCH_{bench}.json"))
        if now is None:
            print(f"FAIL {bench}: no readable BENCH_{bench}.json in {bench_dir}")
            failed += 1
            continue
        if writing:
            write(bench, now)
            print(f"wrote {bench}: {len(now)} rows")
            continue
        base = load_rows(os.path.join(BASELINE_DIR, f"BENCH_{bench}.json"))
        lines = diff(bench, base, now) if base is not None else [f"{bench}: no baseline"]
        for line in lines:
            print(f"FAIL {line}")
        failed += bool(lines)
    if not writing:
        print(f"{len(benches) - failed}/{len(benches)} benches match their baselines")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
