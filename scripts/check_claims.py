#!/usr/bin/env python3
"""Checks the paper claims in bench/claims.json against BENCH json files.

    python3 scripts/check_claims.py <dir holding BENCH_<bench>.json>

Prints one line per claim and exits 1 when any claim fails, or when a bench
file or a row a claim names is missing.
"""
import json
import os
import sys

CLAIMS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "bench", "claims.json")


def rows(bench_dir, bench, cache):
    """label -> measured value of one bench's results rows, or None."""
    if bench not in cache:
        path = os.path.join(bench_dir, f"BENCH_{bench}.json")
        try:
            with open(path) as f:
                results = json.load(f)["results"]
            cache[bench] = {r["label"]: r["measured"] for r in results}
        except (OSError, ValueError, KeyError, TypeError):
            cache[bench] = None
    return cache[bench]


def check(claim, measured):
    """(holds, text) for one claim over a bench's rows."""
    row, pred = claim["row"], claim["pred"]
    needed = [row] + claim.get("other", [])
    missing = [label for label in needed if label not in measured]
    if missing:
        return False, f"missing row(s) {missing}"
    lhs = measured[row]
    if pred == "in":
        low, high = claim["value"]
        return low <= lhs <= high, f"{row} = {lhs:g} in [{low:g}, {high:g}]"
    factor = claim.get("factor", 1)
    scale = "" if factor == 1 else f"{factor:g} x "
    if "other" in claim:
        bounds = [(f"{scale}{label} ({factor * measured[label]:g})", factor * measured[label])
                  for label in claim["other"]]
    else:
        bounds = [(f"{claim['value']:g}", claim["value"])]
    if pred != ">":
        return False, f"unknown predicate {pred!r}"
    texts = [f"{row} = {lhs:g} > {text}" for text, _ in bounds]
    return all(lhs > rhs for _, rhs in bounds), "; ".join(texts)


def main(argv):
    if len(argv) != 2:
        sys.exit(__doc__)
    bench_dir = argv[1]
    with open(CLAIMS) as f:
        claims = json.load(f)["claims"]
    cache = {}
    failed = 0
    for claim in claims:
        measured = rows(bench_dir, claim["bench"], cache)
        if measured is None:
            holds, text = False, f"no readable BENCH_{claim['bench']}.json"
        else:
            holds, text = check(claim, measured)
        failed += not holds
        print(f"{'ok  ' if holds else 'FAIL'} {claim['bench']}: {text}  [{claim['where']}]")
    print(f"{len(claims) - failed}/{len(claims)} paper claims hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
