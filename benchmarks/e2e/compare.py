"""Compare two ledgers: ``python -m benchmarks.e2e.compare A.json B.json``.

A is the parent commit, B the change; both written by ``run --all --out``
with the same benchmark code, seed and settings.  One row per
(workload, end-to-end metric): the medians, how much worse B is as a
share of A (direction applied, so positive is always worse), the
metric's bound from ``BENCHMARK.json`` and a verdict:

- **regressed** / **improved** — worse / better than A by more than the
  bound;
- **unchanged** — within the bound;
- **unresolved** — A's own run-to-run spread (interquartile range over
  its ``--repeat`` runs, as a share of the median) exceeds the bound, so
  this benchmark cannot tell at this run length.

Failed-operation shares are compared too.  Exit status 1 on any
regression, which is what lets CI gate on it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import List, Optional

from benchmarks.e2e.run import load_contract


def spread(values: List[float]) -> float:
    """Interquartile range as a share of the median (0 for one run)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def verdict(a: List[float], b: List[float], better: str, bound: float) -> tuple:
    """(worse-by share, A's spread, verdict) for one metric."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    worse = (med_b - med_a) / med_a
    if better == "higher":
        worse = -worse
    spread_a = spread(a)
    if spread_a > bound:
        return worse, spread_a, "unresolved"
    if worse > bound:
        return worse, spread_a, "regressed"
    if worse < -bound:
        return worse, spread_a, "improved"
    return worse, spread_a, "unchanged"


def compare(a: dict, b: dict, contract: dict) -> int:
    """Print the table; return the number of regressions."""
    regressions = 0
    pa, pb = a["provenance"], b["provenance"]
    print(f"A: {pa['git_sha'][:12]}{'+dirty' if pa['git_dirty'] else ''}  "
          f"B: {pb['git_sha'][:12]}{'+dirty' if pb['git_dirty'] else ''}")
    for key in ("seed", "seconds", "smoke", "python", "numpy", "nproc"):
        if pa.get(key) != pb.get(key):
            print(f"! settings differ: {key} {pa.get(key)!r} vs {pb.get(key)!r}")
    header = (f"{'workload':<18}{'metric':<16}{'A median':>12}{'B median':>12}"
              f"{'worse by':>10}{'A spread':>10}{'bound':>7}  verdict")
    print(header)
    print("-" * len(header))
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"{name:<18}missing from B")
            regressions += 1
            continue
        for m in contract["end_to_end"]:
            va, vb = wa["end_to_end"][m["name"]], wb["end_to_end"][m["name"]]
            worse, spread_a, word = verdict(va, vb, m["better"], m["bound"])
            regressions += word == "regressed"
            print(f"{name:<18}{m['name']:<16}{statistics.median(va):>12.5g}"
                  f"{statistics.median(vb):>12.5g}{worse:>+10.1%}"
                  f"{spread_a:>10.1%}{m['bound']:>7.2f}  {word}")
        share_a = wa["failed"] / wa["attempted"]
        share_b = wb["failed"] / wb["attempted"]
        word = "regressed" if share_b > share_a else "unchanged"
        regressions += word == "regressed"
        print(f"{name:<18}{'failed share':<16}{share_a:>12.3g}{share_b:>12.3g}"
              f"{'':>27}  {word}")
        same = wa["result_digest"] == wb["result_digest"]
        print(f"{name:<18}result_digest {'identical' if same else 'DIFFERS'}"
              f" (spec {'identical' if wa['spec_digest'] == wb['spec_digest'] else 'DIFFERS'})")
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="ledger of the parent commit")
    parser.add_argument("b", help="ledger of the change")
    args = parser.parse_args(argv)
    with open(args.a, "r", encoding="utf-8") as fa, \
            open(args.b, "r", encoding="utf-8") as fb:
        regressions = compare(json.load(fa), json.load(fb), load_contract())
    print(f"{regressions} regression(s)")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
