"""Compare two sets of benchmark records written with ``run.py --out``.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Prints, per workload and end-to-end metric, each side's median and
quartiles and whether the new median is worse than the base median by
more than the metric's bound in BENCHMARK.json.  Refuses (exit 2) to
compare records whose kernel backend or numpy version differ, since
those change both speed and output bytes.
"""

import argparse
import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(paths) -> list:
    return [json.loads(pathlib.Path(p).read_text()) for p in paths]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args(argv)
    base, new = load(args.base), load(args.new)

    stamps = {(r["provenance"]["backend"], r["provenance"]["numpy"]) for r in base + new}
    if len(stamps) != 1:
        print(f"refusing to compare: backend/numpy differ across records: {sorted(stamps)}",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for workload in sorted({r["workload"] for r in base + new}):
        b = [r for r in base if r["workload"] == workload and not r["trace"]]
        n = [r for r in new if r["workload"] == workload and not r["trace"]]
        if not b or not n:
            continue
        print(f"{workload}: {len(b)} base runs, {len(n)} new runs")
        for name, m in metrics.items():
            bq = quartiles([r["metrics"][name] for r in b])
            nq = quartiles([r["metrics"][name] for r in n])
            change = (nq[1] - bq[1]) / bq[1]
            worse = -change if m["better"] == "higher" else change
            verdict = "worse beyond bound" if worse > m["bound"] else "within bound"
            regressions += worse > m["bound"]
            print(f"  {name:12s} base {bq[1]:.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                  f"  new {nq[1]:.6g} [{nq[0]:.6g}, {nq[2]:.6g}]"
                  f"  {change:+.1%}  {verdict} (bound {m['bound']:.0%})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
