"""Compare two results files written by ``repeat.py --out``.

    python3 perfbench/compare.py parent.json change.json

Prints one row per workload and end-to-end metric: each side's median
and quartiles, the change of the median, and a verdict under the bounds
in BENCHMARK.json:

  unresolved  either side's quartile spread exceeds the bound, and not
              every run of the change beats every run of the parent
  worse       the change's median is worse by more than the bound
  better      the change wins at least 9 in 10 runs paired by seed, and
              its median beats the parent's by more than the parent's
              quartile distance
  no worse    otherwise
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from stats import summary  # noqa: E402


def verdict(spec: dict, parent: dict, change: dict) -> tuple[str, float]:
    """``parent``/``change`` map seed -> value. Returns (verdict, delta),
    delta being the relative change of the median."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    a, b = summary(parent.values()), summary(change.values())
    delta = (b["median"] - a["median"]) / abs(a["median"]) if a["median"] else 0.0
    worse_by = sign * delta
    bound = spec["bound"]
    if sign > 0:
        every_run_better = max(change.values()) < min(parent.values())
    else:
        every_run_better = min(change.values()) > max(parent.values())
    if max(a["spread"], b["spread"]) > bound:
        return ("better" if every_run_better else "unresolved"), delta
    if worse_by > bound:
        return "worse", delta
    paired = sorted(set(parent) & set(change))
    wins = sum(sign * (change[s] - parent[s]) < 0 for s in paired)
    if paired and wins >= 0.9 * len(paired) and \
            sign * (a["median"] - b["median"]) > a["q3"] - a["q1"]:
        return "better", delta
    return "no worse", delta


def load(path: str) -> dict[tuple[str, str], dict[int, float]]:
    """(workload, metric) -> {seed: value} for every run in a results file."""
    out: dict[tuple[str, str], dict[int, float]] = {}
    for rec in json.loads(Path(path).read_text())["runs"]:
        for metric, m in rec["metrics"].items():
            out.setdefault((rec["workload"], metric), {})[rec["seed"]] = m["value"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    args = ap.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parents, changes = load(args.parent), load(args.change)

    print(f"{'workload':<16} {'metric':<12} {'parent median [q1, q3]':>36} "
          f"{'change median [q1, q3]':>36} {'delta':>8}  verdict")
    worse = False
    for wl in (w["name"] for w in bench["workloads"]):
        for spec in bench["end_to_end"]:
            parent = parents.get((wl, spec["name"]))
            change = changes.get((wl, spec["name"]))
            if not parent or not change:
                continue
            v, delta = verdict(spec, parent, change)
            worse |= v == "worse"
            cols = []
            for side in (parent, change):
                s = summary(side.values())
                cols.append(f"{s['median']:.5g} [{s['q1']:.5g}, {s['q3']:.5g}] n={s['n']}")
            print(f"{wl:<16} {spec['name']:<12} {cols[0]:>36} {cols[1]:>36} "
                  f"{delta:>+8.2%}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
