"""Run the benchmark over several seeds and summarise every metric.

    python3 perfbench/repeat.py --seeds 1-10 --out results.json
    python3 perfbench/repeat.py --seeds 1 --trace 1
    python3 perfbench/repeat.py --seeds 3,3 --trace 1      # counter determinism

Runs ``run.py`` once per seed and workload (workloads interleaved within
each seed), then prints, per workload and metric, the median, the
quartiles and their distance as a share of the median next to the
metric's bound. With ``--trace 1`` it also checks that runs with the same
seed report identical counts. ``--out`` keeps every run record for
compare.py; ``--update-reference`` stores the untraced runs' output
digests as the reference that later runs report ``outputs_changed``
against.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import FRESH_INTERPRETERS  # noqa: E402
from stats import summary  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def is_count(spec) -> bool:
    """Metrics that must repeat exactly under a fixed seed."""
    return spec["unit"] in ("count", "B") or spec["name"].endswith("_ratio")


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,3,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write every run record to this JSON file")
    ap.add_argument("--update-reference", action="store_true")
    args = ap.parse_args(argv)
    workloads = args.workloads.split(",")
    specs = bench["per_layer" if args.trace else "end_to_end"]

    records = []
    for seed in parse_seeds(args.seeds):
        for wl in workloads:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", wl, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode != 0:
                print(f"{wl} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rec = json.loads((ROOT / ".perfbench" / "runs" /
                              f"{wl}-seed{seed}-trace{args.trace}.json").read_text())
            records.append(rec)
            brief = "  ".join(f"{k}={v['value']:.4g}" for k, v in list(result["metrics"].items())[:5])
            print(f"{wl:<16} seed {seed:<4} correct={result['correct']} "
                  f"outputs_changed={rec['outputs_changed']}  {brief}", flush=True)

    if args.out:
        Path(args.out).write_text(json.dumps({"trace": args.trace, "runs": records}, indent=1))

    ok = True
    by_wl = defaultdict(list)
    for rec in records:
        by_wl[rec["workload"]].append(rec)
    print(f"\n{'workload':<16} {'metric':<40} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8} {'bound':>6}")
    for wl, recs in by_wl.items():
        errors = sum(r["failed"] for r in recs) / sum(r["attempted"] for r in recs)
        ok &= errors == 0
        for spec in specs:
            s = summary(r["metrics"][spec["name"]]["value"] for r in recs)
            bound = spec.get("bound")
            flag = ""
            if bound is not None and spec["name"] != "setup_s":
                flag = "OVER BOUND" if s["spread"] > bound else (
                    "over 1/3 bound" if s["spread"] > bound / 3 else "")
            print(f"{wl:<16} {spec['name']:<40} {spec['unit']:<6} {s['median']:>12.6g} "
                  f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f} "
                  f"{'' if bound is None else bound:>6} {flag}")
        print(f"{wl:<16} {'error_rate':<40} {'ratio':<6} {errors:>12.6g}")
        if args.trace:
            groups = defaultdict(list)
            for r in recs:
                groups[r["seed"]].append(r)
            for seed, same in groups.items():
                if len(same) < 2:
                    continue
                diff = [s["name"] for s in specs if is_count(s)
                        and len({json.dumps(r["metrics"][s["name"]]["value"]) for r in same}) > 1]
                ok &= not diff
                print(f"{wl:<16} seed {seed}: counts identical over {len(same)} traced runs: "
                      f"{'yes' if not diff else 'NO ' + ', '.join(diff)}")

    if args.update_reference and not args.trace:
        ref_path = HERE / "reference_digests.json"
        ref = json.loads(ref_path.read_text())
        for rec in records:
            # The cold-pass input sets are the ones every untraced run makes.
            ref.setdefault(rec["workload"], {})[str(rec["seed"])] = {
                k: v for k, v in rec["digests"].items() if int(k) < FRESH_INTERPRETERS}
        ref_path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
