"""Run one workload of the emdkit benchmark and print its metrics.

    python3 perfbench/run.py --workload noise-band --seed 1 --seconds 10 --trace 0

With ``--trace 0`` the run starts fresh interpreters one after another.
Each times its set-up and a cold first pass, then runs warm passes for
its share of ``--seconds``, every pass on an input set of its own. It
reports the ``end_to_end`` metrics of BENCHMARK.json:

  wall_s       median warm pass over all interpreters
  cold_wall_s  median first pass in a fresh interpreter
  setup_s      median time from a fresh interpreter to inputs ready
  peak_rss_mb  median peak resident memory over set-up and one pass
  ok_rate      1 - failed ops / attempted ops

Times are in reference seconds: every interpreter runs the calibration
kernel (calibrate.py) after each of its passes, and each measured time
is scaled by ``CAL_REF_S`` over the kernel's time nearest to it before
the medians are taken. The raw medians are kept in the run record.

With ``--trace 1`` one interpreter alternates untraced and traced passes
on the same input sets and reports the ``per_layer`` metrics of the
first traced pass. The last line of standard output is the JSON result;
the full record, with the run environment and output digests, is kept
under ``.perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

from calibrate import CAL_REF_S  # noqa: E402
from stats import summary  # noqa: E402

#: Fresh interpreters per untraced run; set-up, cold pass and peak RSS
#: are their medians. The machine's speed wanders over tens of seconds,
#: so each one also takes a share of the warm passes: the median then
#: samples the whole run, not one stretch of it.
FRESH_INTERPRETERS = 4
#: Every run ends within this many seconds or fails.
RUN_DEADLINE_S = 170.0
#: Largest share of a traced pass that may fall outside every span.
MAX_UNATTRIBUTED = 0.01
#: BLAS and OpenMP pools are held at one thread: the benchmark is single
#: threaded, and its digests assume a fixed summation order.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class RunError(Exception):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.update(THREAD_ENV)
    return env


def spawn(deadline: float, **opts) -> dict:
    """Run worker.py in a fresh interpreter and parse its JSON result."""
    argv = [sys.executable, str(HERE / "worker.py")]
    for key, value in opts.items():
        argv += [f"--{key.replace('_', '-')}", str(value)]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker exceeded the {RUN_DEADLINE_S:.0f} s run deadline") from exc
    if proc.returncode != 0:
        raise RunError(f"worker exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_environment(seed: int, blas: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "blas": blas,
        "blas_threads": THREAD_ENV,
        "git_commit": git_commit(),
        "seed": seed,
        "machine": platform.machine(),
    }


def compare_reference(workload: str, seed: int, digests: dict) -> dict:
    """Count ops whose output digest differs from the stored reference."""
    ref_path = HERE / "reference_digests.json"
    ref = json.loads(ref_path.read_text()).get(workload, {}).get(str(seed), {})
    compared = changed = 0
    for key, ops in digests.items():
        for op, digest in ops.items():
            expected = ref.get(key.removesuffix("-traced"), {}).get(op)
            if expected is not None:
                compared += 1
                changed += expected != digest
    return {"outputs_compared": compared, "outputs_changed": changed if compared else None}


def untraced_run(args, workdir: Path, deadline: float):
    workers = [spawn(deadline, mode="measure", workload=args.workload, seed=args.seed,
                     workdir=workdir, first_set=w, stride=FRESH_INTERPRETERS,
                     seconds=args.seconds / FRESH_INTERPRETERS)
               for w in range(FRESH_INTERPRETERS)]
    attempted = sum(w["attempted"] for w in workers)
    failed_ops = {(f["set"], f["op"]) for w in workers for f in w["failures"]}

    # Each time is scaled by the kernel runs nearest to it: a warm pass by
    # the runs just before and after it, set-up and the cold pass by the
    # first two runs after the cold pass (a run before it would warm it).
    scaled = {"wall_s": [], "cold_wall_s": [], "setup_s": []}
    for w in workers:
        cal = w["cal_s"]
        scaled["wall_s"] += [t * 2 * CAL_REF_S / (cal[i] + cal[i + 1])
                             for i, t in enumerate(w["warm_s"])]
        first = (cal[0] + cal[1]) / 2
        scaled["cold_wall_s"].append(w["cold_s"] * CAL_REF_S / first)
        scaled["setup_s"].append(w["setup_s"] * CAL_REF_S / first)
    metrics = {name: summary(values)["median"] for name, values in scaled.items()}
    metrics["peak_rss_mb"] = summary([w["peak_rss_mb"] for w in workers])["median"]
    metrics["ok_rate"] = 1.0 - len(failed_ops) / attempted
    metrics["raw.wall_s"] = summary([t for w in workers for t in w["warm_s"]])["median"]
    metrics["raw.cold_wall_s"] = summary([w["cold_s"] for w in workers])["median"]
    metrics["raw.setup_s"] = summary([w["setup_s"] for w in workers])["median"]
    metrics["raw.calibration_s"] = summary([c for w in workers for c in w["cal_s"]])["median"]
    return workers, metrics, attempted, len(failed_ops)


def traced_run(args, workdir: Path, deadline: float):
    w = spawn(deadline, mode="trace", workload=args.workload, seed=args.seed, workdir=workdir,
              first_set=0, seconds=args.seconds)
    layers = dict(w["layers"])
    overhead = summary([(t - u) / u for u, t in w["trace_pairs"]])["median"]
    layers["trace.overhead_frac"] = overhead
    layers["trace.traced_wall_s"] = w["traced_wall_s"]
    layers["emdkit.import_s"] = w["import_s"]
    layers["bench.inputs_s"] = w["inputs_s"]
    unattributed = 1.0 - layers["trace.self_sum_s"] / w["traced_wall_s"]
    if not 0.0 <= unattributed <= MAX_UNATTRIBUTED:
        w["failures"].append({"set": "*", "op": "*", "check": "span self times add up",
                              "detail": f"unattributed share {unattributed:.3e}"})
    failed_ops = {(f["set"], f["op"]) for f in w["failures"]}
    return [w], layers, w["attempted"], len(failed_ops)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_DEADLINE_S

    bench_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "emdkit" / "__init__.py").is_file() or not bench_path.is_file():
        print(f"error: no emdkit sources or BENCHMARK.json under {ROOT}", file=sys.stderr)
        return 2
    bench = json.loads(bench_path.read_text())
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    specs = bench["per_layer" if args.trace else "end_to_end"]

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = traced_run if args.trace else untraced_run
        workers, values, attempted, failed = run(args, workdir, deadline)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    digests = {k: v for w in workers for k, v in w["digests"].items()}
    failures = [f for w in workers for f in w["failures"]]
    metrics = {s["name"]: {"value": values.get(s["name"], 0), "unit": s["unit"]} for s in specs}
    outputs = compare_reference(args.workload, args.seed, digests)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "metrics": metrics, "all_values": values,
        "attempted": attempted, "failed": failed, "failures": failures,
        **outputs, "digests": digests,
        "environment": run_environment(args.seed, workers[0]["blas"]),
        "workers": [{k: v for k, v in w.items() if k not in ("digests", "layers", "blas")}
                    for w in workers],
    }
    runs = WORK / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{workdir.name}.json").write_text(json.dumps(record, indent=1))
    shutil.rmtree(workdir / "cli", ignore_errors=True)

    print(f"{args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{len(workers)} interpreter(s)")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  error_rate {failed / attempted:.6g} ({failed} failed / {attempted} attempted)")
    for f in failures:
        print(f"  FAILED set {f['set']} {f['op']}: {f['check']} {f['detail']}")
    print(f"  outputs_changed {outputs['outputs_changed']} "
          f"(of {outputs['outputs_compared']} compared with the reference)")
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
