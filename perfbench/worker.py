"""One fresh interpreter of a benchmark run; started by run.py.

Times its own set-up (importing emdkit and emdkit.cli, then building
the first input set), runs a cold first pass, and then, by mode:

  measure   warm passes for ``--seconds``, at least one;
  trace     pairs of passes on the same input set, untraced then traced,
            for ``--seconds``; per-layer metrics come from the first
            traced pass.

Pass k of a worker (k = 0 for the cold pass) uses input set
``first_set + k * stride``, so workers of one run never share inputs.

The calibration kernel (calibrate.py) is timed after every pass of a
measure run, so run.py can report times in reference seconds. Every op's output is checked
and digested outside the timed region.
The result is one JSON object on the last line of standard output.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def np_blas_info() -> dict:
    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {k: info.get(k) for k in ("name", "version", "openblas configuration")}


def run_pass(ops, tracer=None):
    """Time one pass over ``ops``; an op that raises is recorded, not fatal."""
    outcomes = []
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        try:
            if tracer is None:
                outcomes.append((op.run(), None))
            else:
                tracer.op = i
                with tracer.span(f"bench.{op.name}"):
                    outcomes.append((op.run(), None))
        except Exception as exc:  # an op failure counts against error_rate
            outcomes.append((None, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, outcomes


def assess(ops, outcomes):
    """Digest and check every op's output (untimed).

    Returns ``{op: digest}``, the failure list, and the bytes the CLI
    wrote in this pass."""
    digests, failures, cli_bytes = {}, [], 0
    for op, (out, error) in zip(ops, outcomes):
        if error is not None:
            failures.append({"op": op.name, "check": "raised", "detail": error})
            continue
        artifacts = op.artifacts(out)
        if op.writes_files:
            cli_bytes += sum(len(b) for b in artifacts.values())
        h = hashlib.sha256()
        for name in sorted(artifacts):
            h.update(name.encode() + b"\0" + hashlib.sha256(artifacts[name]).digest())
        digests[op.name] = h.hexdigest()
        try:
            checks = op.check(out)
        except Exception as exc:  # a check that cannot run is a failed check
            checks = [("check raised", False, f"{type(exc).__name__}: {exc}")]
        failures += [{"op": op.name, "check": name, "detail": detail}
                     for name, ok, detail in checks if not ok]
    return digests, failures, cli_bytes


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--first-set", type=int, required=True,
                    help="input set of the cold pass")
    ap.add_argument("--stride", type=int, default=1, help="input sets between passes")
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    t = time.perf_counter()
    import emdkit
    import emdkit.cli  # noqa: F401
    import_s = time.perf_counter() - t
    src = (ROOT / "src").resolve()
    if src not in Path(emdkit.__file__).resolve().parents:
        print(f"emdkit imported from {emdkit.__file__}, not from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    make_ops = workloads.WORKLOADS[args.workload]
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    ops = make_ops(args.seed, args.first_set, workdir)
    inputs_s = time.perf_counter() - t
    setup_s = time.perf_counter() - T_START

    result = {"setup_s": setup_s, "import_s": import_s, "inputs_s": inputs_s,
              "attempted": 0, "failures": [], "digests": {}, "cli_bytes": {}}

    def record(key, ops, outcomes):
        digests, failures, cli_bytes = assess(ops, outcomes)
        result["attempted"] += len(ops)
        result["failures"] += [dict(f, set=key) for f in failures]
        result["digests"][key] = digests
        result["cli_bytes"][key] = cli_bytes
        return digests

    from calibrate import calibrate

    cold_s, outcomes = run_pass(ops)
    result["cold_s"] = cold_s
    result["peak_rss_mb"] = peak_rss_mb()
    result["cal_s"] = [calibrate()]
    record(str(args.first_set), ops, outcomes)

    index = args.first_set + args.stride
    if args.mode == "measure":
        warm, spent = [], 0.0
        while spent < args.seconds or not warm:
            ops = make_ops(args.seed, index, workdir)
            wall, outcomes = run_pass(ops)
            result["cal_s"].append(calibrate())
            record(str(index), ops, outcomes)
            warm.append(wall)
            spent += wall
            index += args.stride
        result["warm_s"] = warm
    elif args.mode == "trace":
        from tracer import Tracer, layer_metrics

        pairs, spent = [], 0.0
        while spent < args.seconds or not pairs:
            ops = make_ops(args.seed, index, workdir)
            untraced, outcomes = run_pass(ops)
            plain = record(str(index), ops, outcomes)
            tracer = Tracer()
            with tracer.installed():
                traced, outcomes = run_pass(ops, tracer)
            if record(f"{index}-traced", ops, outcomes) != plain:
                result["failures"].append({"op": "*", "set": index, "detail": "",
                                           "check": "tracing changed the outputs"})
            if not pairs:
                result["layers"] = layer_metrics(tracer.spans, tracer.counts)
                result["layers"]["cli.bytes_written"] = result["cli_bytes"][str(index)]
                result["traced_wall_s"] = traced
                tracer.write_spans(workdir / "spans.csv")
            pairs.append((untraced, traced))
            spent += untraced + traced
            index += args.stride
        result["trace_pairs"] = pairs

    result["blas"] = np_blas_info()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
