"""The workloads: seeded inputs, the timed ops of one pass, the
bytes each op's output is digested from, and the correctness checks
that feed ``error_rate``.

A workload builds input set ``index`` of a run from ``(seed, index)``
only, so the same seed always gives the same inputs. Each pass of a run
uses the next input set, so a run's median averages over inputs as well
as over timing noise. Every op is called with generated arrays, a
generated CSV file or a derived integer seed; nothing else about the
benchmark reaches the library.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

from emdkit import (
    Decomposition,
    SampledSignal,
    SiftConfig,
    SignalKind,
    SignalSpec,
    Variant,
    generate_multitone4,
    ortho_report,
    pee_identity_check,
    verify_linoep,
)

#: Relative completeness and identity tolerances of the checks.
COMPLETENESS_TOL = 1e-9
PEE_TOL = 1e-9
PAIRWISE_TOL = 1e-6

NOISE_BAND_LENGTH = 1024
NOISE_BAND_TRIALS = 100
MEMD_DIRECTIONS = 64
#: Natural MEMD sifting on multitone4 runs 33-51 mean-envelope
#: iterations per call depending on the noise draw (IQR 28% of the
#: median over seeds 0-9), more than any allowed bound. Capping modes
#: and iterations fixes the work per call at 12 iterations, each with
#: the same 64 projections and 8 spline solves per used direction.
MEMD_SIFT = SiftConfig(max_imfs=3, max_sift_iterations=4)
CLI_CSV_ROWS = 16384
CLI_CSV_RATE = 256.0


@dataclass
class Op:
    """One timed call. ``run`` is timed; ``artifacts`` and ``check`` run
    afterwards on its result."""

    name: str
    run: Callable[[], object]
    artifacts: Callable[[object], dict[str, bytes]]
    check: Callable[[object], list[tuple[str, bool, str]]]
    writes_files: bool = False  # its artifacts are files the CLI wrote


def library_call(module: str, name: str, *args, **kwargs):
    """Call ``emdkit.<module>.<name>`` as bound at call time, so that a
    traced pass goes through the tracer's wrapper."""
    return getattr(sys.modules[f"emdkit.{module}"], name)(*args, **kwargs)


def derived_seed(seed: int, index: int, *salt: int) -> int:
    """Integer seed for a library call that draws its own noise."""
    return int(np.random.SeedSequence([seed, index, *salt]).generate_state(1)[0])


def _array_bytes(*arrays) -> bytes:
    return b"".join(np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays)


def _check(name, ok, detail):
    return (name, bool(ok), detail)


def _completeness(x: np.ndarray, components, dc: float = 0.0) -> float:
    recon = np.sum(components, axis=0) + dc
    scale = float(np.max(np.abs(x))) or 1.0
    return float(np.max(np.abs(recon - x))) / scale


# ---------------------------------------------------------------------------
# White-noise confidence bands


def band_artifacts(band) -> dict[str, bytes]:
    return {"band": _array_bytes(band.period_grid, band.lower_5th, band.upper_95th)}


def check_band(band):
    grid, lo, hi = band.period_grid, band.lower_5th, band.upper_95th
    ok = (grid.size > 0 and lo.shape == grid.shape and hi.shape == grid.shape
          and bool(np.all(np.isfinite(grid)) and np.all(np.isfinite(lo))
                   and np.all(np.isfinite(hi)) and np.all(lo <= hi)))
    return [_check("band grid finite, non-empty, lower <= upper", ok, f"{grid.size} bins")]


def noise_band(seed: int, index: int, workdir: Path) -> list[Op]:
    """white_noise_band with plain EMD, then with ROIMF."""
    ops = []
    for salt, variant in enumerate((Variant.EMD, Variant.ROIMF)):
        run = partial(library_call, "significance", "white_noise_band",
                      NOISE_BAND_LENGTH, variant,
                      trials=NOISE_BAND_TRIALS, seed=derived_seed(seed, index, salt))
        ops.append(Op(f"band-{variant.value.lower()}", run, band_artifacts, check_band))
    return ops


# ---------------------------------------------------------------------------
# Multivariate


def multivariate_artifacts(md) -> dict[str, bytes]:
    stack = np.array([[c.samples for c in m.channels] for m in md.imfs + (md.residue,)])
    return {"components": _array_bytes(stack), "meta": f"shape={stack.shape}".encode()}


def check_multivariate(x, energy_preserving: bool, md):
    checks = []
    for j, ch in enumerate(x.channels):
        imfs = tuple(m.channels[j] for m in md.imfs)
        residue = md.residue.channels[j]
        err = _completeness(ch.samples, [c.samples for c in imfs + (residue,)])
        checks.append(_check(f"ch{j + 1} completeness", err <= COMPLETENESS_TOL, f"{err:.3e}"))
        resid = pee_identity_check(ortho_report(ch, Decomposition(imfs, residue, Variant.EMD)))
        checks.append(_check(f"ch{j + 1} pee identity", resid <= PEE_TOL, f"{resid:.3e}"))
        if energy_preserving:
            checks.append(_check(f"ch{j + 1} linoep chain",
                                 verify_linoep(imfs + (residue,)), ""))
    return checks


def memd_multitone(seed: int, index: int, workdir: Path) -> list[Op]:
    """memd and epmemd of the 4-channel multitone benchmark signal."""
    spec = SignalSpec(SignalKind.MULTITONE4, sample_rate=256.0, duration=4.0,
                      seed=derived_seed(seed, index))
    x = generate_multitone4(spec)
    return [
        Op(name, partial(library_call, module, name, x, MEMD_DIRECTIONS, MEMD_SIFT),
           multivariate_artifacts, partial(check_multivariate, x, name == "epmemd"))
        for module, name in (("memd", "memd"), ("epemd", "epmemd"))
    ]


# ---------------------------------------------------------------------------
# Command line


@dataclass
class CliResult:
    code: int
    stdout: str
    stderr: str
    out_dir: Path | None = None


def _call_cli(argv, out_dir=None) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = library_call("cli", "main", argv)
    return CliResult(code, out.getvalue(), err.getvalue(), out_dir)


def decompose_artifacts(res: CliResult) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(res.out_dir.iterdir()) if p.is_file()}


def check_decompose(expected: tuple[str, ...], res: CliResult):
    checks = [_check("decompose exit 0", res.code == 0, res.stderr.strip())]
    present = {p.name for p in res.out_dir.iterdir()} if res.code == 0 else set()
    missing = sorted(set(expected) - present)
    checks.append(_check("artifacts present", not missing, ",".join(missing)))
    if "report.json" not in present:
        return checks
    rep = json.loads((res.out_dir / "report.json").read_text())
    variant, err = rep["variant"], rep["reconstruction_error"]
    if variant == "EEMD":
        checks.append(_check("completeness (reported)", True, f"{err:.3e}"))
    else:
        checks.append(_check("completeness", err <= COMPLETENESS_TOL, f"{err:.3e}"))
    resid = abs(rep["pee"] - 100.0 * rep["io_total"])
    checks.append(_check("pee identity", resid <= PEE_TOL, f"{resid:.3e}"))
    if variant in ("ROIMF", "ROUIMF"):
        worst = float(np.max(np.abs(rep["io_pairs"])))
        checks.append(_check("pairwise |IO_jk|", worst <= PAIRWISE_TOL, f"{worst:.3e}"))
    if variant == "EPEMD":
        lines = [ln for ln in (res.out_dir / "imfs.csv").read_text().splitlines()
                 if not ln.startswith("#")]
        table = np.loadtxt(lines[1:], delimiter=",", ndmin=2)
        comps = [SampledSignal(table[:, j], 1.0) for j in range(1, table.shape[1])]
        checks.append(_check("linoep chain", verify_linoep(comps), ""))
    return checks


def verify_artifacts(res: CliResult) -> dict[str, bytes]:
    return {"stdout": f"exit={res.code}\n{res.stdout}".encode()}


def check_verify(res: CliResult):
    failed = [line for line in res.stdout.splitlines() if not line.startswith("PASS")]
    return [_check("verify exit 0", res.code == 0 and not failed,
                   "; ".join(failed) or res.stderr.strip())]


#: (label, decompose arguments); "{csv}" is the benchmark-written input.
CLI_CASES = (
    ("csv-emd-roimf", ["--input", "{csv}", "--algo", "emd", "--post", "roimf",
                       "--out", "imfs,report,spectrum,marginal"]),
    ("chirp-epemd", ["--gen", "chirp-vd", "--algo", "epemd",
                     "--out", "imfs,report,spectrum,marginal"]),
    ("am-eemd", ["--gen", "am", "--algo", "eemd", "--ensemble-size", "10",
                 "--out", "imfs,report"]),
    ("bs-emd-rouimf", ["--gen", "bs", "--algo", "emd", "--post", "rouimf",
                       "--out", "imfs,report,marginal"]),
)


def write_signal_csv(path: Path, samples: np.ndarray, rate: float) -> None:
    t = np.arange(samples.size) / rate
    rows = "\n".join(f"{a!r},{b!r}" for a, b in zip(t.tolist(), samples.tolist()))
    path.write_text("time,ch1\n" + rows + "\n")


def cli_roundtrip(seed: int, index: int, workdir: Path) -> list[Op]:
    """In-process ``emdkit decompose`` then ``emdkit verify`` per case."""
    base = workdir / "cli"
    base.mkdir(parents=True, exist_ok=True)
    csv = base / "input.csv"
    rng = np.random.default_rng([seed, index])
    write_signal_csv(csv, rng.standard_normal(CLI_CSV_ROWS), CLI_CSV_RATE)
    cli_seed = str(derived_seed(seed, index))
    ops = []
    for label, args in CLI_CASES:
        out_dir = base / label
        argv = ["decompose", *[a.format(csv=csv) for a in args],
                "--output-dir", str(out_dir), "--seed", cli_seed]
        outs = args[args.index("--out") + 1].split(",")
        expected = ("input.csv", *(f"{o}.json" if o == "report" else f"{o}.csv" for o in outs))
        ops.append(Op(f"decompose-{label}", partial(_call_cli, argv, out_dir),
                      decompose_artifacts, partial(check_decompose, expected),
                      writes_files=True))
        ops.append(Op(f"verify-{label}", partial(_call_cli, ["verify", str(out_dir)]),
                      verify_artifacts, check_verify))
    return ops


WORKLOADS = {
    "noise-band": noise_band,
    "memd-multitone": memd_multitone,
    "cli-roundtrip": cli_roundtrip,
}
