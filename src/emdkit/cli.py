"""Command-line front end: CSV ingestion, decomposition pipelines and
artifact emission, plus an artifact re-verification subcommand.

CSV convention: first column is time in seconds, remaining columns are
channel values; ``#`` starts a comment line; the sample rate is inferred
from the time column and must be uniform within 1e-9 relative jitter.
All floats are emitted with 17 significant digits so that reruns with a
fixed seed are byte-identical.

Exit codes: 0 ok, 1 validation/config/parse error, 2 numerical failure
(rank deficiency), 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .core import (
    Decomposition,
    EmdkitError,
    RankDeficiencyError,
    SampledSignal,
    Variant,
)
from .emd import EemdConfig, SiftConfig, eemd, emd
from .epemd import epemd, epmemd, verify_linoep
from .gsom import orthogonal_variants
from .hsa import hilbert_spectrum
from .memd import MultivariateSignal, memd
from .metrics import ortho_report
from .siggen import (
    CHIRP_TF_PRESET,
    SignalKind,
    SignalSpec,
    generate,
    generate_multitone4,
    sweep_io_t,
)
from .significance import significance_test, white_noise_band

SCHEMA_VERSION = 1

#: Printf format giving 17 significant digits (full float64 round trip).
F = "%.17g"


class CliError(Exception):
    """Validation, parse or configuration error (exit code 1)."""


def _fmt(x: float) -> str:
    return F % float(x)


# ---------------------------------------------------------------------------
# CSV ingestion


def read_signal_csv(path: Path) -> MultivariateSignal:
    """Parse a time-plus-channels CSV into a multivariate signal."""
    try:
        text = path.read_text()
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc

    rows: list[list[float]] = []
    width = None
    first_data_line = True
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(",")
        if width is None:
            width = len(fields)
            if width < 2:
                raise CliError(f"{path}:{lineno}: need a time column and at "
                               "least one value column")
        elif len(fields) != width:
            raise CliError(f"{path}:{lineno}: expected {width} fields, got "
                           f"{len(fields)}")
        try:
            parsed = [float(f) for f in fields]
        except ValueError as exc:
            if first_data_line:
                # A single leading non-numeric row is a column header.
                first_data_line = False
                continue
            raise CliError(f"{path}:{lineno}: {exc}") from exc
        first_data_line = False
        rows.append(parsed)
    if len(rows) < 2:
        raise CliError(f"{path}: fewer than 2 data rows")

    data = np.array(rows)
    if not np.all(np.isfinite(data)):
        raise CliError(f"{path}: input contains NaN or Inf")
    t = data[:, 0]
    steps = np.diff(t)
    if np.any(steps <= 0):
        raise CliError(f"{path}: time column must be strictly increasing")
    dt = float(np.mean(steps))
    if float(np.max(np.abs(steps - dt))) > 1e-9 * dt:
        raise CliError(f"{path}: time column is not uniform within 1e-9 "
                       "relative jitter")
    channels = tuple(
        SampledSignal(data[:, j], 1.0 / dt, t0=float(t[0]))
        for j in range(1, data.shape[1])
    )
    return MultivariateSignal(channels)


# ---------------------------------------------------------------------------
# Generators

GEN_PRESETS = tuple(k.value for k in SignalKind) + ("chirp-vd",)


def generate_preset(name: str, seed: int) -> MultivariateSignal:
    if name == "chirp-vd":
        return MultivariateSignal((generate(CHIRP_TF_PRESET),))
    try:
        kind = SignalKind(name)
    except ValueError:
        raise CliError(f"unknown generator {name!r}; choose from "
                       f"{', '.join(GEN_PRESETS)}") from None
    if kind is SignalKind.MULTITONE4:
        return generate_multitone4(SignalSpec(kind, sample_rate=256.0,
                                              duration=4.0, seed=seed))
    return MultivariateSignal((generate(SignalSpec(kind, seed=seed)),))


# ---------------------------------------------------------------------------
# Pipeline

POST_VARIANTS = {
    "oimf": Variant.OIMF,
    "foimf": Variant.FOIMF,
    "roimf": Variant.ROIMF,
    "fouimf": Variant.FOUIMF,
    "rouimf": Variant.ROUIMF,
}

GRAM_SCHMIDT_VARIANTS = frozenset(POST_VARIANTS.values())
MULTIVARIATE_ALGOS = ("memd", "epmemd")

OUTPUTS = ("imfs", "report", "spectrum", "marginal", "significance", "sweep")


def _decompose(signal: MultivariateSignal, algo: str, post: str | None, K: int,
               scfg: SiftConfig, ecfg: EemdConfig) -> tuple[Decomposition, ...]:
    """One decomposition per channel; a univariate algorithm gives one."""
    x = signal.channels[0]
    if algo == "memd":
        channels = memd(signal, K, scfg).channels
    elif algo == "epmemd":
        channels = epmemd(signal, K, scfg).channels
    elif algo == "emd":
        channels = (emd(x, scfg),)
    elif algo == "eemd":
        channels = (eemd(x, scfg, ecfg),)
    else:
        channels = (epemd(x, scfg),)
    if post is not None:
        channels = tuple(orthogonal_variants(d, POST_VARIANTS[post]) for d in channels)
    return channels


def _report_dict(x: SampledSignal, d: Decomposition) -> dict:
    rep = ortho_report(x, d)
    return {
        "variant": d.variant.value,
        "pee": rep.pee,
        "io_total": rep.io_total,
        "component_labels": list(rep.component_labels),
        "component_energies": [float(e) for e in np.diag(rep.leakage_matrix)],
        "io_pairs": [[float(v) for v in row] for row in rep.io_pairs],
        "signal_energy": rep.signal_energy,
        "reference_energy": rep.reference_energy,
        "total_component_energy": rep.total_component_energy,
        "reconstruction_error": rep.reconstruction_error,
        "dc_constant": d.dc_constant,
    }


def _csv_signal(x: MultivariateSignal, labels: list[str],
                meta: dict | None = None) -> str:
    lines = []
    for key, value in (meta or {}).items():
        lines.append(f"# {key}={value}")
    lines.append(",".join(["time"] + labels))
    cols = [x.channels[0].times] + [ch.samples for ch in x.channels]
    for row in zip(*cols):
        lines.append(",".join(_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def _component_table(channels: tuple[Decomposition, ...], multivariate: bool):
    """Components (then residue) as columns, channel-minor, with labels
    and the variant/dc-constant metadata."""
    variant = channels[0].variant.value
    comps = [c for parts in zip(*(d.components for d in channels)) for c in parts]
    names = [f"{'imf' if multivariate else variant.lower()}{i}"
             for i in range(1, len(channels[0].imfs) + 1)] + ["residue"]
    meta = {"variant": variant,
            "dc_constant": " ".join(_fmt(d.dc_constant) for d in channels)}
    if multivariate:
        names = [f"{name}_ch{j}" for name in names for j in range(1, len(channels) + 1)]
        meta["channels"] = len(channels)
    return MultivariateSignal(tuple(comps)), names, meta


def run_decompose(args) -> int:
    if (args.input is None) == (args.gen is None):
        raise CliError("exactly one of --input and --gen is required")
    outputs = []
    for item in args.out:
        outputs.extend(o for o in item.split(",") if o)
    for o in outputs:
        if o not in OUTPUTS:
            raise CliError(f"unknown output {o!r}; choose from {', '.join(OUTPUTS)}")
    if not outputs:
        outputs = ["imfs", "report"]

    seed = args.seed
    if seed is None:
        seed = int(os.environ.get("EMDKIT_SEED", "0"))
    scfg = SiftConfig(sd_threshold=args.sd_threshold,
                      max_sift_iterations=args.max_sift_iterations,
                      max_imfs=args.max_imfs)
    ecfg = EemdConfig(noise_stddev_ratio=args.noise_ratio,
                      ensemble_size=args.ensemble_size, rng_seed=seed)

    if args.input is not None:
        signal = read_signal_csv(Path(args.input))
    else:
        signal = generate_preset(args.gen, seed)

    multivariate = args.algo in MULTIVARIATE_ALGOS
    if not multivariate and signal.n_channels != 1:
        raise CliError(f"--algo {args.algo} is univariate but the input has "
                       f"{signal.n_channels} channels (use memd/epmemd)")
    if args.post is not None and args.algo in ("epemd", "epmemd"):
        raise CliError("--post applies to emd/eemd/memd output, not the "
                       "energy-preserving algorithms")
    bad = set(outputs) - {"imfs", "report"}
    if multivariate and bad:
        raise CliError(f"outputs {sorted(bad)} require a univariate algorithm")

    artifacts: dict[str, str] = {}
    in_labels = [f"ch{j + 1}" for j in range(signal.n_channels)]
    artifacts["input.csv"] = _csv_signal(signal, in_labels)

    channels = _decompose(signal, args.algo, args.post, args.directions, scfg, ecfg)
    if "imfs" in outputs:
        artifacts["imfs.csv"] = _csv_signal(*_component_table(channels, multivariate))
    if "report" in outputs:
        reports = [_report_dict(x, d) for x, d in zip(signal.channels, channels)]
        payload = {"schema_version": SCHEMA_VERSION, "seed": seed}
        if multivariate:
            payload["channels"] = reports
        else:
            payload.update(reports[0])
        artifacts["report.json"] = json.dumps(payload, indent=2) + "\n"

    x, d = signal.channels[0], channels[0]
    if "spectrum" in outputs or "marginal" in outputs:
        if not d.imfs:
            raise CliError("spectrum output needs at least one IMF")
        h = hilbert_spectrum(d, n_freq_bins=args.freq_bins,
                             n_time_bins=args.time_bins)
        if "spectrum" in outputs:
            lines = ["freq_bin,time_bin,energy"]
            for fi, f_val in enumerate(h.freq_bins):
                for ti, t_val in enumerate(h.time_bins):
                    e = h.energy[fi, ti]
                    if e != 0.0:
                        lines.append(",".join(
                            (_fmt(f_val), _fmt(t_val), _fmt(e))))
            artifacts["spectrum.csv"] = "\n".join(lines) + "\n"
        if "marginal" in outputs:
            lines = ["freq,energy"]
            for f_val, e in zip(h.freq_bins, h.marginal):
                lines.append(",".join((_fmt(f_val), _fmt(e))))
            artifacts["marginal.csv"] = "\n".join(lines) + "\n"
    if "significance" in outputs:
        band_variant = d.variant
        if band_variant in (Variant.EEMD, Variant.OIMF, Variant.FOUIMF):
            band_variant = Variant.EMD
        band = white_noise_band(x.n, band_variant, trials=100, seed=seed,
                                sample_rate=x.sample_rate, cfg=scfg)
        pts = significance_test(d, band)
        lines = ["component,mean_period,energy_density,inside"]
        for i, p in enumerate(pts, start=1):
            inside = "" if p.inside_bounds is None else str(p.inside_bounds).lower()
            lines.append(",".join((f"imf{i}", _fmt(p.mean_period),
                                   _fmt(p.energy_density), inside)))
        artifacts["significance.csv"] = "\n".join(lines) + "\n"

    if "sweep" in outputs:
        fs_list = list(range(args.fs_start, args.fs_stop + 1, args.fs_step))
        rows = sweep_io_t(fs_list, scfg)
        lines = ["fs,io_t_emd,io_t_epemd"]
        for fs, a, b in rows:
            lines.append(",".join((_fmt(fs), _fmt(a), _fmt(b))))
        artifacts["sweep.csv"] = "\n".join(lines) + "\n"

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for name, text in artifacts.items():
        (out_dir / name).write_text(text)
    print(f"wrote {', '.join(sorted(artifacts))} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _read_meta(path: Path) -> dict[str, str]:
    """``# key=value`` comment lines of an emitted CSV."""
    lines = path.read_text().splitlines()
    return {k.strip(): v.strip() for k, _, v in
            (ln.lstrip("#").partition("=") for ln in lines if ln.startswith("#"))}


def _channel_checks(x: SampledSignal, d: Decomposition, rep: dict):
    """(name, ok, detail) for every contract ``d.variant`` promises."""
    r = ortho_report(x, d)
    err = r.reconstruction_error
    if d.variant is Variant.EEMD:
        yield ("completeness (diagnostic)", True,
               f"relative error {err:.3e} (approximate by design)")
    else:
        yield "completeness", err <= 1e-9, f"relative error {err:.3e}"
    if d.variant in GRAM_SCHMIDT_VARIANTS:
        m = len(d.imfs) + (d.variant is not Variant.OIMF)  # OIMF leaves the residue
        worst = float(np.max(np.abs(r.io_pairs[:m, :m]), initial=0.0))
        yield "pairwise orthogonality", worst <= 1e-6, f"max |IO_jk| {worst:.3e}"
    if d.variant in (Variant.EPEMD, Variant.EPMEMD):
        comps = d.components
        yield ("chain orthogonality", len(comps) < 2 or verify_linoep(comps),
               f"{len(comps)} components")
    if "pee" in rep:
        resid = abs(rep["pee"] - 100.0 * rep["io_total"])
        yield "energy-error identity", resid <= 1e-9, f"|Pee - 100*IO_T| = {resid:.3e}"


def run_verify(args) -> int:
    art = Path(args.artifact_dir)
    imfs_path = art / "imfs.csv"
    input_path = art / "input.csv"
    for p in (imfs_path, input_path):
        if not p.exists():
            raise CliError(f"missing artifact {p}")
    meta = _read_meta(imfs_path)
    table = read_signal_csv(imfs_path).as_array()
    signal = read_signal_csv(input_path)
    variant = Variant(meta.get("variant", "EMD"))
    dcs = [float(v) for v in meta.get("dc_constant", "0").split()]
    report_path = art / "report.json"
    rep = json.loads(report_path.read_text()) if report_path.exists() else {}
    n_ch = signal.n_channels
    reps = rep.get("channels", [rep] * n_ch)
    if len(dcs) != n_ch or len(reps) != n_ch or table.shape[1] % n_ch:
        raise CliError(f"{art}: artifacts do not match the {n_ch} input channel(s)")

    checks: dict[str, list[tuple[bool, str]]] = {}
    for j, x in enumerate(signal.channels):
        comps = [x.with_samples(c) for c in table[:, j::n_ch].T]
        d = Decomposition(comps[:-1], comps[-1], variant, dcs[j])
        for name, ok, detail in _channel_checks(x, d, reps[j]):
            checks.setdefault(name, []).append(
                (ok, detail if n_ch == 1 else f"ch{j + 1} {detail}"))

    failed = False
    for name, results in checks.items():
        ok = all(r[0] for r in results)
        failed = failed or not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {'; '.join(r[1] for r in results)}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# Entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="emdkit")
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose a signal and emit artifacts")
    dec.add_argument("--input", help="input CSV (time column + channels)")
    dec.add_argument("--gen", help=f"generator preset: {', '.join(GEN_PRESETS)}")
    dec.add_argument("--algo", default="emd",
                     choices=["emd", "eemd", "memd", "epemd", "epmemd"])
    dec.add_argument("--post", choices=sorted(POST_VARIANTS))
    dec.add_argument("--out", action="append", default=[],
                     help="comma-separated outputs: " + ", ".join(OUTPUTS))
    dec.add_argument("--output-dir", default="emdkit-out")
    dec.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: EMDKIT_SEED env var, then 0)")
    dec.add_argument("--sd-threshold", type=float, default=0.2)
    dec.add_argument("--max-sift-iterations", type=int, default=100)
    dec.add_argument("--max-imfs", type=int, default=0)
    dec.add_argument("--noise-ratio", type=float, default=0.2)
    dec.add_argument("--ensemble-size", type=int, default=100)
    dec.add_argument("--directions", type=int, default=64,
                     help="MEMD projection direction count")
    dec.add_argument("--freq-bins", type=int, default=256)
    dec.add_argument("--time-bins", type=int, default=None)
    dec.add_argument("--fs-start", type=int, default=105)
    dec.add_argument("--fs-stop", type=int, default=400)
    dec.add_argument("--fs-step", type=int, default=5)
    dec.set_defaults(func=run_decompose)

    ver = sub.add_parser("verify", help="re-check artifacts emitted by decompose")
    ver.add_argument("artifact_dir")
    ver.set_defaults(func=run_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ZeroDivisionError, EmdkitError) as exc:
        if isinstance(exc, RankDeficiencyError):
            print(f"numerical error: {exc}", file=sys.stderr)
            return 2
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
