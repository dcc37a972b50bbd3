"""Command-line front end: CSV ingestion, decomposition pipelines and
artifact emission, plus an artifact re-verification subcommand.

CSV convention: first column is time in seconds, remaining columns are
channel values; ``#`` starts a comment line; the sample rate is inferred
from the time column and must be uniform within 1e-9 relative jitter.
All floats are emitted with 17 significant digits so that reruns with a
fixed seed are byte-identical.

Exit codes: 0 ok, 1 validation/config/parse error (a malformed flag
included), 2 numerical failure (rank deficiency), 3 I/O error. A failure
prints one line to stderr; a parse, validation or numerical one creates
no output directory.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
import warnings
from array import array
from functools import partial
from itertools import islice, takewhile
from pathlib import Path

import numpy as np

from . import _fork
from .core import (
    Decomposition,
    EmdkitError,
    RankDeficiencyError,
    SampledSignal,
    Variant,
)
from .emd import EemdConfig, SiftConfig, eemd, emd
from .epemd import epemd, epmemd
from .gsom import GRAM_SCHMIDT_VARIANTS, orthogonal_variants
from .hsa import hilbert_spectrum
from .memd import MultivariateSignal, memd
from .metrics import ortho_report, verdicts
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

#: Rows of an artifact converted to Python scalars at a time. One block of
#: a 14-column table peaks at 1.0 MiB of floats, row strings and text, and
#: at 4.0 MiB with 4,096 rows, where it set the benchmark's cli-roundtrip
#: peak RSS (median 73.0 MB, against 71.0 MB with 1,024 rows, where
#: ``hilbert_spectrum`` sets it). The wall time held: 0.42 s with 4,096
#: rows, 0.41 s with 1,024, on a 2-core machine.
BLOCK = 1024


class CliError(Exception):
    """Validation, parse or configuration error (exit code 1)."""


# ---------------------------------------------------------------------------
# CSV ingestion


#: Values (rows times columns) of CSV text per process: a table or file of
#: k times as many is formatted or parsed by up to k processes, one per CPU.
#: Measured with ``benchmarks/cli_fork_sweep.py``; see the README.
_FORK_SHARE_VALUES = 2**16


def _open(path: Path):
    try:
        return path.open(encoding="utf-8-sig")  # a leading byte-order mark is no data
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc


def _read_lines(path: Path) -> np.ndarray:
    """The data rows of a CSV, parsed line by line (``\\n``, ``\\r\\n`` or
    ``\\r`` ends a line) into one flat float64 buffer. Blank and ``#``
    lines are skipped anywhere, and a bad row is reported with its line
    number."""
    values = array("d")
    width = None
    first_data_line = True
    with _open(path) as lines:
        for lineno, raw in enumerate(lines, start=1):
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
                parsed = list(map(float, fields))
            except ValueError as exc:
                if first_data_line:
                    # A single leading non-numeric row is a column header.
                    first_data_line = False
                    continue
                raise CliError(f"{path}:{lineno}: {exc}") from exc
            first_data_line = False
            values.extend(parsed)
    if width is None or len(values) < 2 * width:
        raise CliError(f"{path}: fewer than 2 data rows")
    return np.frombuffer(values).reshape(-1, width)


def _head(lines):
    """Count a plain CSV's leading blank and ``#`` lines and its optional
    header: (the lines before the data rows, the first other line's field
    count and length), or None where that line is not at least two fields."""
    for skip, raw in enumerate(lines):
        line = raw.strip()
        if line and not line.startswith("#"):
            break
    else:
        return None
    fields = line.split(",")
    if len(fields) < 2:
        return None
    try:
        list(map(float, fields))
    except ValueError:  # a header, classified as the line reader does
        skip += 1
    return skip, len(fields), len(raw)


def _read_span(path: Path, width: int, skip: int, span: tuple[int, int | None]) -> np.ndarray:
    """The data rows of bytes ``start`` to ``end`` of a CSV (None: the end
    of the file), which start at a line, parsed by numpy's C reader; the
    first span's ``skip`` leading lines are the ones ``_head`` counted.
    ``ValueError`` for any line it rejects and for rows of another width."""
    start, end = span
    with path.open("rb") as file:
        file.seek(start)
        with (io.TextIOWrapper(file if end is None else io.BytesIO(file.read(end - start)),
                               encoding="utf-8-sig" if start == 0 else "utf-8") as lines,
              warnings.catch_warnings()):  # a header-only file holds no data
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2,
                               skiprows=0 if start else skip)
    if table.shape[1] != width:
        raise ValueError(f"rows of {table.shape[1]} values, not {width}")
    return table


def _spans(path: Path, size: int, workers: int) -> list[tuple[int, int | None]] | None:
    """``_read_span`` spans of a file of ``size`` bytes, cut just after a
    ``\\n`` at or past each ``1/workers`` of it; None where a cut finds no
    line end within 64 KiB or leaves the last span empty."""
    cuts = [0]
    with path.open("rb") as file:
        for w in range(1, workers):
            file.seek(max(size * w // workers, cuts[-1]))
            if not file.readline(2**16).endswith(b"\n") or file.tell() >= size:
                return None
            cuts.append(file.tell())
    return list(zip(cuts, cuts[1:] + [None]))


def _load_plain(path: Path) -> np.ndarray | None:
    """The data rows of a plain CSV, parsed by numpy's C reader: leading
    blank and ``#`` lines, an optional header, then at least two rows of
    one width and nothing else. None for any other file, which the line
    reader then reads, so the two agree on every value and error.

    A file of more values than ``_FORK_SHARE_VALUES`` (estimated from its
    size and first data line) is cut at line ends into one span per
    process, parsed through ``_fork.ordered``, and the spans' rows are
    joined in order, the values of one parse."""
    try:
        with _open(path) as lines:
            head = _head(lines)
        if head is None:
            return None
        skip, width, length = head
        size = path.stat().st_size
        workers = _fork.worker_count(0, size * width // (length * _FORK_SHARE_VALUES))
        spans = _spans(path, size, workers) or [(0, None)]
        with _fork.ordered(partial(_read_span, path, width, skip), spans, len(spans)) as tables:
            table, *rest = tables
            if rest:
                table = np.concatenate([table, *rest])
    except ValueError:
        return None
    return table if len(table) >= 2 else None


def _read_table(path: Path) -> np.ndarray:
    """The data rows of a CSV. numpy's C reader parses a plain file; any
    other (a mid-file comment or whitespace-only line, a value only
    ``float()`` accepts, a malformed row) is read again by the line
    reader, the only path that reports errors."""
    table = _load_plain(path)
    return _read_lines(path) if table is None else table


def read_signal_csv(path: Path) -> MultivariateSignal:
    """Parse a time-plus-channels CSV into a multivariate signal."""
    data = _read_table(path)
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

POST_VARIANTS = {v.value.lower(): v for v in GRAM_SCHMIDT_VARIANTS}

#: ``--algo`` name -> (signal, directions, SiftConfig, EemdConfig) -> one
#: decomposition per channel. Each entry looks its function up by name when
#: called, so a replaced module attribute (a tracer, a memo) is the one used.
ALGORITHMS = {
    "emd": lambda s, K, scfg, ecfg: (emd(s.channels[0], scfg),),
    "eemd": lambda s, K, scfg, ecfg: (eemd(s.channels[0], scfg, ecfg),),
    "memd": lambda s, K, scfg, ecfg: memd(s, K, scfg).channels,
    "epemd": lambda s, K, scfg, ecfg: (epemd(s.channels[0], scfg),),
    "epmemd": lambda s, K, scfg, ecfg: epmemd(s, K, scfg).channels,
}
MULTIVARIATE_ALGOS = ("memd", "epmemd")
#: The energy-preserving algorithms, which take no ``--post``.
ENERGY_PRESERVING_ALGOS = ("epemd", "epmemd")

OUTPUTS = ("imfs", "report", "spectrum", "marginal", "significance", "sweep")


def _energy(e) -> float | None:
    """An absolute energy for JSON: null once it overflows to inf."""
    return float(e) if np.isfinite(e) else None


def _report_dict(x: SampledSignal, d: Decomposition) -> dict:
    rep = ortho_report(x, d)
    return {
        "variant": d.variant.value,
        "pee": rep.pee,
        "io_total": rep.io_total,
        "component_labels": list(rep.component_labels),
        "component_energies": [_energy(e) for e in np.diag(rep.leakage_matrix)],
        "io_pairs": [[float(v) for v in row] for row in rep.io_pairs],
        "signal_energy": _energy(rep.signal_energy),
        "reference_energy": _energy(rep.reference_energy),
        "total_component_energy": _energy(rep.total_component_energy),
        "reconstruction_error": rep.reconstruction_error,
        "dc_constant": d.dc_constant,
    }


class _Table:
    """A CSV artifact: ``head``, the ``# key=value`` lines and the header,
    then ``chunks`` blocks of at most ``BLOCK`` rows. Each row is formatted
    with one format built from the first row, ``F`` for a number and ``%s``
    for a string. ``columns`` are equal-length arrays (object arrays for
    strings) or sequences; the first ``len(labels)`` index ``labels``."""

    def __init__(self, header: str, columns, meta: dict | None = None, labels=()):
        meta_lines = "".join(f"# {key}={value}\n" for key, value in (meta or {}).items())
        self.head = meta_lines + header + "\n"
        self.columns, self.labels = columns, labels
        rows = len(columns[0]) if columns else 0
        self.chunks = -(-rows // BLOCK)
        self.values = rows * len(columns)
        self._fmt = (",".join("%s" if j < len(labels) or isinstance(c[0], str) else F
                              for j, c in enumerate(columns)) + "\n" if rows else "")

    def chunk(self, k: int) -> str:
        """Rows ``k * BLOCK`` up to ``(k + 1) * BLOCK``, as one string."""
        block = [c[k * BLOCK:(k + 1) * BLOCK] for c in self.columns]
        block[:len(self.labels)] = map(np.take, self.labels, block)
        return "".join(map(self._fmt.__mod__, zip(*(
            b.tolist() if isinstance(b, np.ndarray) else b for b in block))))


def _write(out_dir: Path, artifacts: dict[str, _Table | str]) -> None:
    """Write each artifact to ``out_dir``. Every table's chunks, in artifact
    order, go through ``_fork.ordered``, one process per CPU while the tables
    hold ``_FORK_SHARE_VALUES`` values per process; the caller writes every
    chunk in row order, as it is formatted or arrives."""
    tables = [a for a in artifacts.values() if isinstance(a, _Table)]
    workers = _fork.worker_count(0, min(
        max((t.chunks for t in tables), default=1),
        sum(t.values for t in tables) // _FORK_SHARE_VALUES))
    chunks = [(table, k) for table in tables for k in range(table.chunks)]
    with _fork.ordered(lambda chunk: _Table.chunk(*chunk), chunks, workers) as texts:
        for name, artifact in artifacts.items():
            with (out_dir / name).open("w") as file:
                if isinstance(artifact, str):
                    file.write(artifact)
                    continue
                file.write(artifact.head)
                file.writelines(islice(texts, artifact.chunks))


def _component_table(channels: tuple[Decomposition, ...], multivariate: bool):
    """``_Table`` arguments: time, then the components (then residue) as
    columns, channel-minor, and the variant/dc-constant metadata."""
    variant = channels[0].variant.value
    comps = [c for parts in zip(*(d.components for d in channels)) for c in parts]
    names = [f"{'imf' if multivariate else variant.lower()}{i}"
             for i in range(1, len(channels[0].imfs) + 1)] + ["residue"]
    meta = {"variant": variant,
            "dc_constant": " ".join(F % d.dc_constant for d in channels)}
    if multivariate:
        names = [f"{name}_ch{j}" for name in names for j in range(1, len(channels) + 1)]
        meta["channels"] = len(channels)
    return ",".join(["time", *names]), [comps[0].times, *(c.samples for c in comps)], meta


def run_decompose(args) -> int:
    if (args.input is None) == (args.gen is None):
        raise CliError("exactly one of --input and --gen is required")
    source, seed = "--seed", args.seed  # resolved once, before any work
    if seed is None:
        source, seed = "EMDKIT_SEED", os.environ.get("EMDKIT_SEED", "0").strip()
    if not str(seed).isdecimal():
        raise CliError(f"{source} must be a non-negative integer, got {seed!r}")
    seed = int(seed)
    outputs = []
    for item in args.out:
        outputs.extend(o for o in item.split(",") if o)
    for o in outputs:
        if o not in OUTPUTS:
            raise CliError(f"unknown output {o!r}; choose from {', '.join(OUTPUTS)}")
    if not outputs:
        outputs = ["imfs", "report"]
    if "sweep" in outputs and args.fs_step < 1:
        raise CliError(f"--fs-step must be >= 1, got {args.fs_step}")
    if "sweep" in outputs and args.fs_start > args.fs_stop:
        raise CliError(f"--fs-start {args.fs_start} is above --fs-stop {args.fs_stop}")
    if args.algo in MULTIVARIATE_ALGOS and args.directions < 1:
        raise CliError(f"--directions must be >= 1, got {args.directions}")

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
    if args.post is not None and args.algo in ENERGY_PRESERVING_ALGOS:
        raise CliError("--post applies to emd/eemd/memd output, not the "
                       "energy-preserving algorithms")
    bad = set(outputs) - {"imfs", "report"}
    if multivariate and bad:
        raise CliError(f"outputs {sorted(bad)} require a univariate algorithm")
    n = signal.channels[0].n  # the spectrum's grid is bounded by its input
    for flag, bins, top in (("--freq-bins", args.freq_bins, max(256, n)),
                            ("--time-bins", args.time_bins, n)):
        if bins is not None and not 1 <= bins <= top:
            raise CliError(f"{flag} must be between 1 and {top} for {n} samples, got {bins}")

    # name -> text; every input is computed and checked before a file is made
    artifacts: dict[str, _Table | str] = {}
    artifacts["input.csv"] = _Table(
        ",".join(["time"] + [f"ch{j + 1}" for j in range(signal.n_channels)]),
        [signal.channels[0].times, *(ch.samples for ch in signal.channels)])

    channels = ALGORITHMS[args.algo](signal, args.directions, scfg, ecfg)
    if args.post is not None:
        channels = tuple(orthogonal_variants(d, POST_VARIANTS[args.post]) for d in channels)
    if "imfs" in outputs:
        artifacts["imfs.csv"] = _Table(*_component_table(channels, multivariate))
    if "report" in outputs:
        reports = [_report_dict(x, d) for x, d in zip(signal.channels, channels)]
        payload = {"schema_version": SCHEMA_VERSION, "seed": seed}
        if multivariate:
            payload["channels"] = reports
        else:
            payload.update(reports[0])
        artifacts["report.json"] = json.dumps(payload, indent=2, allow_nan=False) + "\n"

    x, d = signal.channels[0], channels[0]
    if "spectrum" in outputs or "marginal" in outputs:
        if not d.imfs:
            raise CliError("spectrum output needs at least one IMF")
        h = hilbert_spectrum(d, n_freq_bins=args.freq_bins,
                             n_time_bins=args.time_bins)
        if "spectrum" in outputs:  # non-zero cells, frequency-major; bin labels formatted once
            labels = [np.array([F % v for v in b.tolist()], dtype=object)
                      for b in (h.freq_bins, h.time_bins)]
            artifacts["spectrum.csv"] = _Table("freq_bin,time_bin,energy", h.cells, labels=labels)
        if "marginal" in outputs:
            artifacts["marginal.csv"] = _Table("freq,energy", [h.freq_bins, h.marginal])
    if "significance" in outputs:
        band_variant = d.variant
        if band_variant in (Variant.EEMD, Variant.OIMF, Variant.FOUIMF):
            band_variant = Variant.EMD
        band = white_noise_band(x.n, band_variant, trials=100, seed=seed,
                                sample_rate=x.sample_rate, cfg=scfg)
        artifacts["significance.csv"] = _Table(
            "component,mean_period,energy_density,inside",
            list(zip(*((f"imf{i}", p.mean_period, p.energy_density,
                        "" if p.inside_bounds is None else str(p.inside_bounds).lower())
                       for i, p in enumerate(significance_test(d, band), start=1)))))

    if "sweep" in outputs:
        fs_list = list(range(args.fs_start, args.fs_stop + 1, args.fs_step))
        artifacts["sweep.csv"] = _Table("fs,io_t_emd,io_t_epemd",
                                    list(zip(*sweep_io_t(fs_list, scfg))))

    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write(out_dir, artifacts)
    print(f"wrote {', '.join(sorted(artifacts))} to {out_dir}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _read_meta(path: Path) -> dict[str, str]:
    """The leading ``# key=value`` lines of an emitted CSV, the only place
    its writer puts them: reading stops at the first other line."""
    with _open(path) as lines:
        block = takewhile(lambda ln: ln.startswith("#"), lines)
        return {k.strip(): v.strip() for k, _, v in (ln.lstrip("#").partition("=") for ln in block)}


def run_verify(args) -> int:
    art = Path(args.artifact_dir)
    imfs_path = art / "imfs.csv"
    input_path = art / "input.csv"
    for p in (imfs_path, input_path):
        if not p.exists():
            raise CliError(f"missing artifact {p}")
    meta = _read_meta(imfs_path)
    comps = read_signal_csv(imfs_path).channels
    signal = read_signal_csv(input_path)
    variant = Variant(meta.get("variant", "EMD"))
    dcs = [float(v) for v in meta.get("dc_constant", "0").split()]
    n_ch = signal.n_channels
    if len(dcs) != n_ch or len(comps) % n_ch:
        raise CliError(f"{art}: artifacts do not match the {n_ch} input channel(s)")

    lines: dict[str, list[tuple[bool, str]]] = {}  # contract name -> its channels' verdicts
    for j, x in enumerate(signal.channels):
        *imfs, residue = comps[j::n_ch]
        for name, ok, detail in verdicts(x, Decomposition(imfs, residue, variant, dcs[j])):
            lines.setdefault(name, []).append((ok, detail if n_ch == 1 else f"ch{j + 1} {detail}"))
    for name, results in lines.items():
        oks, details = zip(*results)
        print(f"{'PASS' if all(oks) else 'FAIL'}  {name}: {'; '.join(details)}")
    return 0 if all(ok for results in lines.values() for ok, _ in results) else 1


# ---------------------------------------------------------------------------
# Entry point


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line as a ``CliError`` (exit 1)."""

    def error(self, message):
        raise CliError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="emdkit")
    sub = parser.add_subparsers(dest="command", required=True)

    dec = sub.add_parser("decompose", help="decompose a signal and emit artifacts")
    dec.add_argument("--input", help="input CSV (time column + channels)")
    dec.add_argument("--gen", help=f"generator preset: {', '.join(GEN_PRESETS)}")
    dec.add_argument("--algo", default="emd", choices=list(ALGORITHMS))
    dec.add_argument("--post", choices=sorted(POST_VARIANTS))
    dec.add_argument("--out", action="append", default=[],
                     help="comma-separated outputs: " + ", ".join(OUTPUTS))
    dec.add_argument("--output-dir", default="emdkit-out")
    dec.add_argument("--seed", type=int, default=None,
                     help="RNG seed (default: EMDKIT_SEED env var, then 0)")
    dec.add_argument("--sd-threshold", type=float, default=0.2,
                     help="SD stop of the univariate sift; none on multichannel memd/epmemd")
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
    try:
        args = build_parser().parse_args(argv)
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
    except MemoryError:  # such as a --fs-stop that argparse accepts but no list holds
        print("error: out of memory", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
