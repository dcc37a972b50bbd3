"""Golden digests of the command line's artifacts.

Runs ``emdkit decompose`` in-process for every generator preset x
algorithm x ``--post`` combination the command line accepts, then
``emdkit verify`` on the result, and records per case the SHA-256 of
``imfs.csv`` and ``report.json`` (and, for a univariate algorithm, of
the Hilbert spectrum's ``spectrum.csv`` and ``marginal.csv``), verify's
exit code and its PASS/FAIL check names in ``digests.json`` next to this
script.

    python tests/golden/make_golden.py                  # regenerate every entry
    python tests/golden/make_golden.py --match 'memd'   # regenerate matching entries only
    python tests/golden/make_golden.py --check          # compare, exit 1 on any difference

A change that moves any digest must say so and regenerate the affected
entries on purpose.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))

from emdkit.cli import (  # noqa: E402
    ALGORITHMS,
    ENERGY_PRESERVING_ALGOS,
    GEN_PRESETS,
    MULTIVARIATE_ALGOS,
    POST_VARIANTS,
    generate_preset,
    main,
)

DIGESTS = HERE / "digests.json"
COMMON = ["--seed", "7", "--ensemble-size", "4"]
#: ``--out`` item -> the artifact file it writes.
ARTIFACTS = {"imfs": "imfs.csv", "report": "report.json",
             "spectrum": "spectrum.csv", "marginal": "marginal.csv"}


def cases() -> dict[str, list[str]]:
    """Case id -> decompose arguments, for every combination the command
    line accepts, read from its own tables."""
    out = {}
    for preset in GEN_PRESETS:
        multivariate = generate_preset(preset, 7).n_channels > 1
        for algo in ALGORITHMS:
            if multivariate and algo not in MULTIVARIATE_ALGOS:
                continue
            posts = (None,) if algo in ENERGY_PRESERVING_ALGOS else (None, *sorted(POST_VARIANTS))
            for post in posts:
                argv = ["--gen", preset, "--algo", algo, *COMMON]
                argv += ["--directions", "8", "--max-imfs", "3"] if multivariate else ["--directions", "16"]
                argv += ["--out", "imfs,report" if algo in MULTIVARIATE_ALGOS
                         else "imfs,report,spectrum,marginal"]
                if post is not None:
                    argv += ["--post", post]
                out["/".join(p for p in (preset, algo, post) if p)] = argv
    return out


def _quiet_main(argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, out.getvalue()


def run_case(argv: list[str]) -> dict:
    """Decompose then verify one case; the record stored in the digests."""
    with tempfile.TemporaryDirectory() as tmp:
        code, _ = _quiet_main(["decompose", *argv, "--output-dir", tmp])
        record = {"decompose_exit": code}
        for out in argv[argv.index("--out") + 1].split(","):
            name = ARTIFACTS[out]
            path = Path(tmp) / name
            record[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
        code, stdout = _quiet_main(["verify", tmp])
    record["verify_exit"] = code
    record["verify"] = [line.split(":")[0] for line in stdout.splitlines()
                        if line.startswith(("PASS", "FAIL"))]
    return record


def main_cli(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare against the stored digests instead of writing")
    parser.add_argument("--match", default="", help="regex on case ids to run")
    args = parser.parse_args(argv)

    stored = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    selected = {cid: a for cid, a in cases().items() if re.search(args.match, cid)}
    results = {cid: run_case(a) for cid, a in selected.items()}
    if args.check:
        diffs = [cid for cid, rec in results.items() if stored.get(cid) != rec]
        for cid in diffs:
            print(f"DIFF {cid}: stored {stored.get(cid)} now {results[cid]}")
        print(f"{len(results) - len(diffs)}/{len(results)} cases match")
        return 1 if diffs else 0
    stored.update(results)
    DIGESTS.write_text(json.dumps(dict(sorted(stored.items())), indent=1) + "\n")
    print(f"wrote {len(results)} of {len(stored)} entries to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main_cli())
