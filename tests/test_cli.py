import json
import os
import re
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest

from emdkit import (
    RankDeficiencyError,
    SampledSignal,
    SignalKind,
    SignalSpec,
    Variant,
    emd,
    generate,
    hilbert_spectrum,
    orthogonal_variants,
    significance_test,
    sweep_io_t,
    white_noise_band,
)
from emdkit import cli
from emdkit.cli import BLOCK, CliError, _Table, main, read_signal_csv
from conftest import dense_grid, no_child_left, sine, traced_peak_mb


def write_csv(path, signals, header=True):
    t = signals[0].times
    lines = []
    if header:
        lines.append("time," + ",".join(f"ch{i+1}" for i in range(len(signals))))
    for k in range(signals[0].n):
        lines.append(",".join([repr(float(t[k]))]
                              + [repr(float(s.samples[k])) for s in signals]))
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def two_tone_csv(tmp_path):
    x = sine(4.0, 128.0, 4.0) + sine(16.0, 128.0, 4.0)
    p = tmp_path / "in.csv"
    write_csv(p, [x])
    return p


class TestReadSignalCsv:
    def test_round_trip(self, two_tone_csv):
        sig = read_signal_csv(two_tone_csv)
        assert sig.n_channels == 1
        assert sig.channels[0].sample_rate == pytest.approx(128.0)
        assert sig.channels[0].n == 512

    def test_header_optional(self, tmp_path):
        x = sine(4.0, 64.0, 1.0)
        p = tmp_path / "bare.csv"
        write_csv(p, [x], header=False)
        sig = read_signal_csv(p)
        assert sig.channels[0].n == 64

    def test_comments_skipped(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("# a comment\n0.0,1.0\n# another\n0.5,2.0\n1.0,3.0\n")
        sig = read_signal_csv(p)
        assert sig.channels[0].sample_rate == pytest.approx(2.0)

    LF_TEXT = ("# made by hand\n"
               "time,a,b\n"
               "0.0,1.5,-2.0\n"
               "# between rows\n"
               "\n"
               "0.25,2.5,1e-300\n"
               "  0.5 , 3.5 ,7\n"
               "0.75,4.5,-0.0\n")

    @pytest.mark.parametrize("variant", ["crlf", "cr", "no-final-newline", "bare"])
    def test_line_endings_and_layout_parse_alike(self, tmp_path, variant):
        text = {"crlf": self.LF_TEXT.replace("\n", "\r\n"),
                "cr": self.LF_TEXT.replace("\n", "\r"),
                "no-final-newline": self.LF_TEXT[:-1],
                "bare": "".join(line + "\n" for line in self.LF_TEXT.splitlines()
                                if line and not line.startswith(("#", "time")))}[variant]
        (tmp_path / "lf.csv").write_text(self.LF_TEXT)
        (tmp_path / "x.csv").write_bytes(text.encode())
        want, got = (read_signal_csv(tmp_path / name) for name in ("lf.csv", "x.csv"))
        assert want.n_channels == got.n_channels == 2
        for a, b in zip(want.channels, got.channels):
            assert a.samples.tobytes() == b.samples.tobytes()
            assert (a.sample_rate, a.t0) == (b.sample_rate, b.t0) == (4.0, 0.0)
        assert want.channels[1].samples.tolist() == [-2.0, 1e-300, 7.0, -0.0]

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    @pytest.mark.parametrize("body, message", [
        ("time,x\n0,1\n# c\n1,oops\n", ":4: could not convert string to float: 'oops'"),
        ("time,x\n0,1\n\n1,2,3\n", ":4: expected 2 fields, got 3"),
        ("# c\n0\n1\n", ":2: need a time column and at least one value column"),
        ("time,x\n0,1\n", ": fewer than 2 data rows"),
    ])
    def test_errors_keep_their_line_numbers(self, tmp_path, newline, body, message):
        p = tmp_path / "bad.csv"
        p.write_bytes(body.replace("\n", newline).encode())
        with pytest.raises(CliError) as info:
            read_signal_csv(p)
        assert str(info.value) == f"{p}{message}"

    # name -> (text, whether numpy's C reader parses it)
    READER_CASES = {
        "header": ("time,x\n0,1.5\n1,2.5\n2,-3\n", True),
        "no-header": ("0,1.5\n1,2.5\n2,-3\n", True),
        "crlf": ("# made by hand\r\ntime,x\r\n0,1.5\r\n1,2.5\r\n", True),
        "cr": ("# made by hand\rtime,x\r0,1.5\r1,2.5\r", True),
        "no-final-newline": ("time,x\n0,1.5\n1,2.5", True),
        "leading-blank-and-comment": ("\n  \n# note\ntime,x\n0,1\n1,2\n", True),
        "blank-between-rows": ("time,x\n0,1\n\n1,2\n2,3\n", True),
        "whitespace-only-line": ("time,x\n0,1\n   \n1,2\n2,3\n", False),
        "comment-between-rows": ("time,x\n0,1\n# note\n1,2\n2,3\n", False),
        "trailing-comma": ("0,1,\n1,2,\n2,3,\n", False),
        "quoted-field": ('time,x\n0,"1"\n1,2\n', False),
        "underscore": ("0,1_0\n1,2\n", False),
        "arabic-indic-digit": ("0,١\n1,2\n", False),
        "padded-field": ("0, 1.5 \n1,2\n", True),
        "nan-and-inf": ("0,nan\n1,-nan\n2,inf\n3,-inf\n", True),
        "extremes": (f"0,5e-324\n1,{2.0**1000!r}\n2,{2.0**-1000!r}\n3,-0.0\n", True),
        "header-wider-than-data": ("time,x,y\n0,1\n1,2\n", False),
        "header-narrower-than-data": ("time,x\n0,1,2\n1,2,3\n", False),
        "one-column": ("0\n1\n2\n", False),
        "header-only": ("time,x\n", False),
        "one-data-row": ("time,x\n0,1\n", False),
        "empty": ("", False),
    }

    @staticmethod
    def outcome(fn, *args):
        try:
            result = fn(*args)
        except CliError as exc:
            return "error", str(exc)
        if isinstance(result, np.ndarray):
            return result.dtype, result.shape, result.tobytes()
        return [(c.samples.tobytes(), c.sample_rate, c.t0) for c in result.channels]

    @pytest.mark.parametrize("name", READER_CASES)
    def test_c_reader_agrees_with_the_line_reader(self, tmp_path, monkeypatch, name):
        text, fast = self.READER_CASES[name]
        p = tmp_path / "in.csv"
        p.write_bytes(text.encode())
        assert (cli._load_plain(p) is not None) == fast
        assert self.outcome(cli._read_table, p) == self.outcome(cli._read_lines, p)
        new = self.outcome(read_signal_csv, p)
        monkeypatch.setattr(cli, "_load_plain", lambda path: None)
        assert new == self.outcome(read_signal_csv, p)

    def test_plain_files_take_the_c_reader(self, tmp_path, monkeypatch, capsys):
        n = 16384
        v = np.random.default_rng(3).standard_normal(n)
        p = tmp_path / "in.csv"
        p.write_text("time,x\n" + "".join(f"{k / 1000.0!r},{x!r}\n"
                                          for k, x in enumerate(v.tolist())))
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(p), "--post", "roimf", "--out", "imfs",
                     "--output-dir", str(out)]) == 0
        header_only = tmp_path / "header-only.csv"
        header_only.write_text("time,x\n")
        capsys.readouterr()

        def no_line_reader(path):
            raise AssertionError(f"{path} was read line by line")

        with monkeypatch.context() as m:
            m.setattr(cli, "_read_lines", no_line_reader)
            assert read_signal_csv(out / "input.csv").channels[0].samples.tobytes() \
                == v.tobytes()
            assert read_signal_csv(out / "imfs.csv").n_channels > 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["decompose", "--input", str(header_only),
                         "--output-dir", str(tmp_path / "none")]) == 1
        assert capsys.readouterr().err == f"error: {header_only}: fewer than 2 data rows\n"

    @pytest.mark.parametrize("header", ["time,x\n", ""])
    @pytest.mark.parametrize("comment, plain", [("", True), ("# note\n", False)])
    def test_byte_order_mark_is_ignored(self, tmp_path, header, comment, plain):
        # A plain file goes to numpy's reader, a mid-file comment to the line reader.
        p = tmp_path / "bom.csv"
        p.write_bytes(f"\ufeff{header}0,1\n1,2\n{comment}2,3\n3,4\n".encode())
        assert (cli._load_plain(p) is not None) == plain
        x, = read_signal_csv(p).channels
        assert x.samples.tolist() == [1.0, 2.0, 3.0, 4.0] and x.t0 == 0.0

    def test_wide_file_is_read_without_per_value_objects(self, tmp_path):
        # 16,384 rows x 15 columns; the whole-text read peaked at 18.8 MiB.
        n = 16384
        table = np.column_stack((np.arange(n) / 1000.0,
                                 np.random.default_rng(8).standard_normal((n, 14))))
        p = tmp_path / "wide.csv"
        np.savetxt(p, table, fmt="%.17g", delimiter=",")
        assert traced_peak_mb(read_signal_csv, p) < 9
        sig = read_signal_csv(p)
        assert [c.samples.tobytes() for c in sig.channels] == [
            table[:, j].tobytes() for j in range(1, 15)]


class TestArtifactWriter:
    SPECIALS = np.array([0.0, -0.0, 5e-324, np.inf, -np.inf, np.nan,
                         2.0**1000, 2.0**-1000, 0.1, -1 / 3])

    @pytest.mark.parametrize("n", [0, 1, BLOCK - 1, BLOCK, BLOCK + 1])
    def test_rows_match_the_per_value_format(self, n):
        rng = np.random.default_rng(n)
        floats = np.resize(self.SPECIALS, n)
        wide = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
        mixed = [float(v) if k % 2 else np.float64(v) for k, v in enumerate(wide)]
        ints = np.arange(n) * 5 + 105
        names = [f"imf{k}" for k in range(n)]
        index = rng.integers(0, len(self.SPECIALS), n)
        labels = np.array(["%.17g" % v for v in self.SPECIALS.tolist()], dtype=object)
        columns = [names, floats, ints, mixed, labels[index], wide]
        rows = zip(names, floats, ints, mixed, ("%.17g" % v for v in self.SPECIALS[index]),
                   wide)
        expected = "# variant=EMD\na,b,c,d,e,f\n" + "".join(",".join(
            v if isinstance(v, str) else "%.17g" % v for v in row) + "\n" for row in rows)
        table = _Table("a,b,c,d,e,f", columns, {"variant": "EMD"})
        blocks = [table.head] + [table.chunk(k) for k in range(table.chunks)]
        # The meta and header lines, then one string per BLOCK rows.
        assert [b.count("\n") for b in blocks] == [2] + [
            min(BLOCK, n - s) for s in range(0, n, BLOCK)]
        assert "".join(blocks) == expected


class TestDecompose:
    def test_artifacts_written(self, two_tone_csv, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["decompose", "--input", str(two_tone_csv),
                   "--out", "imfs,report", "--output-dir", str(out)])
        assert rc == 0
        assert (out / "input.csv").exists()
        assert (out / "imfs.csv").exists()
        rep = json.loads((out / "report.json").read_text())
        assert rep["schema_version"] == 1
        assert abs(rep["pee"] - 100.0 * rep["io_total"]) <= 1e-9

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            rc = main(["decompose", "--gen", "am", "--seed", "7",
                       "--algo", "eemd", "--ensemble-size", "10",
                       "--out", "imfs", "--output-dir", str(out)])
            assert rc == 0
        assert (a / "imfs.csv").read_bytes() == (b / "imfs.csv").read_bytes()

    def test_seed_env_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.setenv("EMDKIT_SEED", "7")
        rc = main(["decompose", "--gen", "wgn", "--out", "imfs",
                   "--output-dir", str(a)])
        assert rc == 0
        monkeypatch.delenv("EMDKIT_SEED")
        rc = main(["decompose", "--gen", "wgn", "--seed", "7",
                   "--out", "imfs", "--output-dir", str(b)])
        assert rc == 0
        assert (a / "imfs.csv").read_bytes() == (b / "imfs.csv").read_bytes()

    def test_imfs_csv_reingestable(self, two_tone_csv, tmp_path):
        out = tmp_path / "out"
        main(["decompose", "--input", str(two_tone_csv), "--out", "imfs",
              "--output-dir", str(out)])
        table = read_signal_csv(out / "imfs.csv")
        original = read_signal_csv(two_tone_csv)
        recon = sum(ch.samples for ch in table.channels)
        np.testing.assert_allclose(recon, original.channels[0].samples,
                                   atol=1e-9)

    def test_spectrum_and_marginal(self, two_tone_csv, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", "--input", str(two_tone_csv),
                   "--out", "spectrum,marginal", "--freq-bins", "32",
                   "--output-dir", str(out)])
        assert rc == 0
        lines = (out / "marginal.csv").read_text().splitlines()
        assert lines[0] == "freq,energy"
        assert len(lines) == 33
        spec = (out / "spectrum.csv").read_text().splitlines()
        assert spec[0] == "freq_bin,time_bin,energy"
        assert all(float(r.split(",")[2]) != 0.0 for r in spec[1:])

    def test_sweep_output(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["decompose", "--gen", "am", "--out", "sweep",
                   "--fs-start", "150", "--fs-stop", "160", "--fs-step", "5",
                   "--output-dir", str(out)])
        assert rc == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        assert rows[0] == "fs,io_t_emd,io_t_epemd"
        assert len(rows) == 4
        for r in rows[1:]:
            assert abs(float(r.split(",")[2])) <= 1e-12

    def test_secondary_artifacts_byte_exact(self, tmp_path):
        """The artifacts the golden digests do not cover, rebuilt from the
        library: non-zero spectrum cells in frequency-major order, every
        float as %.17g."""
        out = tmp_path / "out"
        assert main(["decompose", "--gen", "am", "--seed", "3",
                     "--out", "spectrum,marginal,significance,sweep",
                     "--freq-bins", "16", "--time-bins", "64",
                     "--fs-start", "150", "--fs-stop", "160", "--fs-step", "5",
                     "--output-dir", str(out)]) == 0

        def table(header, rows):
            return "\n".join([header] + [",".join(
                v if isinstance(v, str) else "%.17g" % v for v in row)
                for row in rows]) + "\n"

        x = generate(SignalSpec(SignalKind.AM, seed=3))
        d = emd(x)
        h = hilbert_spectrum(d, n_freq_bins=16, n_time_bins=64)
        grid = dense_grid(h)
        band = white_noise_band(x.n, Variant.EMD, trials=100, seed=3,
                                sample_rate=x.sample_rate)
        inside = {None: "", True: "true", False: "false"}
        expected = {
            "input.csv": table("time,ch1", zip(x.times, x.samples)),
            "spectrum.csv": table("freq_bin,time_bin,energy", (
                (h.freq_bins[fi], h.time_bins[ti], grid[fi, ti])
                for fi, ti in np.argwhere(grid != 0))),
            "marginal.csv": table("freq,energy", zip(h.freq_bins, h.marginal)),
            "significance.csv": table("component,mean_period,energy_density,inside", (
                (f"imf{i}", p.mean_period, p.energy_density, inside[p.inside_bounds])
                for i, p in enumerate(significance_test(d, band), start=1))),
            "sweep.csv": table("fs,io_t_emd,io_t_epemd", sweep_io_t([150, 155, 160])),
        }
        for name, text in expected.items():
            assert (out / name).read_text() == text, name

    def test_artifacts_at_scale_are_exact(self, tmp_path, capsys):
        # 16,384 rows and ~10^5 spectrum cells: many blocks, and more than
        # 256 distinct time bins.
        n = 16384
        v = np.random.default_rng(11).standard_normal(n)
        p = tmp_path / "in.csv"
        p.write_text("time,x\n" + "".join(f"{k / 1000.0!r},{x!r}\n"
                                          for k, x in enumerate(v.tolist())))
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(p), "--post", "roimf",
                     "--out", "imfs,spectrum", "--output-dir", str(out)]) == 0
        d = orthogonal_variants(emd(read_signal_csv(p).channels[0]), Variant.ROIMF)
        assert [c.samples.tobytes() for c in read_signal_csv(out / "imfs.csv").channels] \
            == [c.samples.tobytes() for c in d.components]

        h = hilbert_spectrum(d, n_freq_bins=256)
        f, t, e = h.cells
        assert len(e) > 4 * BLOCK and len(np.unique(t)) > 256
        with (out / "spectrum.csv").open() as lines:
            assert next(lines) == "freq_bin,time_bin,energy\n"
            for line, fi, ti, ei in zip(lines, f.tolist(), t.tolist(), e.tolist(),
                                        strict=True):
                assert line == "%.17g,%.17g,%.17g\n" % (h.freq_bins[fi], h.time_bins[ti], ei)

    def test_artifacts_are_streamed(self, tmp_path, capsys):
        # 16,384 rows, four IMFs, the spectrum outputs included. A dense
        # spectrum grid and whole-string artifacts peaked at 47.6 MiB,
        # whole-string artifacts alone at 14.7 MiB.
        n = 16384
        v = np.random.default_rng(7).standard_normal(n)
        p = tmp_path / "in.csv"
        p.write_text("time,x\n" + "".join(f"{k / 1000.0!r},{x!r}\n"
                                          for k, x in enumerate(v.tolist())))
        argv = ["decompose", "--input", str(p), "--out", "imfs,report,spectrum,marginal",
                "--max-imfs", "4", "--output-dir", str(tmp_path / "out")]
        assert traced_peak_mb(main, argv) < 10
        assert capsys.readouterr().out.startswith("wrote imfs.csv, input.csv, marginal.csv")

    def test_memd_two_channels(self, tmp_path):
        a = sine(4.0, 128.0, 4.0) + sine(16.0, 128.0, 4.0)
        b = sine(4.0, 128.0, 4.0, phase=0.5) + sine(16.0, 128.0, 4.0, phase=1.0)
        p = tmp_path / "mv.csv"
        write_csv(p, [a, b])
        out = tmp_path / "out"
        rc = main(["decompose", "--input", str(p), "--algo", "memd",
                   "--directions", "8", "--out", "imfs,report",
                   "--output-dir", str(out)])
        assert rc == 0
        rep = json.loads((out / "report.json").read_text())
        assert len(rep["channels"]) == 2
        assert main(["verify", str(out)]) == 0

    @pytest.mark.parametrize("algo, flags", [
        ("emd", ["--gen", "am"]),
        ("eemd", ["--gen", "am", "--ensemble-size", "4"]),
        ("epemd", ["--gen", "am"]),
        ("memd", ["--gen", "multitone4", "--directions", "8", "--max-imfs", "1"]),
        ("epmemd", ["--gen", "multitone4", "--directions", "8", "--max-imfs", "1"]),
    ])
    def test_algorithm_looked_up_when_called(self, tmp_path, monkeypatch, algo, flags):
        # A replaced module attribute (a tracer, a memo) is the one called.
        calls = []
        original = getattr(cli, algo)

        def recorder(*args):
            calls.append(algo)
            return original(*args)

        monkeypatch.setattr(cli, algo, recorder)
        assert main(["decompose", *flags, "--algo", algo, "--out", "imfs",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert calls == [algo]

    @pytest.mark.parametrize("flags, variant", [
        (["--algo", "eemd", "--ensemble-size", "4"], Variant.EMD),
        (["--post", "oimf"], Variant.EMD),
        (["--post", "fouimf"], Variant.EMD),
        ([], Variant.EMD),
        (["--algo", "epemd"], Variant.EPEMD),
        (["--post", "foimf"], Variant.FOIMF),
        (["--post", "roimf"], Variant.ROIMF),
        (["--post", "rouimf"], Variant.ROUIMF),
    ])
    def test_significance_band_variant(self, tmp_path, monkeypatch, flags, variant):
        # EEMD, OIMF and FOUIMF are tested against the EMD band; any other
        # decomposition against a band of its own variant.
        seen = []

        def recorder(length, decomposer, *args, **kwargs):
            seen.append(decomposer)
            return white_noise_band(length, decomposer, *args, **kwargs)

        monkeypatch.setattr(cli, "white_noise_band", recorder)
        p = tmp_path / "in.csv"
        write_csv(p, [sine(4.0, 64.0, 2.0) + sine(16.0, 64.0, 2.0)])
        assert main(["decompose", "--input", str(p), *flags, "--out", "significance",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert seen == [variant]


class TestErrors:
    def test_missing_input_file(self, tmp_path, capsys):
        rc = main(["decompose", "--input", str(tmp_path / "nope.csv"),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 3

    def test_malformed_row_reports_line(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,1.0\n0.5,oops\n1.0,3.0\n")
        rc = main(["decompose", "--input", str(p),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1
        assert ":2:" in capsys.readouterr().err

    def test_ragged_row(self, tmp_path, capsys):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,1.0\n0.5,2.0,9.0\n")
        rc = main(["decompose", "--input", str(p),
                   "--output-dir", str(tmp_path / "out")])
        assert rc == 1

    def test_nonuniform_time(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.0,1.0\n0.5,2.0\n1.6,3.0\n")
        assert main(["decompose", "--input", str(p),
                     "--output-dir", str(tmp_path / "out")]) == 1

    def test_both_input_and_gen(self, two_tone_csv, tmp_path):
        assert main(["decompose", "--input", str(two_tone_csv), "--gen", "am",
                     "--output-dir", str(tmp_path / "out")]) == 1

    def test_multichannel_with_univariate_algo(self, tmp_path):
        p = tmp_path / "mv.csv"
        write_csv(p, [sine(4.0, 64.0, 1.0), sine(8.0, 64.0, 1.0)])
        assert main(["decompose", "--input", str(p), "--algo", "emd",
                     "--output-dir", str(tmp_path / "out")]) == 1

    def test_post_rejected_for_epemd(self, two_tone_csv, tmp_path):
        assert main(["decompose", "--input", str(two_tone_csv),
                     "--algo", "epemd", "--post", "roimf",
                     "--output-dir", str(tmp_path / "out")]) == 1

    @pytest.mark.parametrize("flags", [
        ["--max-imfs", "-1"],
        ["--out", "spectrum", "--freq-bins", "0"],
        ["--out", "spectrum", "--time-bins", "0"],
        ["--gen", "am", "--out", "marginal", "--freq-bins", "10000000"],
        ["--input", "one-column.csv"],
        ["--input", "one-row.csv"],
        ["--input", "nan.csv"],
        ["--input", "backwards.csv"],
        ["--gen", "nope"],
        ["--input", "two.csv", "--algo", "memd", "--out", "spectrum"],
        ["--input", "constant.csv", "--out", "spectrum"],
        ["verify", "one-dc"],
        ["--algo", "eemd", "--noise-ratio", "nan"],
        ["--algo", "eemd", "--noise-ratio", "inf"],
        ["--out", "sweep", "--fs-step", "0"],
        ["--out", "sweep", "--fs-step", "-5"],
        ["--out", "sweep", "--fs-start", "400", "--fs-stop", "105"],
        ["--gen", "am", "--algo", "memd", "--directions", "0"],
        ["--gen", "am", "--seed", "-1"],
        ["--gen", "am", "--algo", "eemd", "--seed", "-1"],
        ["--gen", "wgn", "--seed", "-1"],
        ["--out", "significance", "--seed", "-1"],
        ["EMDKIT_SEED=abc", "--gen", "am"],
        ["EMDKIT_SEED=-1", "--gen", "wgn"],
        ["EMDKIT_SEED=2.5", "--algo", "eemd"],
        ["--gen", "am", "--algo", "epmemd", "--directions", "-3"],
    ])
    def test_invalid_counts(self, two_tone_csv, tmp_path, monkeypatch, capsys, flags):
        # Every invalid input or option: exit 1 and one line on stderr.
        monkeypatch.chdir(tmp_path)
        env = flags[0].startswith("EMDKIT_SEED=")
        if env:
            monkeypatch.setenv("EMDKIT_SEED", flags[0].partition("=")[2])
            flags = flags[1:]
        for name, text in {"one-column.csv": "0\n1\n2\n", "one-row.csv": "time,ch1\n0,1\n",
                           "nan.csv": "0,1\n1,nan\n2,3\n", "backwards.csv": "0,1\n1,2\n1,3\n",
                           "constant.csv": "0,1\n1,1\n2,1\n3,1\n"}.items():
            Path(name).write_text(text)
        write_csv(Path("two.csv"), [sine(4.0, 64.0, 1.0), sine(8.0, 64.0, 1.0)])
        if flags[0] == "verify":  # two-channel artifacts with one dc constant
            assert main(["decompose", "--input", "two.csv", "--algo", "memd",
                         "--directions", "8", "--output-dir", "one-dc"]) == 0
            imfs = Path("one-dc", "imfs.csv")
            imfs.write_text(re.sub(r"# dc_constant=\S+ \S+", "# dc_constant=0", imfs.read_text()))
            argv = flags
        elif "--input" in flags or "--gen" in flags:
            argv = ["decompose", *flags, "--output-dir", "out"]
        else:
            argv = ["decompose", "--input", str(two_tone_csv), *flags, "--output-dir", "out"]
        capsys.readouterr()
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not Path("out").exists()
        # A range error names the flag (the field, for a config's own check).
        named = {"--fs-step": "--fs-step", "--fs-start": "--fs-start",
                 "--directions": "--directions", "--noise-ratio": "noise_stddev_ratio",
                 "--seed": "--seed", "--freq-bins": "--freq-bins", "--time-bins": "--time-bins"}
        assert all(named[f] in err for f in flags if f in named)
        assert not env or "EMDKIT_SEED" in err

    @pytest.mark.parametrize("argv", [
        ["decompose", "--gen", "am", "--algo", "foo"],
        ["decompose", "--gen", "am", "--max-imfs", "abc"],
        ["decompose", "--gen", "am", "--post", "xyz"],
        [],
        ["bogus"],
    ])
    def test_malformed_flags(self, tmp_path, monkeypatch, capsys, argv):
        # A parse error is an error like any other: exit 1 (no SystemExit),
        # one line on stderr, and no output directory.
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == "" and list(tmp_path.iterdir()) == []

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "--help"])
        assert exc.value.code == 0
        assert "--algo {emd,eemd,memd,epemd,epmemd}" in capsys.readouterr().out

    def test_rank_deficiency_exits_2(self, two_tone_csv, tmp_path, monkeypatch, capsys):
        def deficient(*args):
            raise RankDeficiencyError(3)

        monkeypatch.setattr(cli, "orthogonal_variants", deficient)
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(two_tone_csv), "--post", "roimf",
                     "--output-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("numerical error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("algo", ["memd", "epmemd"])
    def test_direction_count_checked_before_any_work(self, tmp_path, monkeypatch, capsys, algo):
        def no_work(*args):
            raise AssertionError("a signal was generated")

        monkeypatch.setattr(cli, "generate_preset", no_work)
        assert main(["decompose", "--gen", "multitone4", "--algo", algo, "--directions", "0",
                     "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == "error: --directions must be >= 1, got 0\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("n, flag, top", [
        (64, "--freq-bins", 256), (64, "--time-bins", 64),
        (512, "--freq-bins", 512), (512, "--time-bins", 512),
    ])
    def test_bin_counts_bounded_by_the_input(self, tmp_path, monkeypatch, capsys, n, flag, top):
        # Up to max(256, n) frequency and n time bins; one more exits 1
        # before any decomposition, with no output directory.
        p = tmp_path / "in.csv"
        write_csv(p, [sine(4.0, 64.0, n / 64.0) + sine(12.0, 64.0, n / 64.0)])
        argv = ["decompose", "--input", str(p), "--out", "spectrum,marginal"]
        assert main([*argv, flag, str(top), "--output-dir", str(tmp_path / "ok")]) == 0
        rows = {"--freq-bins": top, "--time-bins": 256}[flag]
        assert len((tmp_path / "ok" / "marginal.csv").read_text().splitlines()) == rows + 1

        def no_work(*args):
            raise AssertionError("a signal was decomposed")

        monkeypatch.setattr(cli, "emd", no_work)
        capsys.readouterr()
        assert main([*argv, flag, str(top + 1), "--output-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == (f"error: {flag} must be between 1 and {top}"
                                           f" for {n} samples, got {top + 1}\n")
        assert not (tmp_path / "out").exists()

    def test_all_zero_signal(self, tmp_path, capsys):
        p = tmp_path / "zero.csv"
        write_csv(p, [SampledSignal(np.zeros(64), 64.0)])
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(p), "--out", "report",
                     "--output-dir", str(out)]) == 1
        assert main(["decompose", "--input", str(p), "--out", "imfs",
                     "--output-dir", str(out)]) == 0
        assert main(["verify", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert [line.startswith("error: zero-energy signal") for line in err] == [True, True]

    def test_report_is_strict_json_at_huge_amplitude(self, tmp_path, capsys):
        # Absolute energies overflow to inf here; JSON has no Infinity.
        v = np.random.default_rng(4).standard_normal(512) * 2.0 ** 900
        p = tmp_path / "huge.csv"
        write_csv(p, [SampledSignal(v, 100.0)])
        out = tmp_path / "out"
        with np.errstate(over="ignore"):
            assert main(["decompose", "--input", str(p), "--output-dir", str(out)]) == 0
            assert main(["verify", str(out)]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        rep = json.loads((out / "report.json").read_text(), parse_constant=reject)
        assert np.isfinite(rep["pee"]) and np.isfinite(rep["io_total"])
        assert rep["signal_energy"] is None and None in rep["component_energies"]

    @pytest.mark.parametrize("scale", [1e307, 2.0 ** 1000])
    def test_top_of_float64_range_decomposes_silently(self, tmp_path, capsys, scale):
        rng = np.random.default_rng(5)
        v = rng.standard_normal(512) * scale
        cases = {
            "emd": ([v], ["--out", "imfs,report,spectrum,marginal"]),
            "memd": ([v, rng.standard_normal(512) * scale],
                     ["--algo", "memd", "--directions", "8", "--max-imfs", "3"]),
            "eemd": ([v], ["--algo", "eemd"]),
        }
        for name, (channels, flags) in cases.items():
            p = tmp_path / f"{name}.csv"
            write_csv(p, [SampledSignal(c, 100.0) for c in channels])
            out = tmp_path / name
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                assert main(["decompose", "--input", str(p), *flags,
                             "--output-dir", str(out)]) == 0
                assert capsys.readouterr().err == ""
                assert main(["verify", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert lines and all(line.startswith("PASS") for line in lines)
        for artifact in ("spectrum.csv", "marginal.csv"):
            assert "nan" not in (tmp_path / "emd" / artifact).read_text()

    def test_two_rows_give_zero_imfs(self, tmp_path, capsys):
        p = tmp_path / "two.csv"
        p.write_text("time,ch1\n0,1\n1,2\n")
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(p), "--output-dir", str(out)]) == 0
        assert "imf1" not in (out / "imfs.csv").read_text()
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines and all(line.startswith("PASS") for line in lines)

    def test_constant_input_spectrum_writes_nothing(self, tmp_path, capsys):
        # No IMF to build a spectrum from: the error comes before any file.
        p = tmp_path / "const.csv"
        write_csv(p, [SampledSignal(np.full(64, 2.5), 64.0)])
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(p), "--out", "imfs,spectrum",
                     "--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == "error: spectrum output needs at least one IMF\n"
        assert not out.exists()

    @pytest.mark.parametrize("post", ["oimf", "foimf", "roimf", "fouimf", "rouimf"])
    def test_constant_input_post_passes_verify(self, tmp_path, capsys, post):
        # No IMF, and a residue the uncorrelated variants centre to zero:
        # no component is left for Gram-Schmidt to sweep.
        p = tmp_path / "const.csv"
        write_csv(p, [SampledSignal(np.full(64, 2.5), 64.0)])
        out = tmp_path / "out"
        assert main(["decompose", "--input", str(p), "--post", post,
                     "--output-dir", str(out)]) == 0
        assert main(["verify", str(out)]) == 0
        assert capsys.readouterr().err == ""

    def test_unknown_output(self, two_tone_csv, tmp_path):
        assert main(["decompose", "--input", str(two_tone_csv),
                     "--out", "bogus",
                     "--output-dir", str(tmp_path / "out")]) == 1


class TestVerify:
    def run_pipeline(self, two_tone_csv, tmp_path, *extra):
        out = tmp_path / "out"
        rc = main(["decompose", "--input", str(two_tone_csv),
                   "--out", "imfs,report", "--output-dir", str(out), *extra])
        assert rc == 0
        return out

    def test_emd_artifacts_pass(self, two_tone_csv, tmp_path, capsys):
        out = self.run_pipeline(two_tone_csv, tmp_path)
        assert main(["verify", str(out)]) == 0
        assert "FAIL" not in capsys.readouterr().out

    def test_roimf_orthogonality_checked(self, two_tone_csv, tmp_path, capsys):
        out = self.run_pipeline(two_tone_csv, tmp_path, "--post", "roimf")
        assert main(["verify", str(out)]) == 0
        assert "pairwise orthogonality" in capsys.readouterr().out

    def test_byte_order_mark_keeps_the_variant(self, two_tone_csv, tmp_path, capsys):
        out = self.run_pipeline(two_tone_csv, tmp_path, "--post", "roimf")
        imfs = out / "imfs.csv"
        imfs.write_bytes("\ufeff".encode() + imfs.read_bytes())
        assert main(["verify", str(out)]) == 0
        assert "pairwise orthogonality" in capsys.readouterr().out

    def test_epemd_chain_checked(self, two_tone_csv, tmp_path, capsys):
        out = self.run_pipeline(two_tone_csv, tmp_path, "--algo", "epemd")
        assert main(["verify", str(out)]) == 0
        assert "chain orthogonality" in capsys.readouterr().out

    @pytest.mark.parametrize("algo, post, check", [
        ("memd", "rouimf", "pairwise orthogonality"),
        ("epmemd", None, "chain orthogonality"),
    ])
    def test_multivariate_contracts_checked(self, tmp_path, capsys, algo, post, check):
        a = sine(4.0, 128.0, 4.0) + sine(16.0, 128.0, 4.0)
        a = a.with_samples(a.samples + 0.3)  # a channel mean: nonzero dc constant
        b = sine(4.0, 128.0, 4.0, phase=0.5) + sine(16.0, 128.0, 4.0, phase=1.0)
        p = tmp_path / "mv.csv"
        write_csv(p, [a, b])
        out = tmp_path / "out"
        extra = ["--post", post] if post else []
        assert main(["decompose", "--input", str(p), "--algo", algo, "--directions", "8",
                     "--out", "imfs,report", "--output-dir", str(out), *extra]) == 0
        assert main(["verify", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith(f"PASS  {check}: ch1 ") for line in lines)
        assert any(line.startswith("PASS  energy-error identity: ch1 ") for line in lines)

    def test_report_json_is_not_read(self, two_tone_csv, tmp_path, capsys):
        # verify recomputes every contract from input.csv and imfs.csv,
        # so an absent or malformed report.json changes nothing.
        out = self.run_pipeline(two_tone_csv, tmp_path)
        report = out / "report.json"
        broken = json.loads(report.read_text())
        del broken["io_total"]
        capsys.readouterr()
        printed = []
        for text in (None, "", "[]\n", json.dumps(broken)):
            if text == "":
                report.unlink()
            elif text is not None:
                report.write_text(text)
            assert main(["verify", str(out)]) == 0
            captured = capsys.readouterr()
            assert captured.err == ""
            printed.append(captured.out)
        assert printed == [printed[0]] * 4
        assert printed[0].splitlines()[-1].startswith("PASS  energy-error identity: ")

    def test_tampered_imfs_fail(self, two_tone_csv, tmp_path, capsys):
        out = self.run_pipeline(two_tone_csv, tmp_path)
        path = out / "imfs.csv"
        lines = path.read_text().splitlines()
        fields = lines[-1].split(",")
        fields[1] = repr(float(fields[1]) + 0.5)
        lines[-1] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        assert main(["verify", str(out)]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_comment_after_the_header_is_no_metadata(self, two_tone_csv, tmp_path, capsys):
        # The writer puts `# key=value` lines before the header only; a later
        # one is a comment, skipped with the data.
        out = self.run_pipeline(two_tone_csv, tmp_path)
        path = out / "imfs.csv"
        lines = path.read_text().splitlines(keepends=True)
        header = next(k for k, line in enumerate(lines) if not line.startswith("#"))
        lines.insert(header + 1, "# variant=ROIMF\n")
        path.write_text("".join(lines))
        assert cli._read_meta(path)["variant"] == "EMD"
        capsys.readouterr()
        assert main(["verify", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "FAIL" not in printed and "pairwise orthogonality" not in printed

    def test_missing_artifacts(self, tmp_path):
        assert main(["verify", str(tmp_path)]) == 1


def wide_csv(path, rows=16384, newline="\n", bom=False, bad_row=None):
    """A header, then rows of time and 14 noise channels: past the size
    rule, so parsed by forked helpers besides the caller on more than one
    CPU. ``bad_row`` puts an unparsable value into that data row."""
    table = np.column_stack((np.arange(rows) / 1000.0,
                             np.random.default_rng(rows).standard_normal((rows, 14))))
    lines = ["time," + ",".join(f"ch{j}" for j in range(1, 15))]
    lines += [",".join("%.17g" % v for v in row) for row in table.tolist()]
    if bad_row is not None:
        fields = lines[1 + bad_row].split(",")
        lines[1 + bad_row] = ",".join([fields[0], "oops", *fields[2:]])
    path.write_bytes(("\ufeff" if bom else "").encode()
                     + "".join(line + newline for line in lines).encode())
    return table


@pytest.fixture
def noise_csv(tmp_path):
    """16,384 rows of white noise, one channel."""
    v = np.random.default_rng(4).standard_normal(16384)
    p = tmp_path / "in.csv"
    p.write_text("time,x\n" + "".join(f"{k / 1000.0!r},{x!r}\n"
                                      for k, x in enumerate(v.tolist())))
    return p


class TestForkedText:
    """Artifacts formatted and CSVs parsed by forked helpers as well as the
    caller: the bytes and values of a serial run, for any CPU count."""

    DECOMPOSE = ["--post", "roimf", "--out", "imfs,report,spectrum,marginal"]

    def test_same_bytes_and_values_on_any_cpu_count(self, tmp_path, noise_csv, cpus, forks,
                                                     capsys):
        p = noise_csv
        artifacts, tables = [], []
        for k in (1, 2, 3):
            cpus(k)
            del forks[:]
            out = tmp_path / f"cpus{k}"
            assert main(["decompose", "--input", str(p), *self.DECOMPOSE,
                         "--output-dir", str(out)]) == 0
            artifacts.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
            tables.append([[(c.samples.tobytes(), c.sample_rate, c.t0)
                            for c in read_signal_csv(out / name).channels]
                           for name in ("imfs.csv", "input.csv")])
            tables[-1].append(cli._read_table(out / "spectrum.csv").tobytes())
            # Helpers format the artifacts and parse imfs.csv and spectrum.csv.
            assert len(forks) == 3 * (k - 1)
            no_child_left()
        assert sorted(artifacts[0]) == ["imfs.csv", "input.csv", "marginal.csv",
                                        "report.json", "spectrum.csv"]
        assert artifacts[1] == artifacts[0] and artifacts[2] == artifacts[0]
        assert tables[1] == tables[0] and tables[2] == tables[0]

    @pytest.mark.parametrize("bad_row", [3, 16383])
    def test_malformed_value_gives_the_serial_error(self, tmp_path, cpus, forks, capsys,
                                                    bad_row):
        # Row 3 lies in the caller's span (the first), row 16383 in the
        # helper's.
        p = tmp_path / "bad.csv"
        wide_csv(p, bad_row=bad_row)
        cpus(2)
        assert main(["decompose", "--input", str(p), "--output-dir", str(tmp_path / "out")]) == 1
        assert len(forks) == 1
        no_child_left()
        err = capsys.readouterr().err
        assert err == f"error: {p}:{bad_row + 2}: could not convert string to float: 'oops'\n"
        assert not (tmp_path / "out").exists()

    def test_dead_writer_helper_is_an_io_error(self, tmp_path, noise_csv, cpus, monkeypatch,
                                               capsys):
        cpus(2)
        caller, chunk = os.getpid(), cli._Table.chunk

        def dies_in_helpers(table, k):
            if os.getpid() != caller:
                os._exit(0)
            return chunk(table, k)

        monkeypatch.setattr(cli._Table, "chunk", dies_in_helpers)
        assert main(["decompose", "--input", str(noise_csv), *self.DECOMPOSE,
                     "--output-dir", str(tmp_path / "out")]) == 3
        no_child_left()
        err = capsys.readouterr().err
        assert re.fullmatch(r"i/o error: forked process \d+ died\n", err)

    def test_dead_reader_helper_is_an_io_error(self, tmp_path, cpus, monkeypatch, capsys):
        cpus(2)
        caller, read_span = os.getpid(), cli._read_span

        def dies_in_helpers(*args):
            if os.getpid() != caller:
                os._exit(0)
            return read_span(*args)

        monkeypatch.setattr(cli, "_read_span", dies_in_helpers)
        p = tmp_path / "in.csv"
        wide_csv(p)
        assert main(["decompose", "--input", str(p), "--output-dir", str(tmp_path / "out")]) == 3
        no_child_left()
        assert re.fullmatch(r"i/o error: forked process \d+ died\n", capsys.readouterr().err)

    @pytest.mark.parametrize("newline, bom, forked", [
        ("\r\n", False, True), ("\r", False, False), ("\n", True, True)])
    def test_line_endings_and_byte_order_mark(self, tmp_path, cpus, forks, newline, bom,
                                              forked):
        # A CR-only file has no "\n" to cut at, so the caller parses it alone.
        p = tmp_path / "in.csv"
        table = wide_csv(p, newline=newline, bom=bom)
        cpus(2)
        sig = read_signal_csv(p)
        assert len(forks) == forked
        no_child_left()
        assert [c.samples.tobytes() for c in sig.channels] == [
            table[:, j].tobytes() for j in range(1, 15)]
        assert sig.channels[0].t0 == 0.0

    def test_no_fork_below_the_size_rule(self, tmp_path, cpus, forks, capsys):
        # 16,384 rows x 2 columns, and every artifact of this decompose,
        # hold fewer than two shares of values.
        cpus(2)
        p = tmp_path / "in.csv"
        write_csv(p, [SampledSignal(np.random.default_rng(2).standard_normal(16384), 1000.0)])
        read_signal_csv(p)
        assert main(["decompose", "--input", str(p), "--max-imfs", "2",
                     "--output-dir", str(tmp_path / "out")]) == 0
        assert forks == []
        p = tmp_path / "wide.csv"
        wide_csv(p)
        read_signal_csv(p)
        assert len(forks) == 1
        no_child_left()

    def test_no_fork_while_another_thread_runs(self, tmp_path, noise_csv, cpus, forks, capsys):
        cpus(2)
        p = tmp_path / "wide.csv"
        table = wide_csv(p)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            sig = read_signal_csv(p)
            assert main(["decompose", "--input", str(noise_csv), *self.DECOMPOSE,
                         "--output-dir", str(tmp_path / "out")]) == 0
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert forks == []
        assert sig.channels[0].samples.tobytes() == table[:, 1].tobytes()
