import json

import numpy as np
import pytest

from emdkit import SampledSignal
from emdkit.cli import main, read_signal_csv
from conftest import sine


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

    @pytest.mark.parametrize("flags", [["--max-imfs", "-1"],
                                       ["--out", "spectrum", "--freq-bins", "0"],
                                       ["--out", "spectrum", "--time-bins", "0"]])
    def test_invalid_counts(self, two_tone_csv, tmp_path, capsys, flags):
        assert main(["decompose", "--input", str(two_tone_csv), *flags,
                     "--output-dir", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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

    def test_missing_artifacts(self, tmp_path):
        assert main(["verify", str(tmp_path)]) == 1
