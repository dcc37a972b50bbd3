"""Tests for the benchmark's tracer.

    python3 -m pytest perfbench/tests
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent.parent / "src"), str(HERE.parent)]

import emdkit  # noqa: E402
import emdkit.cli  # noqa: E402,F401
from tracer import Tracer, emdkit_namespaces, layer_metrics, self_times  # noqa: E402


def test_self_time_of_a_nested_tree():
    # root [0, 10] holds A [1, 4] (which holds G [2, 3]) and B [5, 9].
    spans = [
        ["bench.op", 0.0, 10.0, -1, 0],
        ["emd.sift_one_imf", 1.0, 4.0, 0, 0],
        ["envelope.build_envelopes", 2.0, 3.0, 1, 0],
        ["envelope.build_envelopes", 5.0, 9.0, 0, 0],
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]

    m = layer_metrics(spans, {})
    assert m["bench.op.self_s"] == 3.0
    assert m["envelope.build_envelopes.calls"] == 2
    assert m["envelope.build_envelopes.self_s"] == 5.0
    # Only the build whose parent is a sift counts as a sift iteration.
    assert m["emd.sift_iterations"] == 1
    # Self times partition the root span exactly.
    assert m["trace.self_sum_s"] == 10.0


def test_spans_nest_under_a_fake_clock():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    with tr.span("bench.a"):
        with tr.span("inner"):
            pass
        with tr.span("inner"):
            pass
    assert tr.spans == [
        ["bench.a", 0.0, 5.0, -1, -1],
        ["inner", 1.0, 2.0, 0, -1],
        ["inner", 3.0, 4.0, 0, -1],
    ]
    assert self_times(tr.spans) == [3.0, 1.0, 1.0]


def _snapshot():
    objects = {(m.__name__, k): v for m in emdkit_namespaces() for k, v in vars(m).items()}
    objects[("SampledSignal", "__post_init__")] = emdkit.SampledSignal.__post_init__
    return objects


def _traced_calls():
    rng = np.random.default_rng(7)
    x = emdkit.SampledSignal(rng.standard_normal(512), 1.0)
    tr = Tracer()
    with tr.installed():
        # Package-level names resolve to the wrappers, as the CLI's do.
        emdkit.epemd(x)
        sys.modules["emdkit.memd"].memd(
            emdkit.MultivariateSignal((x, x.with_samples(np.roll(x.samples, 5)))), 8,
            emdkit.SiftConfig(max_imfs=2))
    return tr


def test_every_wrapped_attribute_is_restored():
    before = _snapshot()
    tr = _traced_calls()
    after = _snapshot()
    assert before.keys() == after.keys()
    changed = [k for k in before if before[k] is not after[k]]
    assert changed == []
    assert tr.spans, "the traced calls recorded no spans"


def test_wrappers_are_installed_in_every_binding_namespace():
    tr = Tracer()
    originals = (sys.modules["emdkit.envelope"].cubic_spline,
                 sys.modules["emdkit.emd"].build_envelopes)
    with tr.installed():
        assert sys.modules["emdkit.memd"].cubic_spline is not originals[0]
        assert sys.modules["emdkit.envelope"].cubic_spline is sys.modules["emdkit.memd"].cubic_spline
        assert sys.modules["emdkit.emd"].build_envelopes is not originals[1]
        with pytest.raises(RuntimeError):
            tr.install()


def test_counts_repeat_exactly():
    a = layer_metrics(*(lambda t: (t.spans, t.counts))(_traced_calls()))
    b = layer_metrics(*(lambda t: (t.spans, t.counts))(_traced_calls()))
    counts = {k for k in a if not k.endswith("_s")}
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["memd.direction_use_ratio"] == 1.0
    assert a["memd.cubic_spline.calls"] == 2 * 2 * 8 * a["memd.multivariate_mean_envelope.calls"]
    assert a["core.signals_built"] > 0
    assert a["emd.sift_iterations"] > 0
