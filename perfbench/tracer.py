"""Spans and counters around the public functions of the emdkit modules.

The tracer works from outside the library: it replaces every public
function of each emdkit submodule, in every emdkit namespace that binds
it, with a wrapper that records a span, and puts the originals back when
it is uninstalled. A function imported into another module
(``build_envelopes`` into ``emdkit.emd``, ``cubic_spline`` into
``emdkit.memd``) is therefore traced whichever module calls it.

Spans are kept in memory as ``[name, start, end, parent, op]`` rows,
where ``parent`` is the index of the enclosing span (-1 for none) and
``op`` is the benchmark operation that was running. Self time is a span's
duration minus the durations of its direct children; calls in one thread
nest, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from collections import Counter
from contextlib import contextmanager

#: emdkit submodules whose public functions are traced; each is a layer.
LAYERS = (
    "core", "envelope", "emd", "epemd", "memd", "gsom", "hsa", "metrics",
    "significance", "siggen", "cli",
)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _count_extrema(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["envelope.detect_extrema.extrema"] += result.n_extrema


def _count_spline(tr, args, kwargs, result, exc):
    tr.counts["envelope.cubic_spline.knots"] += len(_arg(args, kwargs, 0, "knots_t"))
    tr.counts["envelope.cubic_spline.queries"] += len(_arg(args, kwargs, 2, "query_t"))


def _count_no_envelope(tr, args, kwargs, result, exc):
    if type(exc).__name__ == "NoEnvelopeError":
        tr.counts["envelope.build_envelopes.no_envelope"] += 1


def _count_imf_pass(tr, args, kwargs, result, exc):
    if exc is None and result:
        tr.counts["emd.is_imf.passed"] += 1


def _count_direction_slots(tr, args, kwargs, result, exc):
    # Each used direction splines every channel twice (upper and lower).
    x = _arg(args, kwargs, 0, "x")
    dirs = _arg(args, kwargs, 1, "dirs")
    tr.counts["memd.spline_slots"] += 2 * x.n_channels * dirs.count


#: Work counters recorded at a layer boundary: span name -> hook.
HOOKS = {
    "envelope.detect_extrema": _count_extrema,
    "envelope.cubic_spline": _count_spline,
    "envelope.build_envelopes": _count_no_envelope,
    "emd.is_imf": _count_imf_pass,
    "memd.multivariate_mean_envelope": _count_direction_slots,
}


def public_functions():
    """``{original function: span name}`` for every public function
    defined in one of the loaded ``emdkit.<layer>`` modules."""
    found = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"emdkit.{layer}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if (not name.startswith("_") and isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                found[obj] = f"{layer}.{name}"
    return found


def emdkit_namespaces():
    """Every loaded emdkit module, the package itself included. Reached
    through ``sys.modules`` because ``emdkit.emd`` and friends resolve
    to functions on the package, not to the submodules."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "emdkit" or name.startswith("emdkit."))]


class Tracer:
    """Records spans and counters while installed; single-threaded."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------

    def _open(self, name):
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.op])
        self._stack.append(idx)
        self.spans[idx][1] = self.clock()
        return idx

    def _close(self, idx):
        self.spans[idx][2] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        """A span opened by the benchmark itself, such as one per op."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name, fn):
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                self._close(idx)
                if hook is not None:
                    hook(self, args, kwargs, result, exc)

        return traced

    # -- installation ----------------------------------------------------

    def install(self):
        """Wrap every public function in every namespace that binds it,
        and count ``SampledSignal`` constructions."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        names = public_functions()
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        for mod in emdkit_namespaces():
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrappers:
                    self._patch(mod, attr, wrappers[obj])

        signal_cls = sys.modules["emdkit.core"].SampledSignal
        post_init = signal_cls.__post_init__
        counts = self.counts

        @functools.wraps(post_init)
        def counted_post_init(sig):
            counts["core.signals_built"] += 1
            post_init(sig)

        self._patch(signal_cls, "__post_init__", counted_post_init)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        """Put every original object back, in reverse order."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- aggregation -----------------------------------------------------

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent,op\n")
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op}\n")


def self_times(spans):
    """Per span: its duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(spans, counts):
    """Aggregate spans and counters into ``<module>.<function>.<stat>``
    metrics, plus the derived per-layer counts the benchmark reports."""
    calls: Counter = Counter()
    self_s: Counter = Counter()
    for (name, *_), own in zip(spans, self_times(spans)):
        calls[name] += 1
        self_s[name] += own

    def parent_name(row):
        return spans[row[3]][0] if row[3] >= 0 else None

    sift_iterations = sum(
        1 for row in spans
        if row[0] == "envelope.build_envelopes" and parent_name(row) == "emd.sift_one_imf")
    memd_splines = sum(
        1 for row in spans
        if row[0] == "envelope.cubic_spline"
        and parent_name(row) == "memd.multivariate_mean_envelope")

    out: dict[str, float] = {}
    for name in calls:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    out.update(counts)
    out["emd.sift_iterations"] = sift_iterations
    out["memd.cubic_spline.calls"] = memd_splines
    slots = counts.get("memd.spline_slots", 0)
    out["memd.direction_use_ratio"] = memd_splines / slots if slots else 0.0
    imf_tests = calls.get("emd.is_imf", 0)
    out["emd.is_imf.pass_ratio"] = counts.get("emd.is_imf.passed", 0) / imf_tests if imf_tests else 0.0
    out["trace.spans"] = len(spans)
    out["trace.self_sum_s"] = sum(self_s.values())
    return out
