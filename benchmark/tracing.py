"""In-memory span tracer for the ajscc modules, installed from outside ``src/``.

``Tracer.install`` rebinds every public function of the traced modules, in its
defining module and in every ``ajscc`` module that imported it by name, plus
``numpy.fft.rfft``.  Each call records one span: name, start, end and the span
that was open when it began.  ``uninstall`` puts the originals back.

``summarize`` turns the spans into per-name call counts, self times (duration
minus the durations of direct child spans) and work counts, and
``per_layer_metrics`` derives the benchmark's per-layer metrics from the spans.
"""
from __future__ import annotations

import functools
import sys
import time
import types
from array import array

import numpy as np

TRACED_MODULES = ("mapping", "circuit", "signal_chain", "multisensor", "metrics", "experiments")
RFFT_SPAN = "signal_chain.rfft"
ENTRY_POINTS = ("run_mse_vs_L", "run_sdr_vs_csnr", "run_roundtrip_suite")


def _rfft_points(args, kwargs, result) -> int:
    """Sum of transform lengths of one numpy.fft.rfft call."""
    a = np.asarray(args[0])
    n = kwargs.get("n", args[1] if len(args) > 1 else None)
    axis = kwargs.get("axis", args[2] if len(args) > 2 else -1)
    length = a.shape[axis] if n is None else n
    return (a.size // max(a.shape[axis], 1)) * length


def _operations(args, kwargs, result) -> int:
    """Sweep rows or check results returned by an experiment entry point."""
    return len(result.checks) if hasattr(result, "checks") else len(result.rows)


class Tracer:
    """Records spans of wrapped calls into flat arrays (24 bytes per span)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.count = array("q")
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, span_name: str, fn, counter=None):
        nid = len(self.names)
        self.names.append(span_name)
        clock = time.perf_counter
        start, end, name, parent, count, stack = (
            self.start, self.end, self.name, self.parent, self.count, self._stack
        )

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name.append(nid)
            parent.append(stack[-1])
            count.append(0)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                count[idx] = counter(args, kwargs, result)
            return result

        return traced

    def _rebind(self, original, wrapped) -> None:
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "ajscc" or mod_name.startswith("ajscc.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, original))
                    setattr(mod, attr, wrapped)

    def install(self) -> None:
        import ajscc

        for short in TRACED_MODULES:
            module = getattr(ajscc, short)
            for attr in module.__all__:
                fn = getattr(module, attr)
                if not isinstance(fn, types.FunctionType) or fn.__module__ != module.__name__:
                    continue
                counter = _operations if attr in ENTRY_POINTS else None
                self._rebind(fn, self.wrap(f"{short}.{attr}", fn, counter))
        rfft = np.fft.rfft
        self._undo.append((np.fft, "rfft", rfft))
        np.fft.rfft = self.wrap(RFFT_SPAN, rfft, _rfft_points)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "names": np.array(self.names),
            "name": np.frombuffer(self.name, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "count": np.frombuffer(self.count, dtype=np.int64).copy(),
        }


def summarize(spans: dict[str, np.ndarray]) -> dict[str, dict]:
    """Per span name: calls, self_s and the summed work count."""
    names, name = spans["names"], spans["name"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    nested = parent >= 0
    child_time = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    self_time = dur - child_time
    k = len(names)
    calls = np.bincount(name, minlength=k)
    self_s = np.bincount(name, weights=self_time, minlength=k)
    work = np.bincount(name, weights=spans["count"], minlength=k)
    return {
        str(n): {"calls": int(calls[i]), "self_s": float(self_s[i]), "count": int(work[i])}
        for i, n in enumerate(names)
    }


# (metric, unit, span, field): field is "calls", "self_s" or the summed work "count"
SPAN_METRICS = (
    ("mapping.encode.calls", "count", "mapping.encode", "calls"),
    ("mapping.encode.self_s", "s", "mapping.encode", "self_s"),
    ("mapping.decode.calls", "count", "mapping.decode", "calls"),
    ("mapping.decode.self_s", "s", "mapping.decode", "self_s"),
    ("circuit.circuit_encode.calls", "count", "circuit.circuit_encode", "calls"),
    ("circuit.circuit_encode.self_s", "s", "circuit.circuit_encode", "self_s"),
    ("circuit.comparator_selects.calls", "count", "circuit.comparator_selects", "calls"),
    ("circuit.comparator_selects.self_s", "s", "circuit.comparator_selects", "self_s"),
    ("signal_chain.fm_modulate.calls", "count", "signal_chain.fm_modulate", "calls"),
    ("signal_chain.fm_modulate.self_s", "s", "signal_chain.fm_modulate", "self_s"),
    ("signal_chain.apply_channel.calls", "count", "signal_chain.apply_channel", "calls"),
    ("signal_chain.apply_channel.self_s", "s", "signal_chain.apply_channel", "self_s"),
    ("signal_chain.rfft.calls", "count", RFFT_SPAN, "calls"),
    ("signal_chain.rfft.self_s", "s", RFFT_SPAN, "self_s"),
    ("signal_chain.rfft.points", "count", RFFT_SPAN, "count"),
    ("signal_chain.magnitude_spectrum.self_s", "s", "signal_chain.magnitude_spectrum", "self_s"),
    ("signal_chain.peak_from_spectrum.calls", "count", "signal_chain.peak_from_spectrum", "calls"),
    ("signal_chain.peak_from_spectrum.self_s", "s", "signal_chain.peak_from_spectrum", "self_s"),
    ("signal_chain.transmit_receive.self_s", "s", "signal_chain.transmit_receive", "self_s"),
    ("multisensor.build_capture.calls", "count", "multisensor.build_capture", "calls"),
    ("multisensor.build_capture.self_s", "s", "multisensor.build_capture", "self_s"),
    ("multisensor.diversity_combine.self_s", "s", "multisensor.diversity_combine", "self_s"),
    ("multisensor.simulate_cluster.self_s", "s", "multisensor.simulate_cluster", "self_s"),
    ("metrics.estimate_csnr.calls", "count", "metrics.estimate_csnr", "calls"),
    ("metrics.estimate_csnr.self_s", "s", "metrics.estimate_csnr", "self_s"),
    ("metrics.sdr.calls", "count", "metrics.sdr", "calls"),
)

# metrics that must repeat exactly between two traced runs of the same code
EXACT_METRICS = tuple(m for m, _, _, src in SPAN_METRICS if src != "self_s") + (
    "circuit.comparator_selects_per_encode",
    "signal_chain.rfft_per_chain",
    "experiments.points",
)


def per_layer_metrics(spans: dict[str, np.ndarray], chains: int, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced solution.

    ``chains`` counts the solution's (trial, point, antenna) chains and
    ``untraced_wall_s`` is the same solution's time without tracing.  The traced
    wall time is the summed duration of the root spans.
    """
    summary = summarize(spans)

    def get(span: str, field: str):
        return summary.get(span, {}).get(field, 0)

    roots = spans["parent"] < 0
    traced_wall_s = float(np.sum(spans["end"][roots] - spans["start"][roots]))
    out = {metric: (get(span, field), unit) for metric, unit, span, field in SPAN_METRICS}
    encodes = get("circuit.circuit_encode", "calls")
    selects = get("circuit.comparator_selects", "calls")
    out["circuit.comparator_selects_per_encode"] = (selects / encodes if encodes else 0.0, "ratio")
    out["signal_chain.rfft_per_chain"] = (get(RFFT_SPAN, "calls") / chains, "ratio")
    layers_self = sum(
        rec["self_s"] for span, rec in summary.items() if not span.startswith("experiments.")
    )
    out["experiments.self_s"] = (traced_wall_s - layers_self, "s")
    out["experiments.points"] = (
        sum(get(f"experiments.{entry}", "count") for entry in ENTRY_POINTS),
        "count",
    )
    out["trace_overhead_s"] = (traced_wall_s - untraced_wall_s, "s")
    return out
