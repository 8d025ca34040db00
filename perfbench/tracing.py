"""Spans around querybound's public functions, installed from outside the program.

The tracer replaces each listed function, and every alias of it that another
querybound module imported, with a wrapper that records a span: name, thread,
start, end and the span that called it.  Each thread keeps its own span stack,
so self time (duration minus the time of child spans in the same thread) stays
right when certify runs its trials on a thread pool.  Spans are kept in memory
and written out once, after the run.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from collections import defaultdict

MODULES = ("transforms", "boolfn", "fourier_operator", "certify", "interrogation", "moments", "cli")

# (module, attribute path) of every traced callable.
TARGETS = (
    ("transforms", "fwht_in_place"),
    ("transforms", "build_weight_index"),
    ("boolfn", "sample_uniform"),
    ("boolfn", "fourier"),
    ("fourier_operator", "TruncatedFourierOperator.apply"),
    ("fourier_operator", "build_dense"),
    ("fourier_operator", "build_matrix_free"),
    ("fourier_operator", "spectral_norm"),
    ("certify", "certify_lower_bound"),
    ("certify", "certify_random_sweep"),
    ("interrogation", "simulate_sampled"),
    ("interrogation", "simulate_exact"),
    ("moments", "expected_trace_moment_exhaustive"),
    ("moments", "claim2_bruteforce"),
    ("moments", "expected_sign_product"),
    ("moments", "evenness_check"),
    ("cli", "main"),
    ("cli", "run_claim1_sweep"),
    ("cli", "write_rows"),
)


class Span:
    __slots__ = ("idx", "name", "thread", "parent", "start", "end", "child_s", "cpu_s", "attrs")

    def __init__(self, idx, name, thread, parent):
        self.idx, self.name, self.thread, self.parent = idx, name, thread, parent
        self.child_s = 0.0
        self.cpu_s = 0.0
        self.attrs = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s


def _fwht_stages(args, kwargs, result):
    m = args[0].shape[0]
    return {"stages": (m.bit_length() - 1) * m}


def _norm_attrs(args, kwargs, result):
    op = args[0]
    return {"mode": op.mode, "iterations": result.iterations, "value": result.value,
            "f": op.f, "t": op.t}


def _dense_bytes(args, kwargs, result):
    b = result.size
    return {"bytes": 16 * b * b}  # int64 XOR table plus float64 matrix, B^2 entries each


def _truncations(args, kwargs, result):
    return {"truncations": len(result.evidence)}


OBSERVERS = {
    "transforms.fwht_in_place": _fwht_stages,
    "fourier_operator.spectral_norm": _norm_attrs,
    "fourier_operator.build_dense": _dense_bytes,
    "certify.certify_lower_bound": _truncations,
}
CPU_TIMED = {"certify.certify_random_sweep"}


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count()
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        timed_cpu = name in CPU_TIMED
        local, spans, ids = self._local, self.spans, self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span = Span(next(ids), name, threading.get_ident(), stack[-1] if stack else None)
            stack.append(span)
            cpu0 = time.process_time() if timed_cpu else 0.0
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if timed_cpu:
                    span.cpu_s = time.process_time() - cpu0
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.duration
                spans.append(span)
            if observe is not None:
                span.attrs = observe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        mods = {m: importlib.import_module(f"querybound.{m}") for m in MODULES}
        wrapped = {}
        for mod, path in TARGETS:
            owner = mods[mod]
            *cls, attr = path.split(".")
            for c in cls:
                owner = getattr(owner, c)
            original = getattr(owner, attr)
            wrapper = self._wrap(f"{mod}.{path}", original)
            self._patch(owner, attr, original, wrapper)
            wrapped[id(original)] = (original, wrapper)
        # Names other modules imported with "from .x import f" still point at the original.
        for owner in [importlib.import_module("querybound"), *mods.values()]:
            for attr, value in list(vars(owner).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(owner, attr, value, hit[1])

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._restore.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for s in sorted(self.spans, key=lambda s: s.idx):
                fh.write(json.dumps([s.idx, s.parent.idx if s.parent else None, s.name,
                                     s.thread, s.start, s.end, s.self_s]) + "\n")


# (metric, unit, better) for every per-layer metric; BENCHMARK.json lists the same.
LAYER_METRICS = (
    ("transforms.fwht_in_place.calls", "count", "lower"),
    ("transforms.fwht_in_place.self_s", "s", "lower"),
    ("transforms.fwht_in_place.rate", "stage/s", "higher"),
    ("transforms.build_weight_index.calls", "count", "lower"),
    ("transforms.build_weight_index.self_s", "s", "lower"),
    ("boolfn.sample_uniform.self_s", "s", "lower"),
    ("boolfn.fourier.self_s", "s", "lower"),
    ("fourier_operator.TruncatedFourierOperator.apply.calls", "count", "lower"),
    ("fourier_operator.TruncatedFourierOperator.apply.self_s", "s", "lower"),
    ("fourier_operator.spectral_norm.calls", "count", "lower"),
    ("fourier_operator.spectral_norm.iterations", "count", "lower"),
    ("fourier_operator.spectral_norm.applies_per_norm", "apply/norm", "lower"),
    ("fourier_operator.spectral_norm.matrix_free_self_s", "s", "lower"),
    ("fourier_operator.spectral_norm.dense_self_s", "s", "lower"),
    ("fourier_operator.spectral_norm.max_abs_error", "norm", "lower"),
    ("fourier_operator.build_dense.self_s", "s", "lower"),
    ("fourier_operator.build_dense.bytes", "B", "lower"),
    ("certify.certify_lower_bound.calls", "count", "lower"),
    ("certify.certify_lower_bound.s", "s", "lower"),
    ("certify.certify_lower_bound.truncations", "count", "lower"),
    ("certify.certify_random_sweep.cpu_per_wall", "s/s", "lower"),
    ("interrogation.simulate_sampled.calls", "count", "lower"),
    ("interrogation.simulate_sampled.self_s", "s", "lower"),
    ("interrogation.simulate_exact.self_s", "s", "lower"),
    ("moments.expected_trace_moment_exhaustive.self_s", "s", "lower"),
    ("moments.claim2_bruteforce.self_s", "s", "lower"),
    ("moments.expected_sign_product.calls", "count", "lower"),
    ("moments.expected_sign_product.self_s", "s", "lower"),
    ("moments.evenness_check.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("cli.run_claim1_sweep.self_s", "s", "lower"),
    ("cli.write_rows.self_s", "s", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
)


def layer_values(spans: list[Span], max_abs_error: float, overhead_share: float) -> dict[str, float]:
    """Aggregate spans into the per-layer metrics, by name."""
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    attr_sum: dict[str, float] = defaultdict(float)
    cpu_s = 0.0
    for s in spans:
        calls[s.name] += 1
        self_s[s.name] += s.self_s
        incl_s[s.name] += s.duration
        cpu_s += s.cpu_s
        if s.attrs is None:
            continue
        if s.name == "fourier_operator.spectral_norm":
            attr_sum["iterations"] += s.attrs["iterations"]
            mode = s.attrs["mode"]
            attr_sum[f"{mode}_calls"] += 1
            attr_sum[f"{mode}_self_s"] += s.self_s
        else:
            for key, val in s.attrs.items():
                attr_sum[key] += val

    fwht, norm = "transforms.fwht_in_place", "fourier_operator.spectral_norm"
    apply_calls = calls["fourier_operator.TruncatedFourierOperator.apply"]
    sweep_wall = incl_s["certify.certify_random_sweep"]
    values: dict[str, float] = {}
    for name, _, _ in LAYER_METRICS:
        layer, quantity = name.rsplit(".", 1)
        if quantity == "calls":
            values[name] = calls[layer]
        elif quantity == "self_s":
            values[name] = self_s[layer]
    values.update({
        f"{fwht}.rate": attr_sum["stages"] / self_s[fwht] if self_s[fwht] else 0.0,
        f"{norm}.iterations": attr_sum["iterations"],
        f"{norm}.applies_per_norm": (apply_calls / attr_sum["matrix_free_calls"]
                                     if attr_sum["matrix_free_calls"] else 0.0),
        f"{norm}.matrix_free_self_s": attr_sum["matrix_free_self_s"],
        f"{norm}.dense_self_s": attr_sum["dense_self_s"],
        f"{norm}.max_abs_error": max_abs_error,
        "fourier_operator.build_dense.bytes": attr_sum["bytes"],
        "certify.certify_lower_bound.s": incl_s["certify.certify_lower_bound"],
        "certify.certify_lower_bound.truncations": attr_sum["truncations"],
        "certify.certify_random_sweep.cpu_per_wall": cpu_s / sweep_wall if sweep_wall else 0.0,
        "trace.overhead_share": overhead_share,
    })
    return values
