"""Spans around the public functions of each normlog layer.

``install`` rebinds every wrapped function in every ``normlog`` module
namespace that holds it, because the package imports functions by name
(``checks``, ``spectral``, ``logs``, ``generators`` and ``suite`` each
hold their own reference). ``Region.contains`` and ``linalg.frob`` are
only counted: they are called hundreds of thousands of times and are
too small to time without distorting them.

A span is ``[name, start, end, parent, instance, n]``: ``parent`` is the
index of the enclosing span (-1 at top level), ``instance`` identifies
the pair built by the most recent ``make_pair`` call, and ``n`` is the
matrix dimension of the call's first argument.
"""

from __future__ import annotations

import importlib
import json
import statistics
import sys
import time
from collections import Counter, defaultdict

TIMED = {
    "harness.generators": ("make_pair",),
    "harness.rng": ("random_unitary",),
    "checks": (
        "check_real_part", "check_spectral_agreement", "check_modulus_equal",
        "check_modulus_commute", "check_square_commute",
        "check_corollary_cases", "check_difference_formula",
        "check_congruence_free", "check_double_commutant",
        "check_one_boundary_eigenvalue", "check_y_in_bicommutant_of_exp",
        "check_kurepa",
    ),
    "spectral": ("normal_eig", "spectral_measure", "strip_projections",
                 "borel_calculus"),
    "logs": ("exp_general", "principal_log", "kurepa_decompose"),
    "linalg": ("herm_eig", "simultaneous_diagonalize", "is_normal", "modulus",
               "commutant_basis", "in_double_commutant"),
}
COUNTED = ("linalg.frob", "spectral.Region.contains")
MAKE_PAIR = "generators.make_pair"


def _layer(module: str) -> str:
    return module.rsplit(".", 1)[-1]


def _size(args) -> int:
    if not args:
        return 0
    first = args[0]
    if isinstance(first, int):
        return first
    shape = getattr(first, "shape", None)
    return shape[0] if shape else getattr(first, "n", 0)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instance = ""

    def timed(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            if name == MAKE_PAIR:
                spec = args[0]
                self._instance = f"{spec.family}/n{spec.n}/s{spec.seed}"
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   self._instance, _size(args)]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever normlog holds it."""
        import normlog
        from normlog import spectral

        swap = {}
        for module, names in TIMED.items():
            mod = importlib.import_module(f"normlog.{module}")
            for fname in names:
                orig = getattr(mod, fname)
                swap[orig] = self.timed(f"{_layer(module)}.{fname}", orig)
        frob = normlog.linalg.frob
        swap[frob] = self.counted("linalg.frob", frob)

        modules = [m for k, m in sys.modules.items()
                   if k == "normlog" or k.startswith("normlog.")]
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if callable(value) and value in swap:
                    setattr(mod, attr, swap[value])
        spectral.Region.contains = self.counted(
            "spectral.Region.contains", spectral.Region.contains)

        left = [f"{mod.__name__}.{attr}" for mod in modules
                for attr, value in vars(mod).items()
                if callable(value) and value in swap]
        if left:
            raise RuntimeError(f"unwrapped references remain: {left}")

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"counts": dict(self.counts), "spans": self.spans}, fh)


def load(path: str) -> tuple[list, dict]:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["spans"], doc["counts"]


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _, _), c in zip(spans, child)]


def layer_metrics(spans: list, counts: dict) -> dict:
    """Calls and self time per wrapped function, plus the exact counts."""
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        calls[span[0]] += 1
        self_s[span[0]] += own
    out = {}
    for module, names in TIMED.items():
        for fname in names:
            name = f"{_layer(module)}.{fname}"
            out[f"{name}.calls"] = (calls[name], "count")
            out[f"{name}.self_s"] = (self_s[name], "s")
    for name in COUNTED:
        out[f"{name}.calls"] = (counts.get(name, 0), "count")
    instances = calls[MAKE_PAIR]
    for name in ("spectral.normal_eig", "logs.exp_general"):
        short = name.split(".")[1]
        out[f"checks.{short}_per_instance"] = (
            calls[name] / instances if instances else 0.0, "ratio")
    out["linalg.commutant_basis.bytes_computed"] = (
        sum(16 * s[5] ** 4 for s in spans if s[0] == "linalg.commutant_basis"),
        "bytes")
    return out


def per_call_ms(spans: list) -> dict:
    """Median inclusive span duration per (function, n), in ms."""
    durations: defaultdict = defaultdict(list)
    for name, start, end, _, _, n in spans:
        durations[(name, n)].append(end - start)
    return {key: 1e3 * statistics.median(v) for key, v in durations.items()}
