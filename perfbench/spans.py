"""Span recording, layer wrappers and per-layer aggregation for traced runs.

Layers are measured from outside the program: ``traced`` rebinds each public
function in ``TRACED`` in every ``watertank`` module namespace that holds it
(``build_basis`` is bound in ``spectral``, ``acceptance`` and ``cli``), so a
call through any import path records exactly one span. Spans stay in memory
until the run ends. This module imports only the standard library, so a
traced child process can time its own import of the program.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import warnings
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from time import monotonic as clock  # CLOCK_MONOTONIC: one time base for all processes

TRACED = {
    "model": ("zeta_to_physical",),
    "spectral": ("find_eigenvalues", "build_basis", "w_modes", "kato_psi",
                 "first_order_perturbation"),
    "control": ("dual_exponentials", "synthesize_open_loop"),
    "feedback": ("feedback_coefficients", "physical_feedback"),
    "backstepping": ("closed_loop_spectrum", "dirichlet_sum"),
    "simulate": ("integrate_closed_loop", "integrate_open_loop_w", "fd_simulate",
                 "lyapunov_certificate", "lyapunov_functional", "integrate_target",
                 "decay_rate_estimate"),
    "finite_dim": ("backstep_pair",),
    "acceptance": ("run_criterion",),
}
CLI_COMMANDS = ("feedback", "simulate", "report")
OP = "op"  # root span of one benchmark operation; its self time is unattributed

# Every per-layer metric a traced run prints, in order, with its unit.
PER_LAYER = (
    [(f"{mod}.{fn}.self_s", "s") for mod, fns in TRACED.items() for fn in fns]
    + [
        ("spectral.find_eigenvalues.calls", "count"),
        ("spectral.build_basis.calls", "count"),
        ("spectral.build_basis.dup_frac", "ratio"),
        ("spectral.build_basis.ode_err_max", "1"),
        ("spectral.build_basis.bc_res_max", "1"),
        ("backstepping.closed_loop_spectrum.max_re", "1"),
        ("control.dual_exponentials.gram_condition", "1"),
        ("simulate.integrate_closed_loop.records", "count"),
        ("simulate.integrate_closed_loop.retries", "count"),
    ]
    + [(f"acceptance.c{cid}.s", "s") for cid in range(1, 13)]
    + [("acceptance.criteria_passed", "count"), ("cli.import_s", "s")]
    + [(f"cli.{cmd}.self_s", "s") for cmd in CLI_COMMANDS]
    + [
        ("trace.overhead_s", "s"),
        ("trace.unattributed_s", "s"),
        ("trace.unattributed_frac", "ratio"),
    ]
)


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None = None  # sid of the OP span this span belongs to
    attrs: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store for one process, plus the basis keys it has built."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._built: set = set()

    def current(self) -> int | None:
        return self._stack[-1] if self._stack else None

    def _new(self, name, start, end, parent, attrs) -> Span:
        sid = len(self.spans)
        op = sid if name == OP else (None if parent is None else self.spans[parent].op)
        s = Span(sid, name, start, end, parent, op, attrs)
        self.spans.append(s)
        return s

    @contextmanager
    def span(self, name, **attrs):
        s = self._new(name, clock(), float("nan"), self.current(), attrs)
        self._stack.append(s.sid)
        try:
            yield s
        finally:
            s.end = clock()
            self._stack.pop()

    def add(self, name, start, end, **attrs) -> Span:
        return self._new(name, start, end, self.current(), attrs)

    def merge(self, dumped):
        """Adopt spans dumped by a child process under the current span."""
        offset = len(self.spans)
        for d in dumped:
            parent = self.current() if d["parent"] is None else d["parent"] + offset
            self._new(d["name"], d["start"], d["end"], parent, d["attrs"])

    def note_build(self, key) -> bool:
        """Record a basis build; True when this process already built ``key``."""
        dup = key in self._built
        self._built.add(key)
        return dup

    def dump(self) -> list:
        return [asdict(s) for s in self.spans]


def basis_key(build_basis, args, kwargs):
    """The ``(params, kind, N, with_duals)`` key of one ``build_basis`` call.

    Defaults are resolved, so an explicit ``with_duals=True`` and a defaulted
    one give the same key (they give different ``lru_cache`` keys).
    """
    bound = inspect.signature(build_basis).bind(*args, **kwargs)
    bound.apply_defaults()
    a = bound.arguments
    n = a["N"] if a["N"] is not None else a["params"].n_modes
    return (a["params"], a["kind"], int(n), bool(a["with_duals"]))


def _observe_build(rec, span, fn, args, kwargs, basis):
    span.attrs["dup"] = rec.note_build(basis_key(fn, args, kwargs))
    span.attrs["ode_err_max"] = float(max(basis.ode_residuals))
    span.attrs["bc_res_max"] = float(max(basis.bc_residuals))


def _observe_spectrum(rec, span, fn, args, kwargs, eig):
    span.attrs["max_re"] = float(eig.real.max())


def _observe_duals(rec, span, fn, args, kwargs, duals):
    span.attrs["gram_condition"] = float(duals.gram_condition)


def _observe_closed_loop(rec, span, fn, args, kwargs, traj):
    span.attrs["records"] = int(traj.times.size)


OBSERVERS = {
    "spectral.build_basis": _observe_build,
    "backstepping.closed_loop_spectrum": _observe_spectrum,
    "control.dual_exponentials": _observe_duals,
    "simulate.integrate_closed_loop": _observe_closed_loop,
}
RETRY_WARNING = "closed-loop step rejected"


def _wrap(rec, name, fn):
    observe = OBSERVERS.get(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name) as span:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                result = fn(*args, **kwargs)
            for w in caught:
                warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
            retries = sum(RETRY_WARNING in str(w.message) for w in caught)
            if retries:
                span.attrs["retries"] = retries
            if observe is not None:
                observe(rec, span, fn, args, kwargs, result)
            return result

    return wrapper


@contextmanager
def traced(rec):
    """Wrap every ``TRACED`` function wherever a watertank module binds it."""
    for mod in (*TRACED, "cli"):
        importlib.import_module(f"watertank.{mod}")
    loaded = [m for n, m in list(sys.modules.items())
              if n == "watertank" or n.startswith("watertank.")]
    patched = []
    for mod, names in TRACED.items():
        home = sys.modules[f"watertank.{mod}"]
        for fname in names:
            orig = getattr(home, fname)
            wrapper = _wrap(rec, f"{mod}.{fname}", orig)
            for m in loaded:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
                        patched.append((m, attr, orig))
    try:
        yield rec
    finally:
        for m, attr, orig in patched:
            setattr(m, attr, orig)


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    kids: dict = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(kids.get(s.sid, ()), s.start, s.end)
            for s in spans}


def layer_metrics(spans, traced_op_s, untraced_op_s) -> dict:
    """Per-op layer metrics of a traced run, keyed like ``PER_LAYER``.

    ``spans`` holds one ``OP`` root span per traced op (its attrs carry facts
    the op read from the program's output, e.g. ``acceptance.c1.s``). Sums are
    divided by the number of traced ops; maxima and ratios are over the run;
    ``trace.overhead_s`` compares op medians of the traced and untraced ops.
    A layer that a workload does not exercise reads 0.
    """
    selfs = self_times(spans)
    n_ops = max(1, sum(s.name == OP for s in spans))
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def per_op(total):
        return total / n_ops

    def self_sum(name):
        return sum(selfs[s.sid] for s in by_name.get(name, ()))

    def attr_values(name, key):
        return [s.attrs[key] for s in by_name.get(name, ()) if key in s.attrs]

    out = {f"{mod}.{fn}.self_s": per_op(self_sum(f"{mod}.{fn}"))
           for mod, fns in TRACED.items() for fn in fns}
    builds = by_name.get("spectral.build_basis", [])
    out["spectral.find_eigenvalues.calls"] = per_op(
        len(by_name.get("spectral.find_eigenvalues", ())))
    out["spectral.build_basis.calls"] = per_op(len(builds))
    out["spectral.build_basis.dup_frac"] = (
        sum(bool(s.attrs.get("dup")) for s in builds) / len(builds) if builds else 0.0
    )
    for name, key in (("spectral.build_basis", "ode_err_max"),
                      ("spectral.build_basis", "bc_res_max"),
                      ("backstepping.closed_loop_spectrum", "max_re"),
                      ("control.dual_exponentials", "gram_condition")):
        out[f"{name}.{key}"] = max(attr_values(name, key), default=0.0)
    for key in ("records", "retries"):
        out[f"simulate.integrate_closed_loop.{key}"] = per_op(
            sum(attr_values("simulate.integrate_closed_loop", key)))
    for key in [f"acceptance.c{cid}.s" for cid in range(1, 13)] + ["acceptance.criteria_passed"]:
        out[key] = per_op(sum(attr_values(OP, key)))
    imports = [s.end - s.start for s in by_name.get("cli.import", ())]
    out["cli.import_s"] = statistics.fmean(imports) if imports else 0.0
    for cmd in CLI_COMMANDS:
        out[f"cli.{cmd}.self_s"] = per_op(self_sum(f"cli.{cmd}"))
    op_total = sum(s.end - s.start for s in by_name.get(OP, ()))
    out["trace.overhead_s"] = statistics.median(traced_op_s) - statistics.median(untraced_op_s)
    out["trace.unattributed_s"] = per_op(self_sum(OP))
    out["trace.unattributed_frac"] = self_sum(OP) / op_total if op_total else 0.0
    return out
