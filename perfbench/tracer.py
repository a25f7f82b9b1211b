"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own code: ``install`` replaces every
binding of the traced obstructkit functions (the modules import each other by
name, so each module holds its own reference) and the ``numpy.linalg``
entry points with wrappers that open and close a span.  Nothing in
``src/obstructkit`` knows about tracing, and nothing is installed unless the
traced run asks for it.

A span is (name, parent span, op id, start, end).  Spans stay in memory and
are written out once, when the run ends.  A span's self time is its duration
minus the part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
from array import array

# Public functions traced per obstructkit module.  "construct" and
# "evaluate" are QuasiRep methods (validation in __post_init__, evaluation).
TRACED = {
    "matcore": (
        "as_matrix",
        "op_norm",
        "require_unitary",
        "polar_unitary",
        "hermitian_eigensystem",
        "spectral_projection",
        "matrix_to_json",
        "matrix_from_json",
    ),
    "words": ("canonical_form", "word_matrix", "is_free_abelian"),
    "quasirep": ("construct", "evaluate", "defect", "unitarize", "approx_mult_audit"),
    "seeding": ("haar_unitary", "random_hermitian", "random_projection"),
    "winding": ("winding_of_unitary", "winding_pair", "winding_class"),
    "projops": (
        "projection_pair_context",
        "connecting_unitary",
        "chain_conjugation",
        "pairing",
    ),
    "eta": ("eta_character_abel", "abel_series_value"),
    "homology": (
        "smith_normal_form",
        "exact_determinant",
        "free_by_cyclic_h2",
        "mapping_torus_surface_h2",
    ),
    "audit": ("run_trial",),
}
LAPACK = ("svd", "eigh", "eigvals", "det", "qr")
_METHODS = {"construct": "__post_init__", "evaluate": "evaluate"}

# Counters recorded next to the spans; "max" counters keep the largest value.
COUNTERS = (
    "lapack.det.matrices",
    "winding.samples",
    "winding.reports",
    "winding.refused",
    "eta.abel_terms",
)
MAX_COUNTERS = ("homology.snf.max_bits",)


def span_names() -> list:
    """Every span name the tracer can record, in report order."""
    names = [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]
    return names + [f"lapack.{fn}" for fn in LAPACK]


class Tracer:
    """Span store plus counters; one instance per traced process."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counters = {k: 0 for k in COUNTERS}
        self.counters.update({k: 0 for k in MAX_COUNTERS})
        self.current_op = -1
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        stack = self._stack()
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(stack[-1] if stack else -1)
        self.op.append(self.current_op)
        self.end.append(0.0)
        stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack().pop()

    def add(self, key: str, value) -> None:
        self.counters[key] += value

    def raise_to(self, key: str, value) -> None:
        if value > self.counters[key]:
            self.counters[key] = value

    def wrap(self, name: str, fn, on_return=None, on_error=None, only_inside=False):
        """Wrapper recording one span per call of ``fn``.

        ``on_return(args, result)`` and ``on_error(exc)`` run after the span
        closes, so counter bookkeeping is not charged to the span.  With
        ``only_inside`` the call is recorded only when an obstructkit span is
        open (numpy.linalg calls made by the benchmark itself stay untraced).
        """
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if only_inside and not self._stack():
                return fn(*args, **kwargs)
            idx = self.open(nid)
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                self.close(idx)
                if on_error is not None:
                    on_error(exc)
                raise
            self.close(idx)
            if on_return is not None:
                on_return(args, out)
            return out

        return traced

    # -- persistence -----------------------------------------------------

    def to_json(self) -> dict:
        return {
            "names": self.names,
            "name": self.name.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "counters": self.counters,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    def write_npz(self, path, ops: int) -> None:
        """Spans of the first ``ops`` traced ops, as numpy arrays."""
        import numpy as np

        first = self.op[0] if self.op else 0
        keep = np.frombuffer(self.op, dtype=np.int64) < first + ops
        arrays = {key: np.frombuffer(getattr(self, key), dtype=dtype)[keep]
                  for key, dtype in (("name", np.int32), ("parent", np.int64),
                                     ("op", np.int64), ("start", np.float64),
                                     ("end", np.float64))}
        np.savez(path, names=np.array(self.names), **arrays)

    def merge(self, data: dict) -> None:
        """Append spans written by another process (a traced CLI child)."""
        ids = [self.name_id(n) for n in data["names"]]
        base = len(self.name)
        for nid, parent, start, end in zip(
            data["name"], data["parent"], data["start"], data["end"]
        ):
            self.name.append(ids[nid])
            self.parent.append(parent + base if parent >= 0 else -1)
            self.op.append(self.current_op)
            self.start.append(start)
            self.end.append(end)
        for key, value in data["counters"].items():
            if key in MAX_COUNTERS:
                self.raise_to(key, value)
            else:
                self.add(key, value)

    def summary(self) -> dict:
        """Per span name: number of calls and total self seconds."""
        selfs = self_times(self.parent, self.start, self.end)
        out = {name: [0, 0.0] for name in self.names}
        for nid, s in zip(self.name, selfs):
            entry = out[self.names[nid]]
            entry[0] += 1
            entry[1] += s
        return out


def self_times(parent, start, end) -> list:
    """Self time of every span: duration minus the union of its children.

    Children are clipped to the parent's interval, and overlapping children
    are counted once, so the result never goes below zero.
    """
    n = len(start)
    children: dict = {}
    for i in range(n):
        p = parent[i]
        if p >= 0:
            children.setdefault(p, []).append(i)
    out = [end[i] - start[i] for i in range(n)]
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        spans = sorted((max(start[k], lo), min(end[k], hi)) for k in kids)
        covered = 0.0
        cur_s = cur_e = None
        for s, e in spans:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    covered += cur_e - cur_s
                cur_s, cur_e = s, e
            elif e > cur_e:
                cur_e = e
        if cur_e is not None:
            covered += cur_e - cur_s
        out[p] -= covered
    return out


def _max_bits(result) -> int:
    return max(
        abs(x).bit_length() for m in result for row in m.entries for x in row
    )


def install(tracer: Tracer):
    """Wrap every traced function; returns a callable that undoes it."""
    import numpy.linalg

    import obstructkit
    from obstructkit.errors import ObstructkitError

    modules = [obstructkit] + [
        importlib.import_module(f"obstructkit.{name}")
        for name in ("audit", "cli", "eta", "homology", "matcore", "projops",
                     "quasirep", "seeding", "winding", "words")
    ]
    restore = []

    def patch(owner, attr, wrapper):
        restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def refused(exc):
        if isinstance(exc, ObstructkitError) and not getattr(exc, "_perfbench_seen", False):
            exc._perfbench_seen = True
            tracer.add("winding.refused", 1)

    def winding_done(args, report):
        tracer.add("winding.samples", report.samples_used)
        tracer.add("winding.reports", 1)

    eta_mod = importlib.import_module("obstructkit.eta")

    def abel_terms(args, value):
        count = getattr(eta_mod, "_truncation_count", None)
        if count is not None:
            tracer.add("eta.abel_terms", 2 * count(args[1]) + 1)

    hooks = {
        "winding.winding_of_unitary": dict(on_return=winding_done, on_error=refused),
        "winding.winding_pair": dict(on_error=refused),
        "winding.winding_class": dict(on_error=refused),
        "eta.abel_series_value": dict(on_return=abel_terms),
        "homology.smith_normal_form": dict(
            on_return=lambda args, out: tracer.raise_to("homology.snf.max_bits", _max_bits(out))
        ),
    }

    quasirep = importlib.import_module("obstructkit.quasirep")
    for layer, fns in TRACED.items():
        home = importlib.import_module(f"obstructkit.{layer}")
        for fn in fns:
            name = f"{layer}.{fn}"
            if layer == "quasirep" and fn in _METHODS:
                method = _METHODS[fn]
                patch(quasirep.QuasiRep, method,
                      tracer.wrap(name, getattr(quasirep.QuasiRep, method)))
                continue
            orig = getattr(home, fn, None)
            if orig is None:
                continue
            wrapper = tracer.wrap(name, orig, **hooks.get(name, {}))
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        patch(mod, attr, wrapper)

    def det_matrices(args, out):
        shape = getattr(args[0], "shape", ())
        count = 1
        for d in shape[:-2]:
            count *= d
        tracer.add("lapack.det.matrices", count)

    for fn in LAPACK:
        hook = dict(on_return=det_matrices) if fn == "det" else {}
        patch(numpy.linalg, fn,
              tracer.wrap(f"lapack.{fn}", getattr(numpy.linalg, fn), only_inside=True, **hook))

    def uninstall():
        for owner, attr, orig in reversed(restore):
            setattr(owner, attr, orig)

    return uninstall
