"""Traced entry point: `python benchmarks/shim.py <artifact argv...>`.

Runs `artifact.cli_reports.main` with timing wrappers around the public
functions of each layer, then writes the spans and counters as JSON to
the path in $BENCH_TRACE_OUT.  Nothing under `src/` changes: the
wrappers are installed on the imported modules before `cli_reports` is
imported, because it binds library names at import time, and every
module that imported a wrapped function by name is rebound.

A span is `[id, parent, thread, name, start, end]` on the
`time.perf_counter` clock, which on Linux is CLOCK_MONOTONIC and so is
shared with the parent that spawned this process ($BENCH_SPAWN).  A root
span in a worker thread takes the command's `cli_reports.main` span as
its parent.  Hot arithmetic in exact_core is not a span per call: each
call adds to a counter `[span, name, calls, seconds, amount]` of the
innermost open span of its thread.  A function the code no longer has
is listed under "absent".
"""

from __future__ import annotations

import builtins
import importlib
import itertools
import json
import os
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, List, Optional

SPAN_TARGETS = (
    "poisson_verify.descend_to_chart",
    "poisson_verify.jacobiator",
    "poisson_verify.jacobi_check",
    "poisson_verify.compatibility_check",
    "poisson_verify.independence_rank",
    "poisson_verify.rank_at_point",
    "poisson_verify.rank_scan",
    "bracket_forge.build_tensor",
    "bracket_forge.build_family",
    "bracket_forge.BracketTensor.to_json",
    "bracket_forge.BracketTensor.from_json",
    "bracket_forge.FamilyBasis.from_json",
    "curve_ring.mult_kernel_antisym",
    "curve_ring.BiCurveElement.from_sections",
    "curve_ring.curve_derivation",
    "curve_ring.membership_extract",
    "curve_ring.verify_szego_residues",
    "helix_k0.helix_class",
    "helix_k0.solve_biham_params",
)

# counter name -> function it times
COUNTER_TARGETS = {
    "exact_core.poly_mul": "exact_core.Poly.__mul__",
    "exact_core.poly_add": "exact_core.Poly.__add__",
    "exact_core.poly_divmod_linear": "exact_core.poly_divmod_linear",
    "exact_core.exact_div_linear": "exact_core.exact_div_linear",
    "exact_core.substitute": "exact_core.Poly.substitute",
}

MAIN_SPAN = "cli_reports.main"
COLS = "poisson_verify.independence_rank.cols"
COEFFS = "bracket_forge.coefficients_built"
BYTES_READ = "cli_reports.artifact_bytes_read"
BYTES_WRITTEN = "cli_reports.artifact_bytes_written"


class Tracer:
    """In-memory spans and per-span counters of one process."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.root: Optional[int] = None
        self.absent: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._names: Dict[int, str] = {}
        self._counters: List[Dict[int, Dict[str, list]]] = []
        self._lock = threading.Lock()

    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.active = set()
            state.counters = {}
            with self._lock:
                self._counters.append(state.counters)
        return state

    def _cell(self, state, name: str, key: Optional[int] = None) -> list:
        if key is None:
            key = state.stack[-1] if state.stack else self.root
        by_name = state.counters.get(key)
        if by_name is None:
            by_name = state.counters[key] = {}
        cell = by_name.get(name)
        if cell is None:
            cell = by_name[name] = [0, 0.0, 0]
        return cell

    def add(self, name: str, amount: int, span: Optional[int] = None) -> None:
        """Add `amount` to counter `name` of `span`, by default the innermost."""
        cell = self._cell(self._state(), name, span)
        cell[0] += 1
        cell[2] += amount

    def innermost(self) -> Optional[str]:
        state = self._state()
        return self._names.get(state.stack[-1]) if state.stack else None

    def span(self, name: str, fn: Callable,
             on_return: Optional[Callable[[object], None]] = None) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            sid = next(tracer._ids)
            parent = state.stack[-1] if state.stack else tracer.root
            if tracer.root is None:
                tracer.root = sid
            tracer._names[sid] = name
            state.stack.append(sid)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(result)
            finally:
                end = perf_counter()
                state.stack.pop()
                tracer.spans.append([sid, parent, threading.get_ident(), name, start, end])
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable,
                useful: Optional[Callable[[object], bool]] = None) -> Callable:
        """Count calls and time the outermost call of `fn` in each thread."""
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._state()
            cell = tracer._cell(state, name)
            cell[0] += 1
            if name in state.active:
                return fn(*args, **kwargs)
            state.active.add(name)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                cell[1] += perf_counter() - start
                state.active.discard(name)
            if useful is not None and useful(result):
                cell[2] += 1
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self) -> dict:
        counters = [[sid, name, *cell] for table in self._counters
                    for sid, by_name in table.items() for name, cell in by_name.items()]
        return {"spans": self.spans, "counters": counters, "absent": self.absent}


def _artifact_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "artifact" or name.startswith("artifact.")]


def _rebind(original, replacement) -> None:
    """Point every module-level name bound to `original` at `replacement`."""
    for mod in _artifact_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _wrap(target: str, make: Callable[[Callable], Callable], tracer: Tracer) -> None:
    """Wrap `module.func` or `module.Class.method`; record it absent if missing."""
    module_name, *path = target.split(".")
    try:
        owner = importlib.import_module(f"artifact.{module_name}")
    except ImportError:
        owner = None
    for part in path[:-1]:
        owner = getattr(owner, part, None)
    raw = vars(owner).get(path[-1]) if owner is not None else None
    if raw is None:
        tracer.absent.append(target)
        return
    if isinstance(owner, type):
        is_classmethod = isinstance(raw, classmethod)
        func = raw.__func__ if is_classmethod else raw
        wrapped = make(func)
        new = classmethod(wrapped) if is_classmethod else wrapped
        for attr, value in list(vars(owner).items()):
            if value is raw:  # aliases such as __radd__ = __add__
                setattr(owner, attr, new)
    else:
        _rebind(raw, make(raw))


def install(tracer: Tracer) -> None:
    """Wrap every layer function; must run before cli_reports is imported."""

    def count_coefficients(tensor) -> None:
        tracer.add(COEFFS, sum(len(form) for form in tensor.pi.values()))

    for target in SPAN_TARGETS:
        hook = count_coefficients if target == "bracket_forge.build_tensor" else None
        _wrap(target, lambda fn, t=target, h=hook: tracer.span(t, fn, h), tracer)
    for name, target in COUNTER_TARGETS.items():
        useful = (lambda qr: qr[1].is_zero) if name == "exact_core.poly_divmod_linear" else None
        _wrap(target, lambda fn, n=name, u=useful: tracer.counted(n, fn, u), tracer)

    def matrix_rank(fn):
        def wrapper(matrix):
            if tracer.innermost() == "poisson_verify.independence_rank":
                tracer.add(COLS, len(matrix[0]) if matrix else 0)
            return fn(matrix)
        return wrapper

    _wrap("poisson_verify._matrix_rank", matrix_rank, tracer)


def _counting_open(tracer: Tracer, written: List[str]):
    def counting_open(file, mode="r", *args, **kwargs):
        handle = builtins.open(file, mode, *args, **kwargs)
        if any(flag in mode for flag in "wax+"):
            written.append(os.fspath(file))
        else:
            tracer.add(BYTES_READ, os.path.getsize(file))
        return handle
    return counting_open


def main(argv: List[str]) -> int:
    tracer = Tracer()
    install(tracer)
    from artifact import cli_reports

    written: List[str] = []
    cli_reports.open = _counting_open(tracer, written)
    traced_main = tracer.span(MAIN_SPAN, cli_reports.main)
    try:
        return traced_main(argv)
    finally:
        for path in dict.fromkeys(written):
            if os.path.isfile(path):
                tracer.add(BYTES_WRITTEN, os.path.getsize(path), tracer.root)
        record = tracer.dump()
        record["spawn"] = float(os.environ["BENCH_SPAWN"])
        with builtins.open(os.environ["BENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
