"""Span arithmetic and the per-layer metrics of a traced run.

The traced child (shim.py) writes spans `[id, parent, thread, name,
start, end]` and counters `[span, name, calls, seconds, amount]`.  This
module turns the traces of all commands of a pass into the per-layer
metrics listed in BENCHMARK.json.  `.calls` is a count, `.s` is
inclusive time (nested calls of the same function counted once) and
`.self_s` is a span's duration minus the part its child spans cover.
All values are totals over the pass.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Dict, Iterable, List, Sequence, Tuple

from shim import BYTES_READ, BYTES_WRITTEN, COEFFS, COLS, COUNTER_TARGETS, MAIN_SPAN

# (metric, unit) in the order BENCHMARK.json lists them.
PER_LAYER: List[Tuple[str, str]] = [
    ("poisson_verify.descend_to_chart.calls", "count"),
    ("poisson_verify.descend_to_chart.self_s", "s"),
    ("poisson_verify.jacobiator.calls", "count"),
    ("poisson_verify.jacobiator.self_s", "s"),
    ("poisson_verify.jacobi_check.s", "s"),
    ("poisson_verify.compatibility_check.calls", "count"),
    ("poisson_verify.compatibility_check.s", "s"),
    ("poisson_verify.compatibility_check.parallelism", "ratio"),
    ("poisson_verify.independence_rank.s", "s"),
    (COLS, "count"),
    ("poisson_verify.rank_at_point.calls", "count"),
    ("poisson_verify.rank_at_point.self_s", "s"),
    ("poisson_verify.rank_scan.s", "s"),
    ("bracket_forge.build_tensor.calls", "count"),
    ("bracket_forge.build_tensor.self_s", "s"),
    ("bracket_forge.build_family.s", "s"),
    (COEFFS, "count"),
    ("curve_ring.mult_kernel_antisym.calls", "count"),
    ("curve_ring.mult_kernel_antisym.self_s", "s"),
    ("curve_ring.BiCurveElement.from_sections.calls", "count"),
    ("curve_ring.BiCurveElement.from_sections.self_s", "s"),
    ("curve_ring.curve_derivation.s", "s"),
    ("curve_ring.membership_extract.calls", "count"),
    ("curve_ring.membership_extract.s", "s"),
    ("curve_ring.verify_szego_residues.s", "s"),
    ("exact_core.poly_mul.calls", "count"),
    ("exact_core.poly_mul.s", "s"),
    ("exact_core.poly_add.calls", "count"),
    ("exact_core.poly_add.s", "s"),
    ("exact_core.poly_divmod_linear.calls", "count"),
    ("exact_core.poly_divmod_linear.s", "s"),
    ("exact_core.poly_divmod_linear.useful_ratio", "ratio"),
    ("exact_core.exact_div_linear.calls", "count"),
    ("exact_core.exact_div_linear.s", "s"),
    ("exact_core.substitute.calls", "count"),
    ("exact_core.substitute.s", "s"),
    ("bracket_forge.BracketTensor.to_json.s", "s"),
    ("bracket_forge.BracketTensor.from_json.s", "s"),
    ("bracket_forge.FamilyBasis.from_json.s", "s"),
    (BYTES_WRITTEN, "B"),
    (BYTES_READ, "B"),
    ("cli_reports.startup_s", "s"),
    ("cli_reports.main.self_s", "s"),
    ("helix_k0.helix_class.calls", "count"),
    ("helix_k0.helix_class.s", "s"),
    ("helix_k0.solve_biham_params.calls", "count"),
    ("helix_k0.solve_biham_params.s", "s"),
    ("trace.overhead_s", "s"),
]


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% at or below it."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Sequence]) -> Dict[int, float]:
    """Duration of each span minus the union of its children, clipped to it.

    Children may overlap each other, as spans of `--jobs` worker threads
    do under one command span, so their union is subtracted, not their sum.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for _, parent, _, _, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, start, end in spans:
        clipped = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())
                   if min(e, end) > max(s, start)]
        out[sid] = (end - start) - union_length(clipped)
    return out


def _outermost(spans: Sequence[Sequence]) -> List[Sequence]:
    """Spans with no ancestor of the same name."""
    by_id = {span[0]: span for span in spans}
    out = []
    for span in spans:
        parent = by_id.get(span[1])
        while parent is not None and parent[3] != span[3]:
            parent = by_id.get(parent[1])
        if parent is None:
            out.append(span)
    return out


def layer_metrics(traces: Sequence[dict], overhead_s: float) -> Tuple[Dict[str, float], List[str]]:
    """Per-layer metrics of one pass and the layer functions found absent."""
    values: Dict[str, float] = defaultdict(float)
    intervals: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
    absent = set()
    for trace in traces:
        spans = trace["spans"]
        absent.update(trace["absent"])
        own = self_times(spans)
        for sid, _, _, name, start, end in spans:
            values[f"{name}.calls"] += 1
            values[f"{name}.self_s"] += own[sid]
            intervals[name].append((start, end))
            if name == MAIN_SPAN:
                values["cli_reports.startup_s"] += start - trace["spawn"]
        for span in _outermost(spans):
            values[f"{span[3]}.s"] += span[5] - span[4]
        for _, name, calls, secs, amount in trace["counters"]:
            if name in COUNTER_TARGETS:
                values[f"{name}.calls"] += calls
                values[f"{name}.s"] += secs
                values[f"{name}.useful"] += amount
            else:
                values[name] += amount
    compat = intervals["poisson_verify.compatibility_check"]
    covered = union_length(compat)
    values["poisson_verify.compatibility_check.parallelism"] = (
        sum(e - s for s, e in compat) / covered if covered else 0.0)
    divmod_calls = values["exact_core.poly_divmod_linear.calls"]
    values["exact_core.poly_divmod_linear.useful_ratio"] = (
        values["exact_core.poly_divmod_linear.useful"] / divmod_calls if divmod_calls else 0.0)
    values["trace.overhead_s"] = overhead_s
    metrics = {name: values.get(name, 0.0) for name, _ in PER_LAYER}
    for name in metrics:
        if name.endswith(".calls") or name in (COLS, COEFFS, BYTES_READ, BYTES_WRITTEN):
            metrics[name] = int(metrics[name])
    return metrics, sorted(absent)
