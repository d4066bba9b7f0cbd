"""Per-layer spans for the dfc benchmark, taken from outside the package.

``Tracer.install`` replaces module attributes of dfc (``simplex.solve_lp``,
``analysis.maximize_over_atoms``, ``sets.support``, ...) with wrappers that
record a span per call: name, parent span, start, end and a few attributes
of the result.  Cross-module calls in dfc go through module attributes
(``simplex.solve_lp``, ``gauge_mod.gauge_and_normal``) and calls inside a
module go through its globals, so the wrappers see every call.  A run
installs a tracer only inside an op's own process, after the fork, so spans
belong to exactly one op.

The optimizer fallbacks of the set oracles (``analysis.support_via_optimizer``
and friends) are only called from ``sets``; their spans are counted as the
oracles' ``fallback_calls``.
"""

from __future__ import annotations

import importlib
import statistics
import time
from functools import wraps


def _lp_attrs(args, kwargs, res):
    # solve_lp(c, G, h, A_eq, b_eq, lb, ub, maximize=True)
    G = args[1] if len(args) > 1 else kwargs.get("G")
    A_eq = args[3] if len(args) > 3 else kwargs.get("A_eq")
    rows = (0 if G is None else len(G)) + (0 if A_eq is None else len(A_eq))
    return [rows, res.status != "optimal"]


def _opt_attrs(args, kwargs, res):
    return [res.rounds, res.status == "stalled", bool(res.box_active)]


_CHECKS = (
    "check_sharp",
    "check_ideal",
    "check_minkowski_ideal",
    "check_par_conditions",
    "check_bbj_condition",
)

# (module under dfc, attribute, span name, attribute extractor)
TRACED = (
    ("cli", "main", "cli.main", None),
    ("model", "parse_instance", "model.parse_instance", None),
    ("model", "lower_model", "model.lower_model", None),
    ("model", "emit_json", "model.emit_json", None),
    ("model", "emit_lp", "model.emit_lp", None),
    ("model", "parse_model", "model.parse_model", None),
    ("builders", "build", "builders.build", None),
    ("builders", "bigm_table", "builders.bigm_table", None),
    *(("analysis", fn, "analysis.check", None) for fn in _CHECKS),
    ("analysis", "maximize_over_atoms", "analysis.maximize_over_atoms", _opt_attrs),
    ("analysis", "compile_atoms", "analysis.compile_atoms", None),
    ("analysis", "feasibility_gap", "analysis.feasibility_gap", None),
    ("analysis", "enumerate_vertices", "analysis.enumerate_vertices", None),
    ("analysis", "support_via_optimizer", "sets.support.fallback", None),
    ("analysis", "exposed_point_via_optimizer", "sets.exposed_point.fallback", None),
    ("analysis", "member_via_feasibility", "sets.contains.fallback", None),
    ("analysis", "find_point_via_optimizer", "sets.find_point.fallback", None),
    ("sets", "support", "sets.support", None),
    ("sets", "exposed_point", "sets.exposed_point", None),
    ("sets", "contains", "sets.contains", None),
    ("sets", "find_point", "sets.find_point", None),
    ("sets", "gauge_value", "sets.gauge_value", None),
    ("gauge", "gauge_and_normal", "gauge.gauge_and_normal", None),
    ("gauge", "lower_epigraph", "gauge.lower_epigraph", None),
    ("simplex", "solve_lp", "simplex.solve_lp", _lp_attrs),
)

# oracle spans whose time under builders.build is the builders' probe time
_ORACLES = frozenset(
    ("sets.support", "sets.exposed_point", "sets.contains", "sets.find_point", "sets.gauge_value")
)

# (metric, unit, better); every traced run reports all of them
PER_LAYER = (
    ("simplex.solve_lp.calls", "count", "lower"),
    ("simplex.solve_lp.self_s", "s", "lower"),
    ("simplex.solve_lp.us_per_call", "us", "lower"),
    ("simplex.solve_lp.rows_mean", "count", "lower"),
    ("simplex.solve_lp.nonoptimal", "count", "lower"),
    ("analysis.maximize_over_atoms.calls", "count", "lower"),
    ("analysis.maximize_over_atoms.self_s", "s", "lower"),
    ("analysis.maximize_over_atoms.rounds_mean", "count", "lower"),
    ("analysis.maximize_over_atoms.rounds_max", "count", "lower"),
    ("analysis.maximize_over_atoms.cuts_added", "count", "lower"),
    ("analysis.maximize_over_atoms.stalled", "count", "lower"),
    ("analysis.maximize_over_atoms.box_active", "count", "lower"),
    ("analysis.compile_atoms.calls", "count", "lower"),
    ("analysis.compile_atoms.self_s", "s", "lower"),
    ("analysis.feasibility_gap.calls", "count", "lower"),
    ("analysis.feasibility_gap.self_s", "s", "lower"),
    ("analysis.enumerate_vertices.calls", "count", "lower"),
    ("analysis.enumerate_vertices.self_s", "s", "lower"),
    ("sets.support.calls", "count", "lower"),
    ("sets.support.fallback_calls", "count", "lower"),
    ("sets.support.closed_form_ratio", "ratio", "higher"),
    ("sets.exposed_point.calls", "count", "lower"),
    ("sets.exposed_point.fallback_calls", "count", "lower"),
    ("sets.contains.fallback_calls", "count", "lower"),
    ("sets.find_point.fallback_calls", "count", "lower"),
    ("sets.gauge_value.calls", "count", "lower"),
    ("sets.gauge_value.self_s", "s", "lower"),
    ("gauge.gauge_and_normal.calls", "count", "lower"),
    ("gauge.gauge_and_normal.self_s", "s", "lower"),
    ("gauge.lower_epigraph.calls", "count", "lower"),
    ("gauge.lower_epigraph.self_s", "s", "lower"),
    ("builders.build.self_s", "s", "lower"),
    ("builders.build.probe_s", "s", "lower"),
    ("builders.bigm_table.self_s", "s", "lower"),
    ("model.parse_instance.self_s", "s", "lower"),
    ("model.lower_model.self_s", "s", "lower"),
    ("model.emit_json.self_s", "s", "lower"),
    ("model.emit_lp.self_s", "s", "lower"),
    ("model.parse_model.self_s", "s", "lower"),
    ("analysis.check.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.op_s.geomean", "s", "lower"),
)


class Tracer:
    """Spans of one op, kept in memory as [name, parent, start, end, attrs]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []

    def wrap(self, name, fn, attrs=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, 0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[2] = clock()
            try:
                res = fn(*args, **kwargs)
            finally:
                rec[3] = clock()
                stack.pop()
            if attrs is not None:
                rec[4] = attrs(args, kwargs, res)
            return res

        return traced

    def install(self, dfc) -> None:
        for mod_name, attr, name, attrs in TRACED:
            mod = importlib.import_module(f"{dfc.__name__}.{mod_name}")
            setattr(mod, attr, self.wrap(name, getattr(mod, attr), attrs))


def aggregate(spans) -> dict:
    """Per-layer totals of one op's spans.  Keys ending in ``_s`` are times;
    every other key is a count that repeats exactly for the same inputs."""
    out: dict = {"trace.spans": len(spans)}
    child_time = [0.0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_time[parent] += t1 - t0
    in_oracle = [False] * len(spans)
    under_build = [False] * len(spans)
    first_rows: dict = {}
    last_rows: dict = {}

    def add(key, value):
        out[key] = out.get(key, 0) + value

    for i, (name, parent, t0, t1, attrs) in enumerate(spans):
        dur = t1 - t0
        add(f"{name}.calls", 1)
        add(f"{name}.self_s", dur - child_time[i])
        if parent >= 0:
            in_oracle[i] = in_oracle[parent] or spans[parent][0] in _ORACLES
            under_build[i] = under_build[parent] or spans[parent][0] == "builders.build"
        if name in _ORACLES and under_build[i] and not in_oracle[i]:
            add("builders.build.probe_s", dur)
        if attrs is None:
            continue
        if name == "simplex.solve_lp":
            add("simplex.solve_lp.rows_sum", attrs[0])
            add("simplex.solve_lp.nonoptimal", int(attrs[1]))
            if parent >= 0 and spans[parent][0] == "analysis.maximize_over_atoms":
                first_rows.setdefault(parent, attrs[0])
                last_rows[parent] = attrs[0]
        else:  # analysis.maximize_over_atoms
            add("analysis.maximize_over_atoms.rounds_sum", attrs[0])
            key = "analysis.maximize_over_atoms.rounds_max"
            out[key] = max(out.get(key, 0), attrs[0])
            add("analysis.maximize_over_atoms.stalled", int(attrs[1]))
            add("analysis.maximize_over_atoms.box_active", int(attrs[2]))
    add("analysis.maximize_over_atoms.cuts_added", sum(last_rows[p] - first_rows[p] for p in last_rows))
    return out


def counts(layer: dict) -> dict:
    return {k: v for k, v in layer.items() if not k.endswith("_s")}


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer_metrics(layers_by_op, passes: int) -> dict:
    """Per-layer metrics of a traced run.  ``layers_by_op`` holds, for each
    op, its ``aggregate`` per pass.  Counts are the same in every pass; times
    are the median over passes of the pass totals."""
    totals = []
    for p in range(passes):
        tot: dict = {}
        for layers in layers_by_op:
            for k, v in layers[p].items():
                if k.endswith("rounds_max"):
                    tot[k] = max(tot.get(k, 0), v)
                else:
                    tot[k] = tot.get(k, 0) + v
        totals.append(tot)

    def get(key):
        vals = [t.get(key, 0) for t in totals]
        return statistics.median(vals) if key.endswith("_s") else vals[0]

    lp_calls = get("simplex.solve_lp.calls")
    opt_calls = get("analysis.maximize_over_atoms.calls")
    sup_calls = get("sets.support.calls")
    derived = {
        "simplex.solve_lp.us_per_call": 1e6 * _ratio(get("simplex.solve_lp.self_s"), lp_calls),
        "simplex.solve_lp.rows_mean": _ratio(get("simplex.solve_lp.rows_sum"), lp_calls),
        "analysis.maximize_over_atoms.rounds_mean": _ratio(
            get("analysis.maximize_over_atoms.rounds_sum"), opt_calls
        ),
        "sets.support.closed_form_ratio": _ratio(
            sup_calls - get("sets.support.fallback.calls"), sup_calls
        ),
    }
    metrics = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".fallback_calls"):
            value = get(name[: -len("_calls")] + ".calls")
        elif name == "trace.op_s.geomean":
            continue  # measured by the runner
        else:
            value = get(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics
