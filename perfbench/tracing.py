"""Timing wrappers around mvlab's public functions, for the traced run only.

`Tracer.install()` replaces module attributes (and two `CounterRng`
methods) with wrappers that record one span per call: layer name, start,
end, parent span and op id, plus the layer's work count.  A call made
inside another wrapped call is its child, so a layer's self time is its
duration minus its children's.  `uninstall()` restores the originals; the
untraced run never sees a wrapper.  The recursive `expr.eval_with` is not
wrapped: one call per AST node would swamp what it measures.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from typing import Any, Callable

from mvlab import calculus, cli, exactpoly, expr, integrate, mvp, mvroot


def _rng_before(args, kwargs):
    return args[0].counter


def _rng_draws(args, kwargs, out, before):
    return args[0].counter - before  # uniforms consumed, including Box-Muller pairs


def _cli_before(args, kwargs):
    return sys.stdout.tell()  # the benchmark runs the CLI into a StringIO


def _cli_bytes(args, kwargs, out, before):
    return sys.stdout.tell() - before  # JSON output is ASCII, so chars = bytes


def _rows(args, kwargs, out, before):
    return (sum(r.status == "ok" for r in out.rows), len(out.rows))


def _verdict(args, kwargs, out, before):
    return (out.trials, len(out.counterexamples))


# (layer, owner, attribute, work count of one call or None)
_WRAPPED: list[tuple[str, Any, str, Callable | None]] = [
    ("integrate.rng", integrate.CounterRng, "uniforms", _rng_draws),
    ("integrate.rng", integrate.CounterRng, "gaussians", _rng_draws),
    ("integrate.sample", integrate, "sample_ball_many", lambda a, k, out, b: len(out)),
    ("integrate.sample", integrate, "sample_sphere_many", lambda a, k, out, b: len(out)),
    ("integrate.mc", integrate, "mc_ball_average", None),
    ("integrate.mc", integrate, "mc_sphere_average", None),
    ("integrate.quad", integrate, "integrate_1d", None),
    ("expr.eval_many", expr, "eval_many", lambda a, k, out, b: out.size),
    ("expr.evaluate", expr, "evaluate", None),
    ("expr.parse", expr, "parse", None),
    ("calculus.jet", calculus, "derivatives_1d", None),
    ("calculus.jet_many", calculus, "first_derivative_many", lambda a, k, out, b: out.size),
    ("calculus.hyperdual", calculus, "laplacian", None),
    ("calculus.hyperdual", calculus, "gradient", None),
    ("calculus.hyperdual", calculus, "directional_derivative", None),
    ("mvroot.find", mvroot, "find_abscissas", lambda a, k, out, b: len(out.abscissas)),
    ("mvroot.sweep", mvroot, "sweep_lambda", _rows),
    ("exactpoly.residual", exactpoly, "mvt_residual", lambda a, k, out, b: a[0].degree or 0),
    ("exactpoly.family", exactpoly, "lambda_family", None),
    ("mvp.check", mvp, "check_weighted_property", _verdict),
    ("mvp.check", mvp, "check_interval_mvp", _verdict),
    ("mvp.check", mvp, "check_ball_mvp", _verdict),
    ("mvp.check", mvp, "check_sphere_mvp", _verdict),
    ("mvp.check", mvp, "check_harmonicity", _verdict),
    ("mvp.check", mvp, "check_v_constancy", _verdict),
    ("cli.main", cli, "main", _cli_bytes),
]
_BEFORE = {_rng_draws: _rng_before, _cli_bytes: _cli_before}

# span record fields
ID, PARENT, LAYER, OP, START, END, CHILD_NS, COUNT = range(8)


class Tracer:
    """Collects spans in memory; `op` tags every span with the running op."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.op = -1
        self._saved: list[tuple[Any, str, Any]] = []

    def span(self, layer: str, fn: Callable, count: Callable | None) -> Callable:
        before = _BEFORE.get(count)
        spans, stack, clock = self.spans, self.stack, time.perf_counter_ns

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            rec = [len(spans), parent[ID] if parent else -1, layer, self.op, 0, 0, 0, None]
            spans.append(rec)
            state = before(args, kwargs) if before else None
            stack.append(rec)
            rec[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                stack.pop()
                if parent:
                    parent[CHILD_NS] += rec[END] - rec[START]
            if count:
                rec[COUNT] = count(args, kwargs, out, state)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for layer, owner, name, count in _WRAPPED:
            original = owner.__dict__[name]
            self._saved.append((owner, name, original))
            setattr(owner, name, self.span(layer, original, count))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def run_op(self, op_id: int, call: Callable[[], Any]) -> Any:
        """Run one op under a root span named "op"."""
        self.op = op_id
        return self.span("op", call, None)()

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({**header, "fields": [
                "id", "parent", "layer", "op", "start_ns", "end_ns", "child_ns", "count"]}) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec, separators=(",", ":")) + "\n")


# per-layer metrics: name -> unit
UNITS = {
    "integrate.rng.ms": "ms", "integrate.rng.draws": "count",
    "integrate.rng.draws_per_point": "ratio",
    "integrate.sample.self_ms": "ms", "integrate.sample.points": "count",
    "integrate.mc.self_ms": "ms", "integrate.mc.calls": "count",
    "integrate.quad.ms": "ms", "integrate.quad.calls": "count",
    "expr.eval_many.ms": "ms", "expr.eval_many.points": "count",
    "expr.evaluate.ms": "ms", "expr.evaluate.calls": "count",
    "expr.parse.ms": "ms",
    "calculus.jet.ms": "ms", "calculus.jet.calls": "count",
    "calculus.jet_many.ms": "ms", "calculus.jet_many.points": "count",
    "calculus.hyperdual.ms": "ms", "calculus.hyperdual.calls": "count",
    "mvroot.find.self_ms": "ms", "mvroot.find.roots": "count",
    "mvroot.find.jet_per_root": "ratio", "mvroot.sweep.ok_ratio": "ratio",
    "exactpoly.residual.ms": "ms", "exactpoly.residual.degree_sum": "count",
    "exactpoly.family.ms": "ms",
    "mvp.check.self_ms": "ms", "mvp.check.trials": "count", "mvp.check.violations": "count",
    "cli.main.self_ms": "ms", "cli.out_bytes": "count",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[list], by_id: dict[int, list]) -> dict[str, float]:
    """Per-layer metrics of one group of spans (one op list, or the set-up)."""
    groups: dict[str, list[list]] = {}
    for rec in spans:
        groups.setdefault(rec[LAYER], []).append(rec)

    def layer(name: str, outermost: bool = False) -> list[list]:
        recs = groups.get(name, [])
        if outermost:  # drop re-entrant calls, e.g. uniforms inside gaussians
            recs = [r for r in recs if r[PARENT] < 0 or by_id[r[PARENT]][LAYER] != name]
        return recs

    def ms(recs, self_only=False) -> float:
        ns = sum(r[END] - r[START] - (r[CHILD_NS] if self_only else 0) for r in recs)
        return ns / 1e6

    def total(recs, index=None) -> int:
        done = [r[COUNT] for r in recs if r[COUNT] is not None]  # None: the call raised
        return sum(c if index is None else c[index] for c in done)

    def under(rec, ancestor: str) -> bool:
        while rec[PARENT] >= 0:
            rec = by_id[rec[PARENT]]
            if rec[LAYER] == ancestor:
                return True
        return False

    rng, sample = layer("integrate.rng", True), layer("integrate.sample")
    mc, quad = layer("integrate.mc"), layer("integrate.quad")
    many, ev, parse = layer("expr.eval_many"), layer("expr.evaluate"), layer("expr.parse")
    jet, jet_many = layer("calculus.jet"), layer("calculus.jet_many")
    hyper, find = layer("calculus.hyperdual", True), layer("mvroot.find")
    sweep, residual = layer("mvroot.sweep"), layer("exactpoly.residual")
    family, check, main = layer("exactpoly.family"), layer("mvp.check"), layer("cli.main")
    roots = total(find)
    return {
        "integrate.rng.ms": ms(rng), "integrate.rng.draws": total(rng),
        "integrate.rng.draws_per_point": _ratio(total(rng), total(sample)),
        "integrate.sample.self_ms": ms(sample, True), "integrate.sample.points": total(sample),
        "integrate.mc.self_ms": ms(mc, True), "integrate.mc.calls": len(mc),
        "integrate.quad.ms": ms(quad), "integrate.quad.calls": len(quad),
        "expr.eval_many.ms": ms(many), "expr.eval_many.points": total(many),
        "expr.evaluate.ms": ms(ev), "expr.evaluate.calls": len(ev),
        "expr.parse.ms": ms(parse),
        "calculus.jet.ms": ms(jet), "calculus.jet.calls": len(jet),
        "calculus.jet_many.ms": ms(jet_many), "calculus.jet_many.points": total(jet_many),
        "calculus.hyperdual.ms": ms(hyper), "calculus.hyperdual.calls": len(hyper),
        "mvroot.find.self_ms": ms(find, True), "mvroot.find.roots": roots,
        "mvroot.find.jet_per_root": _ratio(sum(under(r, "mvroot.find") for r in jet), roots),
        "mvroot.sweep.ok_ratio": _ratio(total(sweep, 0), total(sweep, 1)),
        "exactpoly.residual.ms": ms(residual), "exactpoly.residual.degree_sum": total(residual),
        "exactpoly.family.ms": ms(family),
        "mvp.check.self_ms": ms(check, True), "mvp.check.trials": total(check, 0),
        "mvp.check.violations": total(check, 1),
        "cli.main.self_ms": ms(main, True), "cli.out_bytes": total(main),
    }


def self_time_shares(spans: list[list], wall_ns: float) -> dict[str, float]:
    """Each layer's self time as a share of the traced lists' wall time;
    the "op" root's self time is the benchmark's own per-op overhead."""
    shares: dict[str, float] = {}
    for rec in spans:
        shares[rec[LAYER]] = shares.get(rec[LAYER], 0) + rec[END] - rec[START] - rec[CHILD_NS]
    return {k: round(v / wall_ns, 4) for k, v in sorted(shares.items(), key=lambda kv: -kv[1])}


def per_list_medians(groups: list[list[list]], by_id: dict[int, list]) -> dict[str, float]:
    """Median over op lists of each per-layer metric."""
    rows = [layer_metrics(g, by_id) for g in groups]
    return {name: statistics.median(r[name] for r in rows) for name in UNITS}
