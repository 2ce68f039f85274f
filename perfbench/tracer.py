"""In-memory span recorder that wraps conekit's public functions from outside.

The package is not modified: each wrapped function is replaced, for the
duration of a traced segment, in every conekit module that binds it, so
calls made through ``from .optim import solve_sdp`` style imports are caught
as well as attribute calls such as ``cones.is_kr``.  Spans are strictly
nested (one thread, no queue), so a span's self time is its duration minus
the durations of its direct children.  ``linalg`` is deliberately not
wrapped: its helpers take microseconds and are called thousands of times,
so a wrapper would mostly measure itself; their time lands in the callers'
self time.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from conekit import cli, cones, graphs, optim, pairwise, quantum
from conekit.cones import Verdict
from conekit.linalg import as_tolerance

MODULES = (optim, cones, pairwise, graphs, quantum, cli)

COPCP_ROUTES = ("A_entrywise", "symmetrized_cop", "entry_inequality", "cldui+",
                "pdec", "lift", "search", "unknown")
SIGMA_PROVENANCES = ("cycle-closed-form", "srg-closed-form", "sdp",
                     "twirl-circulant-lp", "twirl-srg3-lp")


@dataclass
class Span:
    name: str
    start: float
    parent: int | None
    item: int | None
    end: float = 0.0
    child_s: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


def _sdp_attrs(args, kwargs, sol):
    problem = args[0] if args else kwargs["problem"]
    return {"iters": int(sol.iterations), "optimal": bool(sol.optimal),
            "rows": int(problem.num_rows), "dim": int(problem.dimension()),
            "blocks": len(sol.blocks)}


def _kr_attrs(args, kwargs, _res):
    return {"r": int(args[1] if len(args) > 1 else kwargs["r"])}


def _refute_attrs(args, kwargs, res):
    # the same test is_cop applies to the refuter's value
    M = args[0] if args else kwargs["M"]
    tol = as_tolerance(args[1] if len(args) > 1 else kwargs.get("tol"))
    scale = max(1.0, float(np.max(np.abs(np.real(M)))))
    return {"hit": bool(res[0] < -tol.feas_tol * scale)}


def copcp_route(verdict) -> str:
    cert = verdict.certificate or {}
    if verdict.status is Verdict.UNKNOWN:
        return "unknown"
    if verdict.status is Verdict.MEMBER:
        return cert.get("route", "unknown")
    return cert.get("filter", "search")


def _copcp_attrs(_args, _kwargs, res):
    return {"route": copcp_route(res)}


def _decided_attrs(_args, _kwargs, res):
    return {"decided": res.status is not Verdict.UNKNOWN}


def _sigma_attrs(_args, _kwargs, res):
    return {"provenance": res.provenance}


# (module, attribute, span name, attribute extractor).  The class method
# Graph.from_graph6 is handled separately.
TARGETS = (
    (optim, "solve_sdp", "optim.solve_sdp", _sdp_attrs),
    (optim, "solve_lp", "optim.solve_lp", None),
    (cones, "is_kr", "cones.is_kr", _kr_attrs),
    (cones, "in_kr_dual", "cones.in_kr_dual", None),
    (cones, "is_cop", "cones.is_cop", None),
    (cones, "cop_refute", "cones.cop_refute", _refute_attrs),
    (cones, "is_spn", "cones.is_spn", None),
    (cones, "is_cp", "cones.is_cp", None),
    (pairwise, "pcp_checks", "pairwise.pcp_checks", _decided_attrs),
    (pairwise, "is_cldui_plus", "pairwise.is_cldui_plus", None),
    (pairwise, "is_pdec", "pairwise.is_pdec", None),
    (pairwise, "is_copcp", "pairwise.is_copcp", _copcp_attrs),
    (pairwise, "necessary_filters", "pairwise.necessary_filters", None),
    (graphs, "scan_gap", "graphs.scan_gap", None),
    (graphs, "clique_number", "graphs.clique_number", None),
    (graphs, "sigma", "graphs.sigma", _sigma_attrs),
    (quantum, "dicke_extendibility", "quantum.dicke_extendibility", None),
    (quantum, "find_extendible_entangled", "quantum.find_extendible_entangled",
     None),
)


class Tracer:
    """Records spans while installed; ``item`` tags spans with the item id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.item: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    def _call(self, name, fn, extract, args, kwargs):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, parent, self.item)
        self.spans.append(span)
        self._stack.append(idx)
        span.start = time.perf_counter()
        try:
            res = fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += span.dur
        if extract is not None:
            span.attrs = extract(args, kwargs, res)
        return res

    def _wrap(self, name, fn, extract):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, extract, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for module, attr, name, extract in TARGETS:
            orig = getattr(module, attr)
            wrapper = self._wrap(name, orig, extract)
            for mod in MODULES:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        self._undo.append((mod, key, orig))
                        setattr(mod, key, wrapper)
        raw = graphs.Graph.__dict__["from_graph6"]
        wrapped = self._wrap("graphs.from_graph6", raw.__func__, None)
        self._undo.append((graphs.Graph, "from_graph6", raw))
        graphs.Graph.from_graph6 = classmethod(wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def to_json(self) -> list:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "item": s.item, **s.attrs}
                for s in self.spans]


def _group(spans, name):
    return [s for s in spans if s.name == name]


def layer_metrics(tracer: Tracer, wall_s: float, items: int) -> dict:
    """Per-layer metrics of one traced segment of ``wall_s`` seconds."""
    sp = tracer.spans
    out: dict[str, float] = {}

    def busy(group):
        return sum(s.dur for s in group)

    def self_time(group):
        return sum(s.self_s for s in group)

    def ratio(group, pred):
        return sum(map(pred, group)) / len(group) if group else 0.0

    sdp = _group(sp, "optim.solve_sdp")
    lp = _group(sp, "optim.solve_lp")
    iters = sum(s.attrs["iters"] for s in sdp)
    out["optim.solve_sdp.calls"] = len(sdp)
    out["optim.solve_sdp.busy_s"] = busy(sdp)
    out["optim.solve_sdp.iters"] = iters
    out["optim.solve_sdp.ms_per_iter"] = 1e3 * busy(sdp) / iters if iters else 0.0
    out["optim.solve_sdp.not_optimal"] = sum(not s.attrs["optimal"] for s in sdp)
    out["optim.solve_sdp.rows_max"] = max((s.attrs["rows"] for s in sdp), default=0)
    out["optim.solve_sdp.dim_max"] = max((s.attrs["dim"] for s in sdp), default=0)
    out["optim.solve_sdp.blocks_mean"] = (
        statistics.fmean(s.attrs["blocks"] for s in sdp) if sdp else 0.0)
    out["optim.solve_lp.calls"] = len(lp)
    out["optim.solve_lp.busy_s"] = busy(lp)
    out["optim.share"] = (busy(sdp) + busy(lp)) / wall_s if wall_s else 0.0

    kr = _group(sp, "cones.is_kr")
    for r in (0, 1, 2):
        g = [s for s in kr if s.attrs["r"] == r]
        out[f"cones.is_kr.r{r}.calls"] = len(g)
        out[f"cones.is_kr.r{r}.busy_s"] = busy(g)
        out[f"cones.is_kr.r{r}.self_s"] = self_time(g)
    g = _group(sp, "cones.in_kr_dual")
    out["cones.in_kr_dual.calls"] = len(g)
    out["cones.in_kr_dual.busy_s"] = busy(g)
    g = _group(sp, "cones.is_cop")
    out["cones.is_cop.calls"] = len(g)
    out["cones.is_cop.self_s"] = self_time(g)
    g = _group(sp, "cones.cop_refute")
    out["cones.cop_refute.calls"] = len(g)
    out["cones.cop_refute.busy_s"] = busy(g)
    out["cones.cop_refute.hit_ratio"] = ratio(g, lambda s: s.attrs["hit"])
    g = _group(sp, "cones.is_spn")
    out["cones.is_spn.calls"] = len(g)
    out["cones.is_spn.busy_s"] = busy(g)
    g = _group(sp, "cones.is_cp")
    out["cones.is_cp.calls"] = len(g)
    out["cones.is_cp.self_s"] = self_time(g)

    g = _group(sp, "pairwise.is_pdec")
    out["pairwise.is_pdec.calls"] = len(g)
    out["pairwise.is_pdec.busy_s"] = busy(g)
    out["pairwise.is_pdec.self_s"] = self_time(g)
    out["pairwise.is_pdec.per_item"] = len(g) / items if items else 0.0
    g = _group(sp, "pairwise.is_copcp")
    out["pairwise.is_copcp.calls"] = len(g)
    out["pairwise.is_copcp.self_s"] = self_time(g)
    for route in COPCP_ROUTES:
        key = route.replace("+", "_plus")  # metric names allow no "+"
        out[f"pairwise.is_copcp.route.{key}"] = sum(
            s.attrs["route"] == route for s in g)
    g = _group(sp, "pairwise.pcp_checks")
    out["pairwise.pcp_checks.calls"] = len(g)
    out["pairwise.pcp_checks.self_s"] = self_time(g)
    out["pairwise.pcp_checks.decided_ratio"] = ratio(
        g, lambda s: s.attrs["decided"])
    out["pairwise.necessary_filters.busy_s"] = busy(
        _group(sp, "pairwise.necessary_filters"))

    out["graphs.from_graph6.busy_s"] = busy(_group(sp, "graphs.from_graph6"))
    out["graphs.clique_number.busy_s"] = busy(_group(sp, "graphs.clique_number"))
    g = _group(sp, "graphs.sigma")
    out["graphs.sigma.calls"] = len(g)
    out["graphs.sigma.busy_s"] = busy(g)
    out["graphs.sigma.self_s"] = self_time(g)
    out["graphs.sigma.sdp_ratio"] = ratio(
        g, lambda s: s.attrs["provenance"] == "sdp")
    for prov in SIGMA_PROVENANCES:
        out[f"graphs.sigma.provenance.{prov}"] = sum(
            s.attrs["provenance"] == prov for s in g)
    out["graphs.scan_gap.self_s"] = self_time(_group(sp, "graphs.scan_gap"))

    g = _group(sp, "quantum.dicke_extendibility")
    out["quantum.dicke_extendibility.calls"] = len(g)
    out["quantum.dicke_extendibility.busy_s"] = busy(g)
    fee = _group(sp, "quantum.find_extendible_entangled")
    out["quantum.find_extendible_entangled.busy_s"] = busy(fee)
    fee_ids = {id(s) for s in fee}

    def under_fee(s):
        while s.parent is not None:
            s = sp[s.parent]
            if id(s) in fee_ids:
                return True
        return False

    out["quantum.find_extendible_entangled.dual_solves"] = sum(
        under_fee(s) for s in _group(sp, "cones.in_kr_dual"))

    # wall time covered by the layers: solver busy time plus the self time of
    # every other span equals the summed duration of the top-level spans
    roots = sum(s.dur for s in sp if s.parent is None)
    out["trace.accounted_share"] = roots / wall_s if wall_s else 0.0
    return out
