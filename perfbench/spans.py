"""Per-layer spans around densilab's public functions, recorded from outside.

``Tracer`` replaces each layer's public functions at every module (or class)
that looks them up, records one span per call with its parent, and puts the
originals back on exit.  A layer is named after the densilab module that owns
the function.  Spans stay in memory; ``layer_metrics`` reduces them to the
per-layer figures the benchmark reports, per pass of the workload.
"""

import json
import time
from collections import defaultdict
from dataclasses import dataclass, field

from densilab import assembly, density, experiments, geometry, measures, spectrum

PENCIL_BUCKETS = (512, 1024, 2048)


@dataclass
class Span:
    id: int
    parent: int | None
    item: int          # the benchmark item that caused the call
    layer: str
    name: str
    start: float
    end: float = 0.0
    child: float = 0.0  # time covered by direct children
    info: dict = field(default_factory=dict)

    @property
    def self_time(self):
        return self.end - self.start - self.child


def _note_solve(tracer, span, args, result):
    span.info.update(size=args[0].size, pairs=len(result.values),
                     max_residual=float(max(result.residual_norms, default=0.0)))


def _note_spectrum(tracer, span, args, result):
    # every span opened since this one is a descendant: nothing else ran
    solves = sum(1 for s in tracer.spans[span.id + 1:] if s.layer == "eigensolver")
    slots = result.slot_entries()
    span.info.update(modes_swept=solves,
                     modes_used=len({j for _, _, j, _ in slots}),
                     pairs_used=len({(j, lam) for _, lam, j, _ in slots}))


def _note_richardson(tracer, span, args, result):
    span.info.update(rows=1, resolved=int(result["resolved"]))


def _note_assemble(tracer, span, args, result):
    span.info["nodes"] = len(args[0].grid.nodes)


def _note_evaluate(tracer, span, args, result):
    span.info["points"] = result.size


# (layer, owner, attribute, note): the owner is every place the name is looked
# up at call time, so a call is traced whichever module makes it.
TARGETS = (
    ("eigensolver", spectrum, "solve_generalized", _note_solve),
    ("assembly", spectrum, "assemble", _note_assemble),
    ("spectrum", experiments, "full_spectrum", _note_spectrum),
    ("spectrum", spectrum, "minmax_bound", None),
    ("spectrum", spectrum, "rayleigh_quotient", None),
    ("spectrum", spectrum, "holder_chain_check", None),
    ("experiments", experiments, "exp_blowup_scan", None),
    ("experiments", experiments, "exp_conformal_identity", None),
    ("experiments", experiments, "lambda1_richardson", _note_richardson),
    ("density", density.DensityField, "evaluate", _note_evaluate),
    ("quadrature", assembly, "element_integrals", None),
    ("quadrature", assembly, "gauss_points", None),
    ("quadrature", geometry, "element_integrals", None),
    ("quadrature", geometry, "integrate", None),
    ("quadrature", density, "integrate", None),
    ("quadrature", experiments, "integrate", None),
    ("geometry", experiments, "conformal_reparametrize", None),
    ("geometry", experiments, "volume", None),
    ("geometry", geometry, "volume", None),
    ("measures", measures, "select_small_sets", None),
    ("measures", measures, "brute_force_verify", None),
)


class Tracer:
    """Context manager that traces every function in ``TARGETS``."""

    def __init__(self):
        self.spans = []
        self.item = 0
        self._stack = []
        self._saved = []

    def __enter__(self):
        for layer, owner, attr, note in TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, note))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def _wrap(self, layer, fn, note):
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), parent.id if parent else None, self.item,
                        layer, fn.__name__, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span.info["error"] = 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                if parent is not None:
                    parent.child += span.end - span.start
            if note is not None:
                note(self, span, args, result)
            return result
        traced.__name__ = fn.__name__
        traced.__doc__ = fn.__doc__
        return traced

    def covered(self):
        """Time inside top-level spans, i.e. inside densilab at all."""
        return sum(s.end - s.start for s in self.spans if s.parent is None)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "parent": s.parent, "item": s.item,
                                     "layer": s.layer, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "self": s.self_time, **s.info}) + "\n")


def _ratio(num, den):
    return num / den if den else 0.0


def _unit(name):
    if "self_s" in name:
        return "s/pass"
    if name.endswith(("yield", "ratio", "max_residual")):
        return "1"
    return "count/pass"


def layer_metrics(spans, passes):
    """Per-layer counts and self times per pass, plus yields and extremes.

    Returns ``{name: (value, unit)}``.  A ratio whose base is zero (no such
    work in the workload) reads 0.
    """
    by_layer = defaultdict(list)
    for s in spans:
        by_layer[s.layer].append(s)

    def total(layer, key):
        return sum(s.info.get(key, 0) for s in by_layer[layer])

    def self_s(layer, keep=lambda s: True):
        return sum(s.self_time for s in by_layer[layer] if keep(s)) / passes

    def named(name):
        return lambda s: s.name == name

    def bucket(s):
        size = s.info.get("size", 0)
        return 1 << (size.bit_length() - 1) if size else 0

    solves = by_layer["eigensolver"]
    pairs = total("eigensolver", "pairs")
    swept = total("spectrum", "modes_swept")
    rows = total("experiments", "rows")
    metrics = {
        "eigensolver.calls": len(solves) / passes,
        "eigensolver.pairs": pairs / passes,
        "eigensolver.self_s": self_s("eigensolver"),
    }
    for n in PENCIL_BUCKETS:
        metrics[f"eigensolver.self_s.n{n}"] = self_s(
            "eigensolver", lambda s, n=n: bucket(s) == n)
    metrics.update({
        "eigensolver.max_residual": max(
            (s.info.get("max_residual", 0.0) for s in solves), default=0.0),
        "eigensolver.errors": total("eigensolver", "error") / passes,
        "spectrum.calls": len(by_layer["spectrum"]) / passes,
        "spectrum.modes_swept": swept / passes,
        "spectrum.modes_used": total("spectrum", "modes_used") / passes,
        "spectrum.mode_yield": _ratio(total("spectrum", "modes_used"), swept),
        "spectrum.pairs_used": total("spectrum", "pairs_used") / passes,
        "spectrum.pair_yield": _ratio(total("spectrum", "pairs_used"), pairs),
        "spectrum.self_s": self_s("spectrum"),
        "experiments.richardson_rows": rows / passes,
        "experiments.resolved_ratio": _ratio(total("experiments", "resolved"), rows),
        "experiments.self_s": self_s("experiments"),
        "assembly.calls": len(by_layer["assembly"]) / passes,
        "assembly.nodes": total("assembly", "nodes") / passes,
        "assembly.self_s": self_s("assembly"),
        "density.calls": len(by_layer["density"]) / passes,
        "density.points": total("density", "points") / passes,
        "density.self_s": self_s("density"),
        "quadrature.calls": len(by_layer["quadrature"]) / passes,
        "quadrature.self_s": self_s("quadrature"),
        "geometry.calls": len(by_layer["geometry"]) / passes,
        "geometry.self_s": self_s("geometry"),
        "measures.select_calls": sum(
            1 for s in by_layer["measures"] if s.name == "select_small_sets") / passes,
        "measures.select_self_s": self_s("measures", named("select_small_sets")),
        "measures.verify_self_s": self_s("measures", named("brute_force_verify")),
    })
    return {name: (value, _unit(name)) for name, value in metrics.items()}
