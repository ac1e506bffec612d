"""Call tracer for tancat's public functions, installed from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper in every
``tancat.*`` module namespace that holds it, because ``from .poly import
poly_mul`` binds a separate name in each importing module, and on the class
for methods.  Each wrapped call opens a span whose parent is the innermost
open span.  Spans are merged per call path (the chain of layer names from the
operation down), so the tree written at the end keeps parent links, call
counts and times while staying small; a pass makes millions of calls.

Self time of a layer is its span time minus the time of its child spans.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

# (layer, module, attribute); a dotted attribute names a class member.  Layers
# listed more than once are counted together.
TARGETS = (
    ("scalars.coerce", "tancat.scalars", "coerce"),
    ("poly.from_terms", "tancat.poly", "Poly.from_terms"),
    ("poly.poly_add", "tancat.poly", "poly_add"),
    ("poly.poly_mul", "tancat.poly", "poly_mul"),
    ("poly.poly_subst", "tancat.poly", "poly_subst"),
    ("poly.partial_derivative", "tancat.poly", "partial_derivative"),
    ("poly.polymap_compose", "tancat.poly", "polymap_compose"),
    ("poly.poly_to_str", "tancat.poly", "poly_to_str"),
    ("parser.parse_polymap", "tancat.parser", "parse_polymap"),
    ("cdc.cdc_D", "tancat.cdc", "cdc_D"),
    ("cdc.cdc_T", "tancat.cdc", "cdc_T"),
    ("cdc.structural", "tancat.cdc", "point_proj"),
    ("cdc.structural", "tancat.cdc", "tangent_zero"),
    ("cdc.structural", "tancat.cdc", "tangent_plus"),
    ("cdc.structural", "tancat.cdc", "cdc_ell"),
    ("cdc.structural", "tancat.cdc", "cdc_flip"),
    ("cdc.structural", "tancat.cdc", "t_n_carrier"),
    ("model.vertical_lift_v", "tancat.model", "vertical_lift_v"),
    ("model.monad_mult", "tancat.model", "monad_mult"),
    ("numeric.dual_eval", "tancat.numeric", "dual_eval"),
    ("numeric.fd_check", "tancat.numeric", "fd_check"),
    ("bundles.make_bundle", "tancat.bundles", "make_bundle"),
    ("bundles.verify_bundle", "tancat.bundles", "verify_bundle"),
    ("bundles.bracket", "tancat.bundles", "bracket"),
    ("diffobj.derived_D", "tancat.diffobj", "derived_D"),
    ("diffobj.check_cds", "tancat.diffobj", "check_cds"),
    ("fibration.simple_compose", "tancat.fibration", "simple_compose"),
    ("fibration.verify_fibre_axioms", "tancat.fibration", "verify_fibre_axioms"),
    ("report.CheckSet.equality", "tancat.report", "CheckSet.equality"),
    ("report.Report.to_json", "tancat.report", "Report.to_json"),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

# Layers whose distinct argument tuples are counted.  The tuples themselves are
# kept, since hashes alone merge inputs: hash(-1) == hash(-2) in CPython.
DISTINCT = ("poly.polymap_compose", "cdc.cdc_T", "cdc.structural")


def is_variable_map(f) -> bool:
    """True when every component of a PolyMap is a bare variable x_j."""
    for comp in f.components:
        if len(comp.terms) != 1:
            return False
        ev, c = comp.terms[0]
        if c != 1 or sum(ev) != 1:
            return False
    return True


class _Node:
    __slots__ = ("id", "parent", "name", "calls", "total", "child", "children")

    def __init__(self, node_id: int, parent: "_Node | None", name: str):
        self.id = node_id
        self.parent = parent
        self.name = name
        self.calls = 0
        self.total = 0.0
        self.child = 0.0
        self.children: dict = {}


class Tracer:
    """Spans per call path, plus the counters that need the call's arguments."""

    def __init__(self):
        self._nodes = [_Node(0, None, "run")]
        self._stack = [self._nodes[0]]
        self._installed = []
        self.distinct = {layer: set() for layer in DISTINCT}
        self.extra = {
            "poly.poly_mul.terms_out": 0,
            "poly.poly_subst.terms_in": 0,
            "poly.polymap_compose.varmap": 0,
            "report.CheckSet.equality.fails": 0,
        }

    # ------------------------------------------------------------- spans

    def _open(self, name: str) -> _Node:
        parent = self._stack[-1]
        node = parent.children.get(name)
        if node is None:
            node = _Node(len(self._nodes), parent, name)
            self._nodes.append(node)
            parent.children[name] = node
        self._stack.append(node)
        return node

    def _close(self, node: _Node, elapsed: float) -> None:
        self._stack.pop()
        node.calls += 1
        node.total += elapsed
        self._stack[-1].child += elapsed

    def span(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span named ``name`` (used for whole operations)."""
        node = self._open(name)
        t0 = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(node, perf_counter() - t0)

    def _wrap(self, layer: str, fn):
        open_, close = self._open, self._close
        note = self._observer(layer, fn.__name__)

        def traced(*args, **kwargs):
            node = open_(layer)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                close(node, perf_counter() - t0)
            if note is not None:
                note(args, kwargs, out)
            return out

        return traced

    def _observer(self, layer: str, fn_name: str):
        """The per-call counter for ``layer``, or None; distinct inputs are
        keyed by function name too, since ``cdc.structural`` spans six."""
        extra = self.extra
        if layer == "poly.poly_mul":
            def note(args, kwargs, out):
                extra["poly.poly_mul.terms_out"] += len(out.terms)
        elif layer == "poly.poly_subst":
            def note(args, kwargs, out):
                extra["poly.poly_subst.terms_in"] += len(args[0].terms)
        elif layer == "poly.polymap_compose":
            seen = self.distinct[layer]

            def note(args, kwargs, out):
                seen.add((fn_name, args, tuple(sorted(kwargs.items()))))
                if is_variable_map(args[0]) or is_variable_map(args[1]):
                    extra["poly.polymap_compose.varmap"] += 1
        elif layer in DISTINCT:
            seen = self.distinct[layer]

            def note(args, kwargs, out):
                seen.add((fn_name, args, tuple(sorted(kwargs.items()))))
        elif layer == "report.CheckSet.equality":
            def note(args, kwargs, out):
                if out is False:
                    extra["report.CheckSet.equality.fails"] += 1
        else:
            note = None
        return note

    # ------------------------------------------------------- installation

    def install(self) -> None:
        """Wrap every target wherever a ``tancat`` module binds it."""
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "tancat" or name.startswith("tancat."))
        ]
        for layer, module_name, attr in TARGETS:
            owner = sys.modules[module_name]
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[member]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(layer, raw.__func__))
                else:
                    new = self._wrap(layer, raw)
                self._installed.append((cls, member, raw))
                setattr(cls, member, new)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(layer, fn)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is fn:
                        self._installed.append((mod, name, fn))
                        setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for target, name, original in reversed(self._installed):
            setattr(target, name, original)
        self._installed.clear()

    # ------------------------------------------------------------ results

    def layer_stats(self) -> dict:
        """Per-layer calls and self time, summed over every call path."""
        stats = {layer: {"calls": 0, "self_s": 0.0} for layer in LAYERS}
        for node in self._nodes[1:]:
            row = stats.get(node.name)
            if row is not None:
                row["calls"] += node.calls
                row["self_s"] += node.total - node.child
        for layer, seen in self.distinct.items():
            calls = stats[layer]["calls"]
            stats[layer]["distinct"] = len(seen)
            stats[layer]["distinct_share"] = len(seen) / calls if calls else 0.0
        stats["poly.poly_mul"]["terms_out"] = self.extra["poly.poly_mul.terms_out"]
        stats["poly.poly_subst"]["terms_in"] = self.extra["poly.poly_subst.terms_in"]
        compose = stats["poly.polymap_compose"]
        compose["varmap_share"] = (
            self.extra["poly.polymap_compose.varmap"] / compose["calls"]
            if compose["calls"] else 0.0
        )
        equality = stats["report.CheckSet.equality"]
        equality["fail_share"] = (
            self.extra["report.CheckSet.equality.fails"] / equality["calls"]
            if equality["calls"] else 0.0
        )
        return stats

    def write_spans(self, path: str) -> None:
        """Write the span tree: one record per call path, with its parent's id."""
        rows = [
            {
                "id": n.id,
                "parent": n.parent.id if n.parent is not None else None,
                "name": n.name,
                "calls": n.calls,
                "total_s": n.total,
                "self_s": n.total - n.child,
            }
            for n in self._nodes[1:]
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"format": "span tree merged per call path", "spans": rows}, fh)
            fh.write("\n")
