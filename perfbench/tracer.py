"""Span tracer that wraps edgesym's public entry points from outside.

Every layer is measured at its boundary by replacing the function object
wherever a caller looks it up: the defining module's attribute (callers
inside that module and callers that go through the module, such as
``aut`` calling ``kernel.search_mapping``) and every module that imported
the name with ``from ... import``. Nothing under ``src/`` is edited.

Spans are kept in memory as (name, parent, start, end, hit) records and
turned into per-layer metrics by ``layer_metrics`` after the traced pass.
A span's self time is its duration minus the time covered by its children.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
from time import perf_counter

# layer -> (defining module, public functions). The span of a function is
# named "<module>.<function>".
LAYERS = {
    "kernel": ("kernel", ["search_mapping"]),
    "aut.find": ("aut", ["find_automorphism"]),
    "aut.group": ("aut", [
        "stabiliser_generators",
        "pointwise_stabiliser_generators",
        "automorphism_generators",
        "group_order",
        "all_automorphisms",
    ]),
    "aut.iso": ("aut", ["find_isomorphism"]),
    "catalog": ("catalog", [
        "connected_regular_upto", "connected_regular_graphs", "regular_graphs",
    ]),
    "layered": ("layered", [
        "colour_regular",
        "build_layering",
        "colour_horizontal",
        "assign_decorations",
        "check_step_properties",
    ]),
    "distinguishing": ("distinguishing", [
        "distinguishing_index_with_witness",
        "search_colouring",
        "scan_conjecture",
        "is_distinguishing",
    ]),
    "cli": ("cli", ["main"]),
}

# Call sites whose span gets its own name. The only call of is_distinguishing
# that layered makes is the final check at the end of colour_regular.
SITE_NAMES = {("layered", "is_distinguishing"): "layered.final_verify"}

# Sites the layering of the package requires; entering the tracer fails if one
# of them was not patched, so a moved import cannot silently drop a layer.
REQUIRED_SITES = [
    ("kernel", "search_mapping"),
    ("layered", "find_automorphism"),
    ("distinguishing", "find_automorphism"),
    ("catalog", "find_isomorphism"),
    ("layered", "stabiliser_generators"),
    ("layered", "pointwise_stabiliser_generators"),
    ("layered", "is_distinguishing"),
]

LAYERED_STAGES = {
    "layering": "layered.build_layering",
    "horizontal": "layered.colour_horizontal",
    "decorations": "layered.assign_decorations",
    "step_checks": "layered.check_step_properties",
    "final_verify": "layered.final_verify",
}

KERNEL = "kernel.search_mapping"
FIND = "aut.find_automorphism"
ISO = "aut.find_isomorphism"
VERIFY = "distinguishing.is_distinguishing"
INDEX_SPANS = ("distinguishing.distinguishing_index_with_witness",
               "distinguishing.search_colouring")


class Tracer:
    """Context manager: patches on entry, restores on exit."""

    def __init__(self):
        self.spans: list = []
        self.neighbours_calls = 0
        self._stack: list[int] = []
        self._restore: list = []
        self.layer_of: dict[str, str] = {}

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            hit = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                hit = result is not None and result is not False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, parent, start, end, hit)

        return traced

    def __enter__(self):
        mods = {home: importlib.import_module(f"edgesym.{home}") for home, _ in LAYERS.values()}
        loaded = [(k[len("edgesym."):], v) for k, v in list(sys.modules.items())
                  if k.startswith("edgesym.") and v is not None]
        patched = set()
        for layer, (home, names) in LAYERS.items():
            for fname in names:
                original = getattr(mods[home], fname)
                default = f"{home}.{fname}"
                self.layer_of[default] = layer
                for site, mod in loaded:
                    if getattr(mod, fname, None) is original:
                        span = SITE_NAMES.get((site, fname), default)
                        self.layer_of[span] = layer
                        self._restore.append((mod, fname, original))
                        setattr(mod, fname, self._wrap(original, span))
                        patched.add((site, fname))
        missing = [s for s in REQUIRED_SITES if s not in patched]
        if missing:
            self.__exit__(None, None, None)
            raise RuntimeError(f"tracer could not patch {missing}")

        graph_cls = sys.modules["edgesym.graph"].Graph
        neighbours = graph_cls.neighbours

        def counted(g, v):
            self.neighbours_calls += 1
            return neighbours(g, v)

        self._restore.append((graph_cls, "neighbours", neighbours))
        graph_cls.neighbours = counted
        return self

    def __exit__(self, *exc):
        while self._restore:
            obj, attr, original = self._restore.pop()
            setattr(obj, attr, original)
        return False


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float, classes: int, fallback_layers: int) -> dict:
    """Per-layer counts and times of one traced pass of ``wall`` seconds.

    Counts are exact integers or ratios of them. Times are shares of the
    pass in percent (``*_pct``), apart from the kernel's time per call.
    ``classes`` is the number of catalogue classes the pass emitted (zero
    outside the catalogue workload).
    """
    spans = tracer.spans
    layer_of = tracer.layer_of
    n = len(spans)
    child = [0.0] * n
    anc_of = [frozenset()] * n  # names of all ancestors
    interned: dict = {}
    for i, (name, parent, start, end, _) in enumerate(spans):
        if parent >= 0:
            child[parent] += end - start
            key = (anc_of[parent], spans[parent][0])
            anc = interned.get(key)
            if anc is None:
                anc = interned[key] = key[0] | {key[1]}
            anc_of[i] = anc

    calls: dict[str, int] = {}
    hits: dict[str, int] = {}
    layer_self: dict[str, float] = {layer: 0.0 for layer in LAYERS}
    span_self: dict[str, float] = {}
    outer_total: dict[str, float] = {}  # spans not nested in one of the same name
    kernel_under: dict[str, int] = {}
    group_queries = group_witnesses = group_kernel = iso_in_catalog = 0
    group_names = {s for s, layer in layer_of.items() if layer == "aut.group"}
    catalog_names = {s for s, layer in layer_of.items() if layer == "catalog"}

    for i, (name, parent, start, end, hit) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        hits[name] = hits.get(name, 0) + hit
        self_s = dur - child[i]
        layer_self[layer_of[name]] += self_s
        span_self[name] = span_self.get(name, 0.0) + self_s
        if name not in anc_of[i]:
            outer_total[name] = outer_total.get(name, 0.0) + dur
        if name == KERNEL:
            for a in anc_of[i]:
                kernel_under[a] = kernel_under.get(a, 0) + 1
            group_kernel += bool(anc_of[i] & group_names)
        elif name == FIND and parent >= 0 and spans[parent][0] in group_names:
            group_queries += 1
            group_witnesses += hit
        elif name == ISO and anc_of[i] & catalog_names:
            iso_in_catalog += 1

    def pct(seconds: float) -> float:
        return 100 * seconds / wall

    kcalls = calls.get(KERNEL, 0)
    find_calls = calls.get(FIND, 0)
    m = {
        "kernel.calls": kcalls,
        "kernel.hits": hits.get(KERNEL, 0),
        "kernel.self_pct": pct(layer_self["kernel"]),
        "kernel.us_per_call": _ratio(layer_self["kernel"] * 1e6, kcalls),
        "aut.find.calls": find_calls,
        "aut.find.self_pct": pct(layer_self["aut.find"]),
        "aut.find.kernel_calls_per_call": _ratio(kernel_under.get(FIND, 0), find_calls),
        "aut.group.calls": sum(calls.get(s, 0) for s in group_names),
        "aut.group.kernel_calls": group_kernel,
        "aut.group.hit_ratio": _ratio(group_witnesses, group_queries),
        "aut.group.self_pct": pct(layer_self["aut.group"]),
        "aut.iso.calls": calls.get(ISO, 0),
        "aut.iso.hits": hits.get(ISO, 0),
        "aut.iso.self_pct": pct(layer_self["aut.iso"]),
        "catalog.self_pct": pct(layer_self["catalog"]),
        "catalog.iso_checks_per_class": _ratio(iso_in_catalog, classes),
        "graph.neighbours_calls": tracer.neighbours_calls,
    }
    for stage, span in LAYERED_STAGES.items():
        m[f"layered.{stage}_pct"] = pct(outer_total.get(span, 0.0))
        m[f"layered.{stage}.kernel_calls"] = kernel_under.get(span, 0)
    m["layered.fallback_layers"] = fallback_layers
    m["distinguishing.index.self_pct"] = pct(sum(span_self.get(s, 0.0) for s in INDEX_SPANS))
    m["distinguishing.verify_calls"] = calls.get(VERIFY, 0)
    m["distinguishing.verify_hit_ratio"] = _ratio(hits.get(VERIFY, 0), calls.get(VERIFY, 0))
    m["distinguishing.allaut_pct"] = pct(outer_total.get("aut.all_automorphisms", 0.0))
    return m


def is_count(name: str) -> bool:
    """Metrics that must repeat exactly between traced passes."""
    return not (name.endswith("_pct") or name == "kernel.us_per_call")


def median_metrics(passes: list[dict]) -> dict:
    """Counts from the first pass (they repeat), times as medians."""
    out = {}
    for name, value in passes[0].items():
        out[name] = value if is_count(name) else statistics.median(p[name] for p in passes)
    return out
