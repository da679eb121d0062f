"""Constructive 3-colour distinguishing edge colouring for regular graphs.

Strategy: root the graph, slice the vertices into orbits of the root
stabiliser ordered by distance, and walk the slices outward. Each step first
colours the edges inside the current slice (recursing into regular
components where needed), then breaks the remaining symmetry by recolouring
forward and back edges of the slice with small "decorations" chosen so that
no two symmetric components receive interchangeable patterns.

Every degree from 3 up runs this one construction with no fallback: a
decoration shortage or a broken step invariant raises. At degree >= 5 the
supply-vs-demand count for decorations is also asserted at every assignment
point. Cycles (red on three fixed positions, or a search below six
vertices) and complete graphs (an exhaustive search) are coloured directly.
"""

from __future__ import annotations

import bisect
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

from .aut import (
    AutConstraint,
    Partition,
    Permutation,
    _label_rows,
    carrier,
    find_automorphism,
    pointwise_stabiliser_generators,
    stabiliser_generators,
    vertex_orbits,
)
from .colouring import (
    BLUE,
    GREEN,
    PALETTE,
    RED,
    EdgeColouring,
    satisfies_blue_rule,
)
from .distinguishing import DEFAULT_BUDGET, is_distinguishing, search_colouring
from .graph import Edge, Graph, distances_from, edge, is_connected, regularity


class NotColourableError(ValueError):
    """The single-edge graph: every colouring is preserved by the swap."""


class DecorationShortageError(RuntimeError):
    def __init__(self, layer: int, component, orbit_size: int, available: int):
        super().__init__(
            f"layer {layer}: component {component} has {available} asymmetric "
            f"decorations for an orbit of {orbit_size}"
        )
        self.layer = layer
        self.component = component
        self.orbit_size = orbit_size
        self.available = available


class StepPropertyError(RuntimeError):
    def __init__(self, layer: int, violations: list[str]):
        super().__init__(f"layer {layer}: " + "; ".join(violations))
        self.layer = layer
        self.violations = violations


class VerificationError(RuntimeError):
    pass


# -- layering ------------------------------------------------------------------


@dataclass
class LayerEdgeClasses:
    """A slice's incident edges by direction, with the counts f, b, h of
    forward, back and horizontal edges that every vertex of the slice has,
    and the components of its horizontal edges (sorted tuples, in order)."""

    back: list[Edge]
    forward: list[Edge]
    horizontal: list[Edge]
    f: int
    b: int
    h: int
    components: list[tuple[int, ...]]


@dataclass
class OrbitLayering:
    """Vertex slices (root-stabiliser orbits ordered by distance) with their
    incident edges split by direction in classes, the furthest slice each
    prefix of slices touches, the ascending indices of the slices of two or
    more vertices, and the root stabiliser's generators (the pointwise
    stabiliser of slice 0).

    Once slices 0..i are coloured, the edges with both ends in slices up to
    reach[i] are settled. outward_edges lists every edge by the slice of its
    later end, so those are its first settled_count[i] edges: the settled
    sets are nested, and each holds its slice's incident edges."""

    root: int
    layers: list[list[int]]
    layer_of: dict[int, int]
    classes: list[LayerEdgeClasses]
    reach: list[int]
    outward_edges: tuple[Edge, ...]
    settled_count: list[int]
    multi_slices: tuple[int, ...]
    root_generators: list[Permutation]

    @property
    def count(self) -> int:
        return len(self.layers)

    def earlier_vertices(self, i: int) -> list[int]:
        return [v for layer in self.layers[:i] for v in layer]

    def settled_edges(self, i: int) -> tuple[Edge, ...]:
        return self.outward_edges[: self.settled_count[i]]


def build_layering(g: Graph, r: int) -> OrbitLayering:
    """Orbits of the root stabiliser, ordered by (distance from root, least
    vertex), and one ascending pass over the edges that files each edge
    under the slices of its two ends and merges the horizontal components
    of a horizontal edge's ends. Per-vertex (f, b, h) counts must be uniform
    across a slice (orbit property), else the layering is broken."""
    if not 0 <= r < g.n:
        raise ValueError(f"root {r} outside vertex range")
    dist = distances_from(g, r)
    if len(dist) != g.n:
        raise ValueError("layering requires a connected graph")
    gens = stabiliser_generators(g, r)
    layers = sorted(vertex_orbits(g, gens), key=lambda o: (dist[o[0]], o[0]))
    if layers[0] != [r]:
        raise AssertionError("root is not alone in its orbit")
    layer_of = {v: i for i, layer in enumerate(layers) for v in layer}

    k = len(layers)
    back, forward, horizontal, by_later_end = ([[] for _ in range(k)] for _ in range(4))
    fbh = [[0, 0, 0] for _ in range(g.n)]
    comp = [[v] for v in range(g.n)]  # comp[v]: v's horizontal component so far
    touch = list(range(k))  # furthest slice each slice touches by an edge
    for e in g.edges:
        u, v = e if layer_of[e[0]] <= layer_of[e[1]] else e[::-1]
        i, j = layer_of[u], layer_of[v]
        if i == j:
            horizontal[i].append(e)
            fbh[u][2] += 1
            fbh[v][2] += 1
            big, small = sorted((comp[u], comp[v]), key=len, reverse=True)
            if big is not small:
                big += small
                for w in small:
                    comp[w] = big
        else:
            forward[i].append(e)
            back[j].append(e)
            fbh[u][0] += 1
            fbh[v][1] += 1
            touch[i] = max(touch[i], j)
        by_later_end[j].append(e)

    classes = []
    for i, layer in enumerate(layers):
        counts = {tuple(fbh[v]) for v in layer}
        if len(counts) != 1:
            raise AssertionError(f"non-uniform (f,b,h) across layer {i}: {sorted(counts)}")
        f, b, h = counts.pop()
        if i > 0 and b == 0:
            raise AssertionError(f"layer {i} has no back edges")
        components = sorted({tuple(sorted(comp[v])) for v in layer})
        classes.append(LayerEdgeClasses(back[i], forward[i], horizontal[i], f, b, h, components))

    reach = list(itertools.accumulate(touch, max))
    # up_to[s]: the edges whose later end lies in slice s or before
    up_to = list(itertools.accumulate(map(len, by_later_end)))
    outward = tuple(itertools.chain.from_iterable(by_later_end))
    multi = tuple(i for i, layer in enumerate(layers) if len(layer) > 1)
    return OrbitLayering(r, layers, layer_of, classes, reach, outward,
                         [up_to[x] for x in reach], multi, gens)


# -- step state -----------------------------------------------------------------


class StepColouring(dict):
    """Every edge's colour, with a log of the writes for the step checks.

    Each edge written through __setitem__ or update since written was last
    cleared is a key of written, with its colour before the first such
    write. non_blue[v] counts v's incident edges that are not blue, and
    all_blue holds the vertices whose count is 0. Every edge is a key from
    the start, so a write only recolours: writing a non-edge raises
    KeyError."""

    def __init__(self, colours: dict[Edge, str]):
        super().__init__(colours)
        self.written: dict[Edge, str] = {}
        self.non_blue: dict[int, int] = {}
        for e, c in self.items():
            for v in e:
                self.non_blue[v] = self.non_blue.get(v, 0) + (c != BLUE)
        self.all_blue = {v for v, k in self.non_blue.items() if not k}

    def __setitem__(self, e: Edge, colour: str) -> None:
        old = self[e]
        self.written.setdefault(e, old)
        super().__setitem__(e, colour)
        gain = (colour != BLUE) - (old != BLUE)
        if gain:
            for v in e:
                self.non_blue[v] += gain
                if self.non_blue[v]:
                    self.all_blue.discard(v)
                else:
                    self.all_blue.add(v)

    def update(self, colours: dict[Edge, str]) -> None:
        for e, c in colours.items():
            self[e] = c


@dataclass
class SettledCarry:
    """What _settled_cells carries from one step check to the next: its
    label rows, in which the edges settled by the last entry's slice carry
    the labels of the colours they had when applied and the others label 1,
    the partition refined under those rows, and the (j, loose) it yielded
    for the multi-vertex slices j, in ascending order."""

    rows: list[list[int]]
    partition: Partition
    entries: list[tuple[int, list[int]]] = field(default_factory=list)


@dataclass
class StepState:
    graph: Graph
    layering: OrbitLayering
    degree: int
    colouring: StepColouring
    audit: list[dict] = field(default_factory=list)
    # slice i -> generators of its persistent group: the automorphisms that
    # fix every earlier slice pointwise and preserve slice i's horizontal
    # colouring. They fix the root, so they map every slice onto itself.
    # colour_horizontal sets them when it installs slice i's colours
    persistent_gens: dict[int, list[Permutation]] = field(default_factory=dict)
    # _settled_cells' carry; not an __init__ argument, so that a copy made by
    # dataclasses.replace starts without one
    settled: Optional[SettledCarry] = field(default=None, init=False, repr=False)

    def earlier_stabiliser(
        self, i: int, colours: Optional[dict[Edge, str]] = None
    ) -> list[Permutation]:
        """Generators of the automorphisms that fix every slice before i
        pointwise and preserve colours. Slice 0 is the root alone, so for
        i = 1 and no colours that is the root stabiliser, whose generators
        build_layering kept.

        This group lies in the previous one, the root stabiliser for i = 1
        and slice i - 1's persistent group after that: a map fixing slice
        i - 1 pointwise preserves its horizontal colouring. So once the
        previous group has no generators, neither has this one, and no chain
        runs."""
        lay = self.layering
        if i == 1 and not colours:
            return lay.root_generators
        previous = lay.root_generators if i == 1 else self.persistent_gens.get(i - 1)
        if previous == []:  # None: slice i - 1 is not coloured yet
            return []
        return pointwise_stabiliser_generators(self.graph, lay.earlier_vertices(i), colours)


def initial_colouring(g: Graph, r: int) -> StepState:
    """Blue at the root, green everywhere else."""
    layering = build_layering(g, r)
    colours = StepColouring({e: (BLUE if r in e else GREEN) for e in g.edges})
    deg = regularity(g)
    if deg is None:
        raise ValueError("layered colouring expects a regular graph")
    state = StepState(g, layering, deg, colours)
    state.audit.append({"layer": 0, "rule": "root", "decorations": []})
    return state


# -- horizontal step -------------------------------------------------------------


def _matching_orbit_colours(orbits: Sequence[Sequence[Edge]]) -> dict[Edge, str]:
    """Cyclic red/green/blue over each orbit, in its order, keeps every colour
    to at most half of any orbit with two or more edges; singletons stay green."""
    out: dict[Edge, str] = {}
    for orbit in orbits:
        if len(orbit) == 1:
            out[orbit[0]] = GREEN
        else:
            for j, e in enumerate(orbit):
                out[e] = PALETTE[j % 3]
    return out


def colour_horizontal(state: StepState, i: int, budget: int = DEFAULT_BUDGET) -> StepState:
    """Colour the edges inside slice i.

    h = 0: nothing to do. h = 1: the slice's matching edges get a balanced
    colouring over their orbits under the pointwise stabiliser of everything
    earlier, grouped as components are. h >= 2: every component is a
    regular graph of smaller degree; recurse and install. No later step recolours these edges. Then slice
    i's persistent generators are computed under the installed colours.
    """
    g = state.graph
    cls = state.layering.classes[i]
    installed: dict[Edge, str] = {}
    if cls.h == 0:
        rule = "H0"
    elif cls.h == 1:
        rule = "H1"
        orbits = _component_orbits(state, i, state.earlier_stabiliser(i))
        installed = _matching_orbit_colours(orbits)
    else:
        rule = "H2plus"
        if not 2 <= cls.h < state.degree:
            raise AssertionError(f"horizontal degree {cls.h} out of range at layer {i}")
        hgraph = Graph(g.n, cls.horizontal)
        for comp in cls.components:
            sub, labels = hgraph.induced(comp)
            try:
                sub_colouring = colour_regular(sub, budget=budget)
            except Exception as exc:
                # one message, not a tuple, so the CLI prints one line
                exc.args = (f"{exc} (while colouring component {comp} inside layer {i})",)
                raise
            for (a, b), col in sub_colouring.assignment.items():
                installed[edge(labels[a], labels[b])] = col
    state.colouring.update(installed)
    state.persistent_gens[i] = state.earlier_stabiliser(i, installed)
    state.audit.append({"layer": i, "rule": rule, "decorations": []})
    return state


# -- decorations --------------------------------------------------------------------


@dataclass(frozen=True)
class Decoration:
    """Recolouring recipe for one component: forward edges in forward_red
    turn red (the rest green), back edges in back_blue turn blue."""

    component: tuple[int, ...]
    forward_red: tuple[Edge, ...]
    back_blue: tuple[Edge, ...]


def _decoration_sites(state: StepState, i: int, comp: tuple[int, ...]) -> list[int]:
    cls = state.layering.classes[i]
    if cls.h == 0:
        return list(comp)
    if cls.h == 1:
        return [min(comp)]
    col = state.colouring
    return [v for v in comp if any(col[e] != BLUE for e in cls.horizontal if v in e)]


def _decoration_back_edges(state: StepState, i: int, sites: set[int]) -> list[Edge]:
    """Non-blue back edges at a component's sites. No persistent automorphism
    moves one onto another: it fixes their earlier ends, and it fixes every
    site of a component it maps onto itself, because a component has one
    site when h <= 1 and a distinguishing colouring of its own when h >= 2."""
    return [
        e
        for e in state.layering.classes[i].back
        if (e[0] in sites or e[1] in sites) and state.colouring[e] != BLUE
    ]


def enumerate_decorations(state: StepState, i: int, comp: tuple[int, ...]) -> list[Decoration]:
    """Candidate decorations at a component: one forward subset per size
    (lexicographically least), crossed with the allowed back-edge shapes
    (empty, one currently-red edge, two currently-green edges) drawn from
    back edges no persistent automorphism can move onto each other."""
    cls = state.layering.classes[i]
    sites = set(_decoration_sites(state, i, comp))
    fwd = sorted(e for e in cls.forward if e[0] in sites or e[1] in sites)
    kept = _decoration_back_edges(state, i, sites)

    forward_choices = [tuple(fwd[:s]) for s in range(len(fwd) + 1)]
    reds = [e for e in kept if state.colouring[e] == RED]
    greens = [e for e in kept if state.colouring[e] == GREEN]
    back_choices: list[tuple[Edge, ...]] = [()]
    back_choices += [(e,) for e in reds]
    back_choices += [pair for pair in itertools.combinations(greens, 2)]
    return [
        Decoration(comp, F, B) for F in forward_choices for B in back_choices
    ]


def decoration_is_asymmetric(state: StepState, i: int, d: Decoration) -> bool:
    """No nontrivial persistent automorphism maps the component onto itself
    while mapping the decoration onto itself. By cases:

    h = 0: the component is one vertex. h >= 2: the component carries a
    distinguishing colouring that persistent maps preserve, so a map keeping
    it in place is the identity on it. h = 1: the component is a matching
    edge uv with site u; a map nontrivial on it swaps u and v, which moves
    every decoration edge (all at u, none uv) off itself. The empty
    decoration is left with such a swap exactly when some persistent map
    sends u to v, because uv is the only horizontal edge at v.
    """
    if state.layering.classes[i].h != 1 or d.forward_red or d.back_blue:
        return True
    u, v = d.component
    return carrier(state.graph, state.persistent_gens[i], u, {v}) is None


def decorations_similar(state: StepState, i: int, d1: Decoration, d2: Decoration) -> bool:
    """True iff a persistent automorphism carries one decorated component
    onto the other, decoration included.

    Decoration edges join a site to another slice, so such a map sends a
    site of d1 to one of d2, and on d1's component it then agrees with any
    persistent t that does so: when h <= 1 the site fixes the map on the
    component, and when h >= 2 the component's own distinguishing colouring
    leaves one map onto d2's. So t, found by walking one vertex orbit, fixes
    the images of the component and of the back edges, whose earlier ends
    every persistent map fixes. One search settles the forward edges: a
    persistent map that agrees with t on the component and sends the far
    ends of d1's red forward edges, each labelled by the t-images of the
    sites it meets, onto d2's far ends with the same labels. Listing d1's
    orbit instead would cost its size, m * C(m - 1, s) at slice 1 of K_{m,m}.
    """
    shape = [(len(d.component), len(d.forward_red), len(d.back_blue)) for d in (d1, d2)]
    if shape[0] != shape[1]:
        return False
    if d1.forward_red or d1.back_blue:
        source = _decoration_sites(state, i, d1.component)[0]
        targets = set(_decoration_sites(state, i, d2.component))
    else:
        source, targets = d1.component[0], set(d2.component)
    g = state.graph
    t = carrier(g, state.persistent_gens[i], source, targets)
    if t is None or {t.edge_image(e) for e in d1.back_blue} != set(d2.back_blue):
        return False
    if not d1.forward_red:
        return True

    def far_ends(d: Decoration, site_image) -> dict[frozenset, frozenset]:
        comp = set(d.component)
        label: dict[int, set[int]] = {}
        for e in d.forward_red:
            s, w = e if e[0] in comp else e[::-1]
            label.setdefault(w, set()).add(site_image(s))
        ends: dict[frozenset, set[int]] = {}
        for w, sites in label.items():
            ends.setdefault(frozenset(sites), set()).add(w)
        return {lab: frozenset(ws) for lab, ws in ends.items()}

    ends1, ends2 = far_ends(d1, t), far_ends(d2, lambda s: s)
    if {lab: len(ws) for lab, ws in ends1.items()} != {lab: len(ws) for lab, ws in ends2.items()}:
        return False
    earlier = state.layering.earlier_vertices(i)
    c = AutConstraint(
        pinned={v: v for v in earlier} | {v: t(v) for v in d1.component},
        setwise_pairs=[(ends1[lab], ends2[lab]) for lab in ends1],
        colour_preserve={e: state.colouring[e] for e in state.layering.classes[i].horizontal},
    )
    return find_automorphism(g, c) is not None


def _component_orbits(
    state: StepState, i: int, gens: Sequence[Permutation]
) -> list[list[tuple[int, ...]]]:
    """Slice i's horizontal components grouped into orbits of the group gens
    generate, in order of first appearance, each orbit sorted. gens fix the
    root, so they map the slice's horizontal edges, hence its components,
    onto themselves: if p sends a vertex of C into C', then p(C) meets C'
    and is C'. So two components lie in one orbit exactly when a vertex
    orbit meets both, and the least vertex of the orbits a component meets
    names its orbit. At h = 1 a component is a matching edge, the only
    horizontal edge at either end, so these are the matching edges' orbits."""
    orbits = vertex_orbits(state.graph, gens, state.layering.layers[i])
    least = {v: o[0] for o in orbits for v in o}
    grouped: dict[int, list[tuple[int, ...]]] = {}
    for comp in state.layering.classes[i].components:
        grouped.setdefault(min(least[v] for v in comp), []).append(comp)
    return list(grouped.values())


def assign_decorations(state: StepState, i: int) -> StepState:
    """Greedy decoration assignment: components are grouped into orbits under
    persistent automorphisms; within an orbit each component receives an
    asymmetric decoration not similar to any earlier one, the first taking
    the empty decoration whenever it qualifies."""
    cls = state.layering.classes[i]
    entries = []
    for orbit in _component_orbits(state, i, state.persistent_gens[i]):
        n_k = len(orbit)
        chosen: list[Decoration] = []
        for comp in orbit:
            cands = enumerate_decorations(state, i, comp)
            asym = [d for d in cands if decoration_is_asymmetric(state, i, d)]
            if state.degree >= 5:
                if len(asym) < n_k:
                    raise AssertionError(
                        f"decoration supply {len(asym)} below orbit size {n_k} "
                        f"at layer {i} (degree {state.degree})"
                    )
                if cls.h == 0 and cls.b > 1 and n_k > state.degree - 1:
                    raise AssertionError(
                        f"orbit size {n_k} exceeds degree-1 bound at layer {i}"
                    )
            pick = None
            for d in asym:
                if all(not decorations_similar(state, i, d, prev) for prev in chosen):
                    pick = d
                    break
            if pick is None:
                raise DecorationShortageError(i, comp, n_k, len(asym))
            chosen.append(pick)
            fset = set(pick.forward_red)
            sites_all = set(comp)
            for e in cls.forward:
                if e[0] in sites_all or e[1] in sites_all:
                    state.colouring[e] = RED if e in fset else GREEN
            for e in pick.back_blue:
                state.colouring[e] = BLUE
            entries.append(
                {
                    "component": list(comp),
                    "forward_red": [list(e) for e in pick.forward_red],
                    "back_blue": [list(e) for e in pick.back_blue],
                    "orbit_size": n_k,
                    "candidates": len(cands),
                    "asymmetric": len(asym),
                }
            )
    state.audit[-1]["decorations"] = entries  # the entry colour_horizontal appended
    return state


# -- step property checks -----------------------------------------------------------


def check_step_properties(state: StepState, i: int) -> list[str]:
    """Audit the invariants that keep the construction on track after step
    i; an empty list means the step is clean.

    Step 0 scans every edge. After a later step only the edges the step
    wrote are read, from the colouring's log: an edge outside slice i's
    incident edges whose colour changed, the first edge beyond slice i that
    is not green, and the first blue edge off the root that escapes the
    settled region. The all-blue rule reads the colouring's counts. An
    edge the step did not write keeps the colour that the check after step
    i - 1 passed, and each rule after step i asks of it no more than that
    check did, so checks made after every step from 0 on give the verdicts
    of scanning every edge.

    For each slice j <= i, check that no root-fixing map preserving the
    colours settled by slice j moves a vertex of slice j. A slice of one
    vertex never moves; the others are decided together by one refinement
    carried from j to j (_settled_cells), and only a slice it leaves some
    vertex of in a cell of two or more vertices is searched. The refinement
    also carries from step to step, on the state, until a settled edge it
    read has changed colour: then it starts again from the first slice."""
    lay = state.layering
    r = lay.root
    col = state.colouring
    slice_of = lay.layer_of
    violations = []

    if col.all_blue != {r}:
        violations.append(f"all-blue vertices {sorted(col.all_blue)} instead of [{r}]")

    edges = state.graph.edges
    if i > 0:
        written = col.written
        edges = sorted(written)
        outside = [e for e in edges if col[e] != written[e]
                   and slice_of[e[0]] != i != slice_of[e[1]]]
        if outside:
            violations.append(f"colours changed outside the layer: {outside}")

    for e in edges:
        if slice_of[e[0]] > i < slice_of[e[1]] and col[e] != GREEN:
            violations.append(f"untouched edge {e} is {col[e]}, not green")
            break

    for e in edges:
        if col[e] == BLUE and r not in e and (slice_of[e[0]] > i or slice_of[e[1]] > i):
            violations.append(f"blue edge {e} escapes the settled region")
            break

    for j, loose in _settled_cells(state, i):
        if loose and _settled_slice_movable(state, j, loose):
            violations.append(
                f"a root-fixing map preserving the settled colouring moves layer {j}"
            )
    return violations


def _settled_cells(state: StepState, i: int) -> Iterator[tuple[int, list[int]]]:
    """For each slice j <= i of two or more vertices, in ascending order, j
    and loose, the vertices of slice j left in cells of two or more vertices
    by j's partition: the coarsest equitable partition finer than the slices
    of the graph whose edges settled by slice j carry their colours and
    whose other edges carry one label of their own. When this call refines
    j's partition, state.settled.partition is it while j is yielded.

    Every map a step check asks about fixes the root, so it maps each slice
    onto itself, hence the edges slice j settles too, and preserves these
    labels: it maps every cell onto itself and fixes every vertex alone in
    its cell. One set of label rows and one partition serve every j.
    Between two cells inside slices the edges are all settled by j or all
    not, so the partition for a later j is equitable under j's labels too,
    hence finer than j's partition; refining j's partition under the later
    labels thus gives the later partition. The settled sets are prefixes of
    outward_edges, so moving j's newly settled edges from the unsettled
    label to their colours' labels gives j's labels, and only the cells
    holding one of their ends can have become unequitable: those are the
    splitters. When no slice 0..i has two or more vertices, nothing is
    built.

    The rows, the partition and the loose vertices also carry from step to
    step, in state.settled. j's partition depends only on the colours of
    the edges slice j settles, so a call whose carried edges all still have
    the colours the carry gave them yields the carried entries and refines
    onward from the last. Every write since the previous call went through
    the colouring's log, so only the logged edges can have changed: one
    that the rows have moved off label 1 but that no longer has its row
    label's colour starts the carry afresh from the slices. A step that
    recolours no settled edge thus costs one refinement per new
    multi-vertex slice.
    """
    lay = state.layering
    multi = lay.multi_slices[: bisect.bisect_right(lay.multi_slices, i)]
    if not multi:
        return
    g = state.graph
    col = state.colouring
    ids = {c: lab for lab, c in enumerate(PALETTE, 2)}  # 1: unsettled
    carry = state.settled
    if carry is None or any(
        not carry.rows[u][1] >> v & 1 and not carry.rows[u][ids[col[u, v]]] >> v & 1
        for u, v in col.written
    ):
        rows = _label_rows(g, [1] * g.edge_count, len(PALETTE) + 2)
        slices = Partition([sum(1 << v for v in layer) for layer in lay.layers], g.n)
        carry = state.settled = SettledCarry(rows, slices)
    rows, part, entries = carry.rows, carry.partition, carry.entries

    yield from entries[: len(multi)]
    done = lay.settled_count[entries[-1][0]] if entries else 0
    touched = [] if entries else list(range(g.n))  # a fresh partition: every slice splits
    for j in multi[len(entries):]:
        for u, v in lay.outward_edges[done:lay.settled_count[j]]:
            lab = ids[col[u, v]]
            rows[u][1] ^= 1 << v
            rows[u][lab] |= 1 << v
            rows[v][1] ^= 1 << u
            rows[v][lab] |= 1 << u
            touched += u, v
        done = lay.settled_count[j]
        part.refine(rows, dict.fromkeys(part.cell_of[v] for v in touched))
        touched = []
        loose = [v for v in lay.layers[j] if part.cells[part.cell_of[v]] & ~(1 << v)]
        entries.append((j, loose))
        yield j, loose


def _settled_slice_movable(state: StepState, j: int, loose: Sequence[int]) -> bool:
    """Does a root-fixing automorphism that preserves the state's colouring on
    the edges settled by slice j move some vertex of loose?

    loose holds the vertices of slice j that _settled_cells leaves in cells
    of two or more vertices. Every map asked about fixes the others, so
    asking about loose alone gives the answer for the whole slice.
    """
    lay = state.layering
    w = find_automorphism(
        state.graph,
        AutConstraint(
            pinned={lay.root: lay.root},
            colour_preserve={e: state.colouring[e] for e in lay.settled_edges(j)},
            nontrivial_on=frozenset(loose),
        ),
    )
    return w is not None


# -- the headline procedure ------------------------------------------------------------


def _layered_pipeline(g: Graph, root: int, budget: int, audit: Optional[list]) -> EdgeColouring:
    state = initial_colouring(g, root)
    for i in range(state.layering.count):
        if i:
            state.colouring.written.clear()
            colour_horizontal(state, i, budget=budget)
            assign_decorations(state, i)
        bad = check_step_properties(state, i)
        if bad:
            raise StepPropertyError(i, bad)
    if audit is not None:
        audit.extend(state.audit)
    return EdgeColouring.on_graph(g, [state.colouring[e] for e in g.edges])


def _cycle_walk(g: Graph) -> list[int]:
    order = [0]
    nxt = min(g.neighbours(0))
    prev = 0
    while nxt != 0:
        order.append(nxt)
        a, b = g.neighbours(nxt)
        prev, nxt = nxt, (b if a == prev else a)
    return order


def _colour_cycle_graph(g: Graph, budget: int) -> EdgeColouring:
    n = g.n
    if n >= 6:
        walk = _cycle_walk(g)
        red_positions = {0, 1, 3}
        assignment = {}
        for idx in range(n):
            e = edge(walk[idx], walk[(idx + 1) % n])
            assignment[e] = RED if idx in red_positions else GREEN
        return EdgeColouring(assignment)
    found = search_colouring(g, 3, star_constraint=True, budget=budget)
    if found is None:
        raise VerificationError(f"no 3-colouring found for a {n}-cycle")
    return found


def colour_regular(
    g: Graph,
    root: int = 0,
    verify: bool = True,
    budget: int = DEFAULT_BUDGET,
    audit: Optional[list] = None,
) -> EdgeColouring:
    """Distinguishing edge colouring with at most three colours for any
    connected regular graph except the single edge.

    Every layered step is checked as it is taken (check_step_properties),
    and the result always verifies: distinguishing, within the palette, and
    with at most one vertex (none on complete graphs) seeing only blue.
    verify is ignored; it stays only so that callers passing verify=True
    keep working.
    """
    deg = regularity(g)
    if deg is None:
        raise ValueError("colour_regular expects a regular graph")
    if not is_connected(g):
        raise ValueError("colour_regular expects a connected graph")
    if g.n == 0:
        raise ValueError("empty graph")
    if not 0 <= root < g.n:
        raise ValueError(f"root {root} outside vertex range")

    is_complete_graph = g.n >= 2 and deg == g.n - 1

    if g.n == 1:
        return EdgeColouring({})
    if g.n == 2:
        raise NotColourableError("the single edge cannot be distinguished")

    if is_complete_graph:
        result = search_colouring(g, 3, star_constraint=True, budget=budget)
        if result is None:
            raise VerificationError("complete graph search found no colouring")
        if audit is not None:
            audit.append({"layer": None, "rule": "complete-search", "decorations": []})
    elif deg == 2:
        result = _colour_cycle_graph(g, budget)
        if audit is not None:
            audit.append({"layer": None, "rule": "cycle", "decorations": []})
    else:
        result = _layered_pipeline(g, root, budget, audit)

    if not result.is_total(g):
        raise VerificationError("colouring is not total")
    if not result.colours_used() <= set(PALETTE):
        raise VerificationError("colouring leaves the palette")
    if not satisfies_blue_rule(g, result, is_complete_graph):
        raise VerificationError("blue-star rule violated")
    if not is_distinguishing(g, result):
        raise VerificationError("final colouring is not distinguishing")
    return result
