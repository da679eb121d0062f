"""Constrained automorphism search and orbit machinery.

One declarative query type (AutConstraint) and one search primitive
(find_automorphism) underlie the group machinery here: stabiliser
generators, orbits and group order all reduce to it. The stabiliser chain
runs the primitive's prepared query (_searcher) directly, so that one query
serves every target of the chain. Graph isomorphism (find_isomorphism) does
not go through the primitive: it runs the same kernel on the rows of two
graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Hashable, Iterable, Iterator, Mapping, Optional, Sequence

from . import kernel
from .graph import Edge, Graph, edge

# Largest graph a search accepts (SizeGuardError above it). A chosen bound, not
# a kernel limit: the kernel's masks are Python ints of any width.
_MAX_SEARCH_N = 64


class ConstraintError(ValueError):
    """Malformed AutConstraint for the given graph."""


class SizeGuardError(ValueError):
    """Graph exceeds the configured size guard for an exhaustive operation."""


@dataclass(frozen=True)
class Permutation:
    """Vertex bijection in one-line notation; acts on edges by endpoints."""

    images: tuple[int, ...]

    def __call__(self, v: int) -> int:
        return self.images[v]

    def edge_image(self, e: Edge) -> Edge:
        return edge(self.images[e[0]], self.images[e[1]])

    def compose(self, other: "Permutation") -> "Permutation":
        """self after other: (self * other)(v) = self(other(v))."""
        return Permutation(tuple(self.images[w] for w in other.images))

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(n)))


@dataclass
class AutConstraint:
    """Declarative description of an automorphism-existence query.

    pinned            required vertex images; pin a vertex to itself to fix it
    setwise_pairs     (source vertex set, required image vertex set) pairs
    colour_preserve   partial edge colouring the map must preserve;
                      uncoloured edges must map to uncoloured edges
    nontrivial_on     vertex set on which the map must not be the identity
    """

    pinned: dict[int, int] = field(default_factory=dict)
    setwise_pairs: list[tuple[frozenset[int], frozenset[int]]] = field(default_factory=list)
    colour_preserve: Optional[Mapping[Edge, str]] = None
    nontrivial_on: Optional[frozenset[int]] = None

    def normalised(self) -> "AutConstraint":
        return AutConstraint(
            pinned=dict(self.pinned),
            setwise_pairs=[(frozenset(a), frozenset(b)) for a, b in self.setwise_pairs],
            colour_preserve=_colour_map(self.colour_preserve),
            nontrivial_on=None if self.nontrivial_on is None else frozenset(self.nontrivial_on),
        )


def _colour_map(c) -> Optional[dict[Edge, str]]:
    if c is None:
        return None
    if hasattr(c, "assignment"):
        return c.assignment  # an EdgeColouring: a new dict, keys already canonical
    return {edge(u, v): col for (u, v), col in c.items()}


def _check_size(n: int) -> None:
    if n > _MAX_SEARCH_N:
        raise SizeGuardError(f"search supports at most {_MAX_SEARCH_N} vertices")


def _validate(g: Graph, c: AutConstraint) -> None:
    n = g.n
    _check_size(n)

    def check_vertex(v, what):
        if not (isinstance(v, int) and 0 <= v < n):
            raise ConstraintError(f"{what} {v!r} is not a vertex of the graph")

    for v, w in c.pinned.items():
        check_vertex(v, "pinned source")
        check_vertex(w, "pinned image")
    if len(set(c.pinned.values())) != len(c.pinned):
        raise ConstraintError("pinned images are not distinct")
    for a, b in c.setwise_pairs:
        for v in a | b:
            check_vertex(v, "setwise-pair vertex")
        if len(a) != len(b):
            raise ConstraintError("setwise pair with unequal cardinalities")
    if c.colour_preserve is not None:
        for e in c.colour_preserve:
            if not g.has_edge(*e):
                raise ConstraintError(f"colouring references non-edge {e}")
    if c.nontrivial_on is not None:
        for v in c.nontrivial_on:
            check_vertex(v, "nontrivial_on vertex")


def _label_rows(g: Graph, labels: Sequence[int], nlabels: int) -> list[list[int]]:
    """Kernel rows of g: rows[v][l] is the bitmask of the vertices u != v
    whose pair with v has label l, where a non-edge has label 0 and the edge
    g.edges[k] has label labels[k]. Built from the edge list: label 0 is the
    complement of the adjacency mask, and each edge end sets one bit."""
    full = (1 << g.n) - 1
    rows = []
    for v in range(g.n):
        r = [0] * nlabels
        r[0] = full ^ g.adjacency_mask(v) ^ (1 << v)
        rows.append(r)
    for (u, v), lab in zip(g.edges, labels):
        rows[u][lab] |= 1 << v
        rows[v][lab] |= 1 << u
    return rows


def _build_query(g: Graph, c: AutConstraint):
    """Kernel rows of g under c's colours, and candidate masks encoding every
    positive constraint."""
    n = g.n
    full = (1 << n) - 1

    # an edge's label is that of its colour (None when uncoloured), handed out
    # in order of first use; label 0 is the non-edge
    colours = c.colour_preserve or {}
    ids: dict[Optional[str], int] = {}
    labels = [ids.setdefault(colours.get(e), len(ids) + 1) for e in g.edges]
    rows = _label_rows(g, labels, len(ids) + 1)

    allowed = [full] * n
    for v, w in c.pinned.items():
        allowed[v] &= 1 << w
    for a, b in c.setwise_pairs:
        bmask = 0
        for w in b:
            bmask |= 1 << w
        for v in range(n):
            if v in a:
                allowed[v] &= bmask
            else:
                allowed[v] &= ~bmask
    return rows, allowed


def satisfies(g: Graph, c: AutConstraint, p: Permutation) -> bool:
    """Naive field-by-field check that p meets the constraint; used to vet
    every witness the search returns."""
    n = g.n
    if sorted(p.images) != list(range(n)):
        return False
    for u, v in g.edges:
        if not g.has_edge(p(u), p(v)):
            return False
    for v, w in c.pinned.items():
        if p(v) != w:
            return False
    for a, b in c.setwise_pairs:
        if {p(v) for v in a} != set(b):
            return False
    colours = c.colour_preserve
    if colours is not None:
        for e in g.edges:
            ie = p.edge_image(e)
            if colours.get(e) != colours.get(ie):
                return False
    if c.nontrivial_on is not None:
        if all(p(v) == v for v in c.nontrivial_on):
            return False
    return True


def _searcher(g: Graph, rows):
    """Prepare the kernel query of g's label rows once.

    Returns run(masks, check): one search with the given candidate masks,
    whose witness is vetted by satisfies against the constraint check. The
    query depends only on the rows, that is on the colours, so every
    constraint with the same colours can be searched by masks alone.
    """
    query = kernel.prepare(g.n, rows, rows)

    def run(masks, check: AutConstraint) -> Optional[Permutation]:
        res = kernel.search_mapping(query, masks)
        if res is None:
            return None
        p = Permutation(tuple(res))
        if not satisfies(g, check, p):
            raise RuntimeError(f"kernel returned an invalid witness {p.images}")
        return p

    return run


def find_automorphism(g: Graph, c: Optional[AutConstraint] = None) -> Optional[Permutation]:
    """Witness automorphism satisfying every constraint field, or None.

    The search is complete: None means no such automorphism exists.

    nontrivial_on becomes a ladder of positive searches over its sorted
    vertices: rung k pins the earlier probes to themselves and forbids the
    k-th its own image. A map meeting c fixes the vertices pinned to
    themselves and preserves the edge labels, so it maps each cell of the
    coarsest equitable partition of the labelled graph, refined from those
    vertices, onto itself; other pins and setwise pairs only narrow the
    masks. The ladder reads the level walk of _levels over the probes,
    which individualises each probe once its rung fails (no remaining map
    moves it). A probe alone in its cell is fixed by every remaining map,
    so its rung is skipped. The query is prepared on the first rung that
    runs, and those rungs keep their masks, so the witness is the one the
    full ladder finds.
    """
    c = (c or AutConstraint()).normalised()
    _validate(g, c)
    rows, allowed = _build_query(g, c)
    if c.nontrivial_on is None:
        return _searcher(g, rows)(allowed, c)

    fixed = [v for v, w in c.pinned.items() if v == w]
    run = None
    masks = list(allowed)  # each passed probe pinned to itself
    for x, cell in _levels(rows, fixed, sorted(c.nontrivial_on)):
        bit = 1 << x
        if cell != bit and masks[x] & ~bit:
            rung = list(masks)
            rung[x] &= ~bit
            run = run or _searcher(g, rows)
            found = run(rung, c)
            if found is not None:
                return found
        masks[x] &= bit
        if masks[x] == 0:
            return None
    return None


# -- groups via stabiliser chains -------------------------------------------


def _pieces(x: int, planes: Sequence[int]) -> list[int]:
    """The pieces of cell x: its vertices grouped by their bits in the
    planes. Partition.refine calls it once for each cell a splitter reaches."""
    pieces = [x]
    for p in planes:
        inside = x & p
        if inside and inside != x:
            split = []
            for y in pieces:
                inside = y & p
                if inside and inside != y:
                    split += [inside, y ^ inside]
                else:
                    split.append(y)
            pieces = split
    return pieces


class Partition:
    """A partition of the vertices 0..n-1, refined in place: cells holds the
    cells as disjoint bitmasks, and cell_of[v] is the index in cells of the
    cell holding v. A split cell keeps its index for one of its pieces and
    the other pieces are appended, so an index names the same cell, or a
    piece of it, from then on."""

    def __init__(self, cells: Iterable[int], n: int):
        self.cells = list(cells)
        self.cell_of = [0] * n
        for k, x in enumerate(self.cells):
            self._index(x, k)

    def _index(self, x: int, k: int) -> None:
        cell_of = self.cell_of
        while x:
            low = x & -x
            x ^= low
            cell_of[low.bit_length() - 1] = k

    def individualise(self, v: int) -> int:
        """Split v off its cell; returns the index of the cell {v}."""
        k = self.cell_of[v]
        if self.cells[k] != 1 << v:
            self.cells[k] ^= 1 << v
            k = self.cell_of[v] = len(self.cells)
            self.cells.append(1 << v)
        return k

    def refine(self, rows, splitters: Iterable[int]) -> None:
        """Refine to the coarsest equitable partition, by a splitter queue.

        rows are label rows as _label_rows builds them; label 0, the
        non-edge, is ignored, because the other labels and the cells
        determine it. splitters are indices of cells. For each cell that is
        not among them, the partition must already be equitable with respect
        to that cell, or to that cell together with some splitters (as after
        individualise). Each splitter W splits every non-singleton cell it
        reaches by each vertex's vector of per-label neighbour counts in W.
        One largest piece keeps the cell's index, and so its place in the
        queue if it is queued, and every other piece joins the queue
        (Hopcroft's rule). The result, reached once no splitter is left or
        every cell is a singleton, is the same set partition in whatever
        order the cells come.

        The counts are bit-sliced: the rows of W's vertices are added, label
        by label, into carry-save bitmask planes, plane i holding bit i of
        every vertex's count, and a cell splits by each plane with mask
        operations. The cells W reaches are found through cell_of from the
        union of the planes, so a splitter costs time in its neighbourhood,
        not in the number of cells; a split re-indexes only the vertices of
        the pieces it appends.
        """
        cells, cell_of = self.cells, self.cell_of
        n = len(cell_of)
        labels = range(1, len(rows[0]) if rows else 0)
        queue = list(splitters)
        while queue and len(cells) < n:
            w = cells[queue.pop()]
            wrows = []
            while w:
                low = w & -w
                w ^= low
                wrows.append(rows[low.bit_length() - 1])
            planes = []
            for lab in labels:
                counter = []  # counter[i]: bit i of every vertex's count
                for row in wrows:
                    carry = row[lab]
                    for i, bit in enumerate(counter):
                        counter[i] = bit ^ carry
                        carry &= bit
                        if not carry:
                            break
                    else:
                        if carry:
                            counter.append(carry)
                planes += counter
            reach = 0
            for p in planes:
                reach |= p
            while reach:
                k = cell_of[(reach & -reach).bit_length() - 1]
                x = cells[k]
                reach &= ~x
                pieces = _pieces(x, planes)
                if len(pieces) == 1:
                    continue
                big = max(pieces, key=int.bit_count)
                cells[k] = big
                for y in pieces:
                    if y != big:
                        queue.append(len(cells))
                        self._index(y, len(cells))
                        cells.append(y)


def _levels(rows, fixed: Iterable[int], bases: Iterable[int]) -> Iterator[tuple[int, int]]:
    """The level walk of the stabiliser chain and the nontrivial_on ladder.

    Refines {each fixed vertex alone, the rest} to its coarsest equitable
    partition, then yields each base with its cell (a bitmask) and, once the
    caller resumes it, individualises the base and refines from {base}; it
    stops once the partition is discrete. The caller must resume only when
    every map it still asks about fixes the base."""
    n = len(rows)
    cells = [1 << v for v in fixed]
    rest = (1 << n) - 1 - sum(cells)
    part = Partition(cells + [rest] if rest else cells, n)
    part.refine(rows, range(len(part.cells)))
    for b in bases:
        if len(part.cells) == n:
            return
        cell = part.cells[part.cell_of[b]]
        yield b, cell
        if cell != 1 << b:
            part.refine(rows, [part.individualise(b)])


def _chain_transversals(
    g: Graph, start_fixed: Sequence[int], colour_preserve: Optional[Mapping[Edge, str]] = None
) -> list[list[Permutation]]:
    """Transversal witnesses along the chain of pointwise stabilisers, one
    list per level, in the order of the levels' bases.

    The union of level transversals generates the pointwise stabiliser of
    start_fixed (the whole automorphism group when start_fixed is empty),
    restricted to the maps that preserve colour_preserve when it is given.
    Level b holds, for each target w != b in ascending order, the witness of
    find_automorphism(pinned={**pins, b: w}, colour_preserve) when one
    exists, where pins pins start_fixed and the earlier levels to
    themselves. One witness per other point of b's orbit under the maps
    fixing pins: with the identity, a full transversal of that level, and
    the basic orbit has one more point than the level has witnesses.

    The constraint is validated once, on entry. Every level's query differs
    only in its pinned vertices, so the kernel query is prepared once (on
    the first search) and each target only changes the candidate masks;
    every witness is vetted against its full constraint.

    Targets are pruned by the level walk of _levels: a map fixing pins maps
    each cell of the coarsest equitable partition with pins individualised
    onto itself, so only targets in b's cell are searched. The walk gets
    rows with one label, the edges: the cells ignore colours, so they hold
    orbits of the uncoloured group, which contains the coloured one.
    (Colour-aware cells cut the chain searches of a verified colour_regular
    pass over the n <= 10 catalogue from 1,119 to 948 but saved no time,
    because every chain then builds label rows.) The skipped searches
    are exactly ones that would fail, so the witnesses are those of the
    unpruned chain.
    """
    pins = {v: v for v in start_fixed}
    c = AutConstraint(pins, colour_preserve=colour_preserve).normalised()
    _validate(g, c)
    n = g.n
    edge_rows = [(0, g.adjacency_mask(v)) for v in range(n)]  # label 0 is ignored
    masks = [(1 << n) - 1] * n  # candidates at the current level: pinned vertices fixed
    for v in pins:
        masks[v] = 1 << v

    levels: list[list[Permutation]] = []
    run = None
    # the bases, lazily: the walk stops once its partition is discrete, and
    # the loop pins only bases the generator has passed
    bases = (b for b in range(n) if b not in pins)
    for b, cell in _levels(edge_rows, pins, bases):
        bit = 1 << b
        targets = cell ^ bit
        if targets and run is None:
            run = _searcher(g, _build_query(g, c)[0])
        level = []
        while targets:
            low = targets & -targets
            targets ^= low
            w = low.bit_length() - 1
            cand = list(masks)
            cand[b] = low
            check = AutConstraint({**pins, b: w}, colour_preserve=c.colour_preserve)
            witness = run(cand, check)
            if witness is not None:
                level.append(witness)
        levels.append(level)
        pins[b] = b
        masks[b] = bit
    return levels


def automorphism_generators(g: Graph) -> list[Permutation]:
    """Generating set for the full automorphism group."""
    return [p for level in _chain_transversals(g, []) for p in level]


def stabiliser_generators(g: Graph, r: int) -> list[Permutation]:
    """Generators of the subgroup fixing vertex r."""
    if not 0 <= r < g.n:
        raise ConstraintError(f"root {r} outside vertex range")
    return [p for level in _chain_transversals(g, [r]) for p in level]


def pointwise_stabiliser_generators(
    g: Graph, fixed: Iterable[int], colour_preserve: Optional[Mapping[Edge, str]] = None
) -> list[Permutation]:
    """Generators of the subgroup fixing every listed vertex and preserving
    colour_preserve, if given, as AutConstraint does."""
    return [p for level in _chain_transversals(g, sorted(set(fixed)), colour_preserve)
            for p in level]


def group_order(g: Graph) -> int:
    """|Aut(G)| by an orbit-stabiliser chain: the product of the basic orbit
    sizes, each a level's witness count plus one for its base."""
    return math.prod(len(t) + 1 for t in _chain_transversals(g, []))


def all_automorphisms(g: Graph, limit: int = 1_000_000) -> Optional[list[Permutation]]:
    """Every automorphism, each once, identity first; None if more than limit.

    The order comes from the chain alone, so a group over the limit costs no
    products, and a limit below 1 always gives None. Otherwise the levels'
    transversals are multiplied out deepest first: each element is
    t_0 t_1 ... t_k with t_b the identity or a witness of level b.
    """
    levels = _chain_transversals(g, [])
    if math.prod(len(t) + 1 for t in levels) > limit:
        return None
    out = [Permutation.identity(g.n)]
    for level in reversed(levels):
        out += [t.compose(p) for t in level for p in out]
    return out


# -- orbits ------------------------------------------------------------------


def _walk(gens: Sequence[Permutation], source: int) -> Iterator[tuple[int, dict]]:
    """Breadth-first walk of source's orbit under the group gens generate.
    Yields each vertex as it leaves the queue, before its images join it,
    with the Schreier vector so far: each vertex reached maps to the vertex
    and generator that first reached it, and source to None."""
    step: dict[int, Optional[tuple[int, Permutation]]] = {source: None}
    queue = [source]
    for v in queue:
        yield v, step
        for p in gens:
            w = p.images[v]
            if w not in step:
                step[w] = (v, p)
                queue.append(w)


def vertex_orbits(
    g: Graph, gens: Sequence[Permutation], domain: Optional[Iterable[int]] = None
) -> list[list[int]]:
    """Orbit partition of domain under the generated group, ordered by least
    element. The empty generator list yields singletons."""
    dom = sorted(set(domain)) if domain is not None else list(range(g.n))
    dom_set = set(dom)
    for p in gens:
        for v in dom:
            if p(v) not in dom_set:
                raise ConstraintError(f"generator moves {v} out of the domain")
    orbits = []
    seen: set[int] = set()
    for x in dom:
        if x not in seen:
            orbit = sorted(v for v, _ in _walk(gens, x))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


def carrier(
    g: Graph, gens: Sequence[Permutation], source: int, targets: set[int]
) -> Optional[Permutation]:
    """A member of the group generated by gens that sends source into
    targets, or None: walk source's orbit to the first target reached, then
    multiply the generators of the Schreier vector along the path back."""
    for v, step in _walk(gens, source):
        if v in targets:
            t = Permutation.identity(g.n)
            while step[v] is not None:
                v, p = step[v]
                t = t.compose(p)
            return t
    return None


# -- isomorphism --------------------------------------------------------------


def find_isomorphism(
    g: Graph,
    h: Graph,
    g_labels: Optional[Sequence[Hashable]] = None,
    h_labels: Optional[Sequence[Hashable]] = None,
) -> Optional[Permutation]:
    """Vertex bijection carrying g onto h, or None. Same kernel, two graphs.

    With vertex labels on both sides, v may map only to a vertex w of h with
    h_labels[w] == g_labels[v], and None means no such isomorphism exists.
    """
    if (g_labels is None) != (h_labels is None):
        raise ValueError("give vertex labels for both graphs or for neither")
    if g_labels is not None and (len(g_labels) != g.n or len(h_labels) != h.n):
        raise ValueError("a label list must have one entry per vertex")
    if g.n != h.n or g.edge_count != h.edge_count:
        return None
    n = g.n
    g_adj = [g.adjacency_mask(v) for v in range(n)]
    h_adj = [h.adjacency_mask(v) for v in range(n)]
    if sorted(a.bit_count() for a in g_adj) != sorted(a.bit_count() for a in h_adj):
        return None
    _check_size(n)
    if g_labels is None:
        allowed = [(1 << n) - 1] * n
    else:
        by_label: dict = {}
        for w, lab in enumerate(h_labels):
            by_label[lab] = by_label.get(lab, 0) | 1 << w
        allowed = [by_label.get(lab, 0) for lab in g_labels]
    # two labels: 0 for a non-edge, 1 for an edge
    edge_labels = [1] * g.edge_count
    src = _label_rows(g, edge_labels, 2)
    dst = _label_rows(h, edge_labels, 2)
    res = kernel.search_mapping(kernel.prepare(n, src, dst), allowed)
    if res is None:
        return None
    # g and h have equally many edges, so an injective edge-preserving map
    # is an isomorphism
    if len(set(res)) != n or any(not h_adj[res[u]] >> res[v] & 1 for u, v in g.edges):
        raise RuntimeError("kernel returned an invalid isomorphism")
    if g_labels is not None and any(g_labels[v] != h_labels[w] for v, w in enumerate(res)):
        raise RuntimeError("kernel returned an isomorphism that breaks the labels")
    return Permutation(tuple(res))


def is_isomorphic(g: Graph, h: Graph) -> bool:
    return find_isomorphism(g, h) is not None
