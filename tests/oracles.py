"""Independent brute-force oracles for the test suite.

Everything here avoids the production search kernel on purpose: permutations
are enumerated naively (or with plain adjacency pruning), colourings are
enumerated exhaustively, and graph6 is re-encoded from the published format
definition. Expected values frozen in the tests were computed with these.
"""

from __future__ import annotations

import itertools
from collections import Counter, deque
from typing import Iterable, Optional, Sequence

import numpy as np

from edgesym.colouring import BLUE, GREEN, all_blue_vertices
from edgesym.graph import Edge, Graph, edge


# -- graph6 reference encoder (independent re-implementation) ---------------


def encode_graph6_reference(n: int, edges: Iterable[Edge]) -> str:
    es = {tuple(sorted(e)) for e in edges}
    bits = []
    for v in range(1, n):
        for u in range(v):
            bits.append(1 if (u, v) in es else 0)
    while len(bits) % 6:
        bits.append(0)
    out = [chr(n + 63)]
    for i in range(0, len(bits), 6):
        val = 0
        for b in bits[i : i + 6]:
            val = val * 2 + b
        out.append(chr(val + 63))
    return "".join(out)


# -- automorphisms by explicit enumeration -----------------------------------


def automorphisms_by_full_enumeration(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by trying all n! permutations. Keep n <= 7."""
    out = []
    es = set(g.edges)
    for p in itertools.permutations(range(g.n)):
        if all(tuple(sorted((p[u], p[v]))) in es for u, v in es):
            out.append(p)
    return out


def automorphisms_by_backtracking(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms by depth-first assignment with adjacency pruning.

    No partition refinement, no kernel; usable up to n ~ 16 on the graphs in
    this suite.
    """
    n = g.n
    degs = [g.degree(v) for v in range(n)]
    out: list[tuple[int, ...]] = []
    images = [-1] * n
    used = [False] * n

    def extend(v: int) -> None:
        if v == n:
            out.append(tuple(images))
            return
        for w in range(n):
            if used[w] or degs[w] != degs[v]:
                continue
            ok = True
            for u in range(v):
                if g.has_edge(u, v) != g.has_edge(images[u], w):
                    ok = False
                    break
            if ok:
                images[v] = w
                used[w] = True
                extend(v + 1)
                used[w] = False
        images[v] = -1

    extend(0)
    return out


def label_mapping_holds(n: int, src, dst, allowed, p) -> bool:
    """Is p a bijection of {0..n-1} inside the candidate masks that carries
    every off-diagonal label of src onto the same label of dst?"""
    if sorted(p) != list(range(n)):
        return False
    if any(not allowed[v] >> p[v] & 1 for v in range(n)):
        return False
    return all(
        dst[p[u] * n + p[v]] == src[u * n + v] for u in range(n) for v in range(n) if u != v
    )


def find_label_mapping_brute(n: int, src, dst, allowed) -> Optional[tuple[int, ...]]:
    """First label-preserving bijection in lexicographic order, or None, by
    trying all n! permutations. Keep n <= 7."""
    for p in itertools.permutations(range(n)):
        if label_mapping_holds(n, src, dst, allowed, p):
            return p
    return None


def automorphism_count_networkx(g: Graph) -> int:
    """|Aut(G)| counted by networkx's VF2 GraphMatcher, an implementation
    that shares no code with edgesym. Callers skip when networkx is absent."""
    import networkx as nx
    from networkx.algorithms.isomorphism import GraphMatcher

    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return sum(1 for _ in GraphMatcher(h, h).isomorphisms_iter())


def constraint_holds_naive(g: Graph, c, p: tuple[int, ...]) -> bool:
    """Field-by-field constraint check used by the brute-force side."""
    es = set(g.edges)

    def img(e: Edge) -> Edge:
        return tuple(sorted((p[e[0]], p[e[1]])))

    if any(img(e) not in es for e in es):
        return False
    for v, w in c.pinned.items():
        if p[v] != w:
            return False
    for a, b in c.setwise_pairs:
        if {p[v] for v in a} != set(b):
            return False
    if c.colour_preserve is not None:
        cmap = c.colour_preserve
        if hasattr(cmap, "assignment"):
            cmap = cmap.assignment
        cmap = {tuple(sorted(k)): v for k, v in cmap.items()}
        for e in es:
            if cmap.get(e) != cmap.get(img(e)):
                return False
    if c.nontrivial_on is not None and all(p[v] == v for v in c.nontrivial_on):
        return False
    return True


def find_automorphism_brute(g: Graph, c) -> Optional[tuple[int, ...]]:
    for p in itertools.permutations(range(g.n)):
        if constraint_holds_naive(g, c, p):
            return p
    return None


def random_constraint(g: Graph, rng):
    """Randomised AutConstraint touching every field with some probability."""
    from edgesym.aut import AutConstraint
    from edgesym.colouring import BLUE, GREEN, RED, EdgeColouring

    n = g.n
    c = AutConstraint()
    if rng.random() < 0.4 and n:
        v = rng.randrange(n)
        c.pinned = {v: rng.randrange(n)}
    if rng.random() < 0.4 and n:
        # fixed vertices as identity pins, skipping any vertex already pinned
        # or already an image, so the query stays well formed
        for v in rng.sample(range(n), rng.randint(0, min(2, n))):
            if v not in c.pinned and v not in c.pinned.values():
                c.pinned[v] = v
    if rng.random() < 0.3 and n >= 2:
        k = rng.randint(1, 2)
        c.setwise_pairs = [
            (frozenset(rng.sample(range(n), k)), frozenset(rng.sample(range(n), k)))
        ]
    if g.edge_count and rng.random() < 0.5:
        cols = {}
        for e in g.edges:
            if rng.random() < 0.7:
                cols[e] = rng.choice((RED, GREEN, BLUE))
        c.colour_preserve = EdgeColouring(cols)
    if rng.random() < 0.5 and n:
        c.nontrivial_on = frozenset(rng.sample(range(n), rng.randint(1, n)))
    return c


# -- distinguishing index by unpruned colouring enumeration ------------------


def _edge_perms(g: Graph, perms: list[tuple[int, ...]]) -> np.ndarray:
    """Row r, column i: the index of the image of g.edges[i] under perms[r]."""
    n, m = g.n, g.edge_count
    index = np.full((n, n), -1, dtype=np.int64)
    for i, (u, v) in enumerate(g.edges):
        index[u, v] = index[v, u] = i
    if not perms or not m:
        return np.zeros((len(perms), m), dtype=np.int64)
    images = np.array(perms, dtype=np.int64)
    ends = np.array(g.edges, dtype=np.int64)
    return index[images[:, ends[:, 0]], images[:, ends[:, 1]]]


def exists_distinguishing_colouring_brute(
    g: Graph,
    k: int,
    perms: Optional[list[tuple[int, ...]]] = None,
    star: bool = False,
    red_edge: Optional[int] = None,
) -> bool:
    """Scan every k-colouring of the edges; True once one kills all nontrivial
    automorphisms. Colour digit d is the palette's d-th colour: red, green,
    blue. With star, it must also meet the blue rule: at most one vertex of
    positive degree sees only blue edges, and none on a complete graph. With
    red_edge, an index into g.edges, that edge must be red. Vectorised over
    chunks, early exit on the first witness."""
    if perms is None:
        perms = automorphisms_by_backtracking(g)
    nontrivial = [p for p in perms if any(p[v] != v for v in range(g.n))]
    m = g.edge_count
    if not nontrivial:
        return True  # the all-red colouring
    if m == 0:
        return False
    eperms = _edge_perms(g, nontrivial)
    incident = [[j for j, e in enumerate(g.edges) if v in e] for v in range(g.n)]
    incident = [inc for inc in incident if inc]
    blue_allowed = 0 if m == g.n * (g.n - 1) // 2 else 1
    total = k**m
    chunk = 1 << 14
    # digits matrix built per chunk: colouring index -> per-edge colours
    weights = k ** np.arange(m, dtype=np.int64)
    start = 0
    while start < total:
        stop = min(start + chunk, total)
        idx = np.arange(start, stop, dtype=np.int64)
        digits = (idx[:, None] // weights[None, :]) % k
        alive = np.arange(stop - start)
        if red_edge is not None:
            alive = alive[digits[alive, red_edge] == 0]
        if star:
            all_blue = sum((digits[alive][:, inc] == 2).all(axis=1).astype(np.int64)
                           for inc in incident)
            alive = alive[all_blue <= blue_allowed]
        for row in eperms:
            if alive.size == 0:
                break
            sub = digits[alive]
            preserved = (sub[:, row] == sub).all(axis=1)
            alive = alive[~preserved]
        if alive.size:
            return True
        start = stop
    return False


def distinguishing_index_brute(g: Graph, max_colours: int = 3):
    """Exact distinguishing index by unpruned exhaustive search. Returns
    "not_distinguishable" when a nontrivial automorphism fixes every edge
    setwise (connected: exactly the single-edge graph), or ">k" when the
    palette runs out."""
    perms = automorphisms_by_backtracking(g)
    es = list(g.edges)
    for p in perms:
        if any(p[v] != v for v in range(g.n)) and all(
            tuple(sorted((p[u], p[v]))) == (u, v) for u, v in es
        ):
            return "not_distinguishable"
    for k in range(1, max_colours + 1):
        if exists_distinguishing_colouring_brute(g, k, perms):
            return k
    return f">{max_colours}"


def witness_by_every_probe(
    g: Graph,
    k: int,
    probes: Iterable[Sequence[str]],
    star: bool = False,
    perms: Optional[list[tuple[int, ...]]] = None,
) -> Optional[tuple[str, ...]]:
    """The witness search with nothing filtered: verify every distinct probe
    (a colour list over g.edges) within the first k palette colours, in
    order, against every nontrivial automorphism, then scan every k-colouring
    with edge 0 red, the rest in lexicographic order over red, green, blue.
    Returns the first colouring that no nontrivial automorphism preserves
    and, under star, that meets the blue rule, or None."""
    palette = ("red", "green", "blue")[:k]
    if perms is None:
        perms = automorphisms_by_backtracking(g)
    nontrivial = [p for p in perms if any(p[v] != v for v in range(g.n))]
    m = g.edge_count
    eperms = _edge_perms(g, nontrivial)
    incident = [[j for j, e in enumerate(g.edges) if v in e] for v in range(g.n)]
    blue_allowed = 0 if m == g.n * (g.n - 1) // 2 else 1

    def accepted(cols) -> bool:
        digits = np.array([palette.index(col) for col in cols], dtype=np.int64)
        if (digits[eperms] == digits[None, :]).all(axis=1).any():
            return False
        if star:
            all_blue = sum(1 for inc in incident if inc and all(cols[j] == "blue" for j in inc))
            return all_blue <= blue_allowed
        return True

    seen = set()
    for cols in probes:
        cols = tuple(cols)
        if cols in seen or not set(cols) <= set(palette):
            continue
        seen.add(cols)
        if accepted(cols):
            return cols
    for cols in itertools.product(*([("red",)] + [palette] * (m - 1))[:m]):
        if accepted(cols):
            return cols
    return None


def distinguishing_index_by_every_probe(
    g: Graph, probes_of, max_colours: int = 3, perms: Optional[list[tuple[int, ...]]] = None
):
    """(index, witness colour tuple) from witness_by_every_probe at k = 2,
    3, ..., with probes_of(k) giving the probes; ("not_distinguishable",
    None) when a nontrivial automorphism fixes every edge setwise, and
    (">max_colours", None) when the palette runs out."""
    if perms is None:
        perms = automorphisms_by_backtracking(g)
    nontrivial = [p for p in perms if any(p[v] != v for v in range(g.n))]
    if any(all(edge(p[u], p[v]) == (u, v) for u, v in g.edges) for p in nontrivial):
        return "not_distinguishable", None
    if not nontrivial:
        return 1, ("red",) * g.edge_count
    for k in range(2, max_colours + 1):
        w = witness_by_every_probe(g, k, probes_of(k), perms=perms)
        if w is not None:
            return k, w
    return f">{max_colours}", None


# -- equitable partitions ------------------------------------------------------


def equitable_cells_by_rounds(g: Graph, fixed, labels=None, seed=None) -> list[int]:
    """Cell of each vertex in the coarsest equitable partition of g in which
    every vertex of fixed has a cell of its own, by whole rounds of colour
    refinement: every vertex is re-signed by its cell and, for each edge
    label, its number of neighbours by edges of that label in every cell,
    until the number of cells stops growing. labels[k] is the label of
    g.edges[k]; without labels every edge has one label, which is the
    stabiliser chain's refinement before it moved to a splitter queue.
    seed[v], a non-negative int, names the cell v starts in, so that the
    result is finer than the seed's partition; without it every vertex
    starts in one cell."""
    n = g.n
    if labels is None:
        labels = [1] * g.edge_count
    by_label: dict = {}
    for (u, v), lab in zip(g.edges, labels):
        adj = by_label.setdefault(lab, [0] * n)
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    adjs = [by_label[lab] for lab in sorted(by_label)]
    cell = [0] * n if seed is None else list(seed)
    top = max(cell, default=0)
    for i, v in enumerate(fixed):
        cell[v] = top + i + 1
    count = len(set(cell))
    while True:
        masks = [0] * (max(cell) + 1)
        for v in range(n):
            masks[cell[v]] |= 1 << v
        sigs = [
            (cell[v], *[(adj[v] & m).bit_count() for adj in adjs for m in masks])
            for v in range(n)
        ]
        rank = {sig: i for i, sig in enumerate(sorted(set(sigs)))}
        cell = [rank[sig] for sig in sigs]
        if len(rank) == count:
            return cell
        count = len(rank)


# -- step checks by scanning the whole colouring ----------------------------------


def step_scan_violations(state, i: int, previous: Optional[dict] = None) -> list[str]:
    """The scan rules of the layered construction's step check after step i,
    over every edge and vertex: only the root sees only blue; given the
    colouring before the step, no edge outside slice i's incident edges
    changed; the first edge beyond slice i that is not green; the first
    blue edge off the root that escapes the settled region."""
    g = state.graph
    lay = state.layering
    r = lay.root
    col = state.colouring
    slice_of = lay.layer_of
    violations = []

    blue_only = all_blue_vertices(g, col)
    if blue_only != [r]:
        violations.append(f"all-blue vertices {blue_only} instead of [{r}]")

    if previous is not None and i > 0:
        outside = [e for e in g.edges if col[e] != previous[e]
                   and i not in (slice_of[e[0]], slice_of[e[1]])]
        if outside:
            violations.append(f"colours changed outside the layer: {outside}")

    for e in g.edges:
        if min(slice_of[e[0]], slice_of[e[1]]) > i and col[e] != GREEN:
            violations.append(f"untouched edge {e} is {col[e]}, not green")
            break

    for e, c in col.items():
        if c == BLUE and r not in e and max(slice_of[e[0]], slice_of[e[1]]) > i:
            violations.append(f"blue edge {e} escapes the settled region")
            break
    return violations


# -- misc ----------------------------------------------------------------------


def distances_by_deque_bfs(g: Graph, r: int) -> dict[int, int]:
    """Distance map from r by a queue of vertices over neighbour lists; the
    vertices r does not reach are absent."""
    dist = {r: 0}
    q = deque([r])
    while q:
        u = q.popleft()
        for w in g.neighbours(u):
            if w not in dist:
                dist[w] = dist[u] + 1
                q.append(w)
    return dist


def catalog_invariant_reference(g: Graph) -> list[tuple]:
    """Per vertex, in vertex order, (sorted co-degrees of its neighbours,
    number of vertices at each distance 0, 1, 2, ...) by neighbour lists
    and graph.distances_from: the reference for catalog._vertex_invariants,
    which uses bitmask BFS."""
    from edgesym.graph import distances_from

    out = []
    for v in g.vertices():
        nb = g.neighbours(v)
        codeg = sorted(sum(1 for w in g.neighbours(u) if w in nb) for u in nb)
        hist = Counter(distances_from(g, v).values())
        out.append((tuple(codeg), tuple(hist[k] for k in range(len(hist)))))
    return out


def canonical_small(g: Graph) -> tuple:
    """Canonical form as the lexicographically least adjacency bitstring over
    all n! relabellings. Only for n <= 7."""
    best = None
    for p in itertools.permutations(range(g.n)):
        bits = tuple(
            1 if g.has_edge(p[u], p[v]) else 0
            for u in range(g.n)
            for v in range(u + 1, g.n)
        )
        if best is None or bits < best:
            best = bits
    return (g.n, best)


def all_connected_graphs_upto(n_max: int) -> list[Graph]:
    """Every connected graph on 1..n_max vertices up to isomorphism (n_max <= 5
    stays cheap)."""
    from edgesym.graph import is_connected

    out = []
    for n in range(1, n_max + 1):
        seen = set()
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for mask in range(1 << len(pairs)):
            es = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Graph(n, es)
            if not is_connected(g):
                continue
            key = canonical_small(g)
            if key not in seen:
                seen.add(key)
                out.append(g)
    return out


# -- catalogue generation references ----------------------------------------


def upper_key(g: Graph) -> int:
    """The upper triangle of g's adjacency matrix, packed column by column:
    bit k(k-1)/2 + j is the pair j < k."""
    key = 0
    shift = 0
    for k in range(g.n):
        key |= (g.adjacency_mask(k) & ((1 << k) - 1)) << shift
        shift += k
    return key


def raw_connected_regular_reference(n: int, d: int):
    """The catalogue's row-by-row generator as a Graph per candidate, with the
    plain pairwise feasibility check: the same candidates in the same order
    as edgesym.catalog._raw_connected_regular."""
    adj = [0] * n
    deg = [0] * n

    def feasible(v: int) -> bool:
        for w in range(v + 1, n):
            rem = d - deg[w]
            if rem == 0:
                continue
            avail = 0
            for x in range(v + 1, n):
                if x != w and deg[x] < d and not adj[w] >> x & 1:
                    avail += 1
            if rem > avail:
                return False
        return True

    def rows(v: int):
        if v == n:
            yield Graph(n, [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1])
            return
        if v > 0 and deg[v] == 0:
            return
        need = d - deg[v]
        cands = [w for w in range(v + 1, n) if deg[w] < d]
        if need > len(cands):
            return
        fresh = [w for w in cands if deg[w] == 0]
        old = [w for w in cands if deg[w] > 0]
        for j in range(min(need, len(fresh)) + 1):
            for old_pick in itertools.combinations(old, need - j):
                partners = fresh[:j] + list(old_pick)
                for w in partners:
                    adj[v] |= 1 << w
                    adj[w] |= 1 << v
                    deg[v] += 1
                    deg[w] += 1
                if feasible(v):
                    yield from rows(v + 1)
                for w in partners:
                    adj[v] &= ~(1 << w)
                    adj[w] &= ~(1 << v)
                    deg[v] -= 1
                    deg[w] -= 1

    return rows(0)


def bfs_relabellings_all_roots(h: Graph) -> set[int]:
    """upper_key of pi(h) for every breadth-first numbering pi of h, each
    numbering built in full from every root: the root is numbered 0, vertices
    are expanded in the order of their numbers, and each one's unnumbered
    neighbours take the next numbers in every order. Empty for a disconnected
    h."""
    n = h.n
    keys: set[int] = set()

    def extend(order: list[int], head: int) -> None:
        if len(order) == n:
            num = {x: i for i, x in enumerate(order)}
            key = 0
            for u, v in h.edges:
                a, b = sorted((num[u], num[v]))
                key |= 1 << b * (b - 1) // 2 + a
            keys.add(key)
            return
        while head < len(order):
            kids = [x for x in h.neighbours(order[head]) if x not in order]
            if kids:
                for perm in itertools.permutations(kids):
                    extend(order + list(perm), head + 1)
                return
            head += 1

    for r in range(n):
        extend([r], 0)
    return keys


def bfs_row_codes(h: Graph, roots: Optional[Iterable[int]] = None) -> dict[tuple, int]:
    """Every breadth-first numbering pi of h from the given roots (all by
    default), each expanded vertex's unnumbered neighbours numbered in every
    order, as its row-code sequence mapped to upper_key(pi(h)).

    Row k's code is (j, old): the vertex numbered k numbers j new
    neighbours, and old is the sorted tuple of the numbers above k of its
    neighbours numbered before it. The catalogue's generator tries rows in
    increasing code order, so the least sequence is the one it reaches
    first. Empty for a disconnected h."""
    n = h.n
    out: dict[tuple, int] = {}

    def extend(order: list[int], codes: list[tuple]) -> None:
        k = len(codes)
        if k == n:
            num = {x: i for i, x in enumerate(order)}
            key = 0
            for u, v in h.edges:
                a, b = sorted((num[u], num[v]))
                key |= 1 << b * (b - 1) // 2 + a
            # a code sequence fixes the numbered graph row by row
            assert out.setdefault(tuple(codes), key) == key
            return
        if k == len(order):
            return  # the root's component is exhausted
        nbrs = h.neighbours(order[k])
        kids = [y for y in nbrs if y not in order]
        old = tuple(i for i, y in enumerate(order) if i > k and y in nbrs)
        for perm in itertools.permutations(kids):
            extend(order + list(perm), codes + [(len(kids), old)])

    for r in range(n) if roots is None else roots:
        extend([r], [])
    return out


def beaten_reference(adj: list[int], v: int, codes) -> bool:
    """edgesym.catalog._beaten by plain enumeration: whether a breadth-first
    numbering from a root r <= v, children numbered in every order, ties the
    identity's codes[k] = (j, mask of old numbers) at every row before some
    row k that expands a vertex at most v and has a smaller code."""
    n = len(adj)
    nbrs = [[w for w in range(n) if adj[x] >> w & 1] for x in range(n)]

    def walk(order: list[int], k: int) -> bool:
        if k == len(order) or order[k] > v:
            return False  # the component is closed, or row k is not known
        x = order[k]
        kids = [w for w in nbrs[x] if w not in order]
        mine = (len(kids), tuple(i for i, y in enumerate(order) if i > k and y in nbrs[x]))
        j, mask = codes[k]
        theirs = (j, tuple(i for i in range(n) if mask >> i & 1))
        if mine != theirs:
            return mine < theirs
        return any(walk(order + list(p), k + 1) for p in itertools.permutations(kids))

    return any(walk([r], 0) for r in range(v + 1))
