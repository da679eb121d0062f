"""Finite simple undirected graphs on vertices 0..n-1.

Graphs are immutable after construction and safe to share. Edge identity is
the ordered pair (min, max) everywhere in this package.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional

Edge = tuple[int, int]

_G6_MAX_SHORT = 62
# The long header is '~' and n in three bytes; a first byte of '~' would open
# the 36-bit form instead, which is not implemented, so n < 63 * 64**2.
_G6_MAX_N = 258047
_PAIRING_TRIES = 1000  # random_regular's pairings before it gives up


class GraphError(ValueError):
    """Invalid graph construction or encoding input."""


def edge(u: int, v: int) -> Edge:
    """Canonical form of the undirected edge {u, v}."""
    if u == v:
        raise GraphError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


class Graph:
    """Immutable simple graph with bitmask adjacency rows."""

    __slots__ = ("n", "_adj", "_edges")

    def __init__(self, n: int, edges: Iterable[Edge] = ()):
        if n < 0:
            raise GraphError("vertex count must be non-negative")
        adj = [0] * n
        canon: set[Edge] = set()
        for u, v in edges:
            e = edge(u, v)
            if not (0 <= e[0] and e[1] < n):
                raise GraphError(f"edge {e} outside vertex range 0..{n - 1}")
            canon.add(e)
        for u, v in canon:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
        self.n = n
        self._adj = tuple(adj)
        self._edges = tuple(sorted(canon))

    # -- basic queries ----------------------------------------------------

    @property
    def edges(self) -> tuple[Edge, ...]:
        return self._edges

    @property
    def edge_count(self) -> int:
        return len(self._edges)

    def adjacency_mask(self, v: int) -> int:
        return self._adj[v]

    def has_edge(self, u: int, v: int) -> bool:
        return u != v and bool(self._adj[u] >> v & 1)

    def neighbours(self, v: int) -> list[int]:
        m = self._adj[v]
        out = []
        while m:
            low = m & -m
            out.append(low.bit_length() - 1)
            m ^= low
        return out

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def vertices(self) -> range:
        return range(self.n)

    def __eq__(self, other) -> bool:
        return isinstance(other, Graph) and self.n == other.n and self._adj == other._adj

    def __hash__(self) -> int:
        return hash((self.n, self._adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.edge_count})"

    def complement(self) -> "Graph":
        es = [
            (u, v)
            for u in range(self.n)
            for v in range(u + 1, self.n)
            if not self.has_edge(u, v)
        ]
        return Graph(self.n, es)

    def induced(self, vertices: Iterable[int]) -> tuple["Graph", list[int]]:
        """Induced subgraph relabelled to 0..k-1; returns (graph, old labels)."""
        keep = sorted(set(vertices))
        index = {v: i for i, v in enumerate(keep)}
        es = [
            (index[u], index[v])
            for u, v in self._edges
            if u in index and v in index
        ]
        return Graph(len(keep), es), keep


# -- traversal -------------------------------------------------------------


def distances_from(g: Graph, r: int) -> dict[int, int]:
    """BFS distance map from r. Vertices absent from the map are unreachable.

    The search walks frontier bitmasks: each vertex of the frontier at
    distance d adds its adjacency mask to the next one, less the vertices
    already reached."""
    if not 0 <= r < g.n:
        raise GraphError(f"root {r} outside vertex range")
    adj = g._adj
    dist = {}
    seen = frontier = 1 << r
    d = 0
    while frontier:
        reached = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            dist[v] = d
            reached |= adj[v]
        frontier = reached & ~seen
        seen |= frontier
        d += 1
    return dist


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        return True
    return len(distances_from(g, 0)) == g.n


def regularity(g: Graph) -> Optional[int]:
    """The common degree if g is regular, otherwise None."""
    if g.n == 0:
        return 0
    degs = {g.degree(v) for v in g.vertices()}
    if len(degs) == 1:
        return degs.pop()
    return None


# -- graph6 interchange format ---------------------------------------------
# The header is byte n+63 for n <= 62, else '~' and n as three 6-bit bytes,
# most significant first. Then the upper triangle read column-by-column,
# packed 6 bits per byte; every byte is offset by 63.


def parse_graph6(text: str) -> Graph:
    s = text.rstrip("\n")
    if not s:
        raise GraphError("empty graph6 string")
    if any(not (63 <= ord(ch) <= 126) for ch in s):
        raise GraphError("character outside the printable graph6 alphabet")
    if s.startswith("~~"):
        raise GraphError(f"graph6 supports at most {_G6_MAX_N} vertices")
    if s[0] == "~":
        if len(s) < 4:
            raise GraphError("truncated long graph6 header")
        n = sum(ord(ch) - 63 << shift for ch, shift in zip(s[1:4], (12, 6, 0)))
        if n <= _G6_MAX_SHORT:
            raise GraphError(
                f"long graph6 header for n={n}: graphs of at most {_G6_MAX_SHORT} vertices"
                f" use the short form {chr(n + 63)!r}"
            )
        body = s[4:]
    else:
        n = ord(s[0]) - 63
        body = s[1:]
    need = n * (n - 1) // 2
    if len(body) != (need + 5) // 6:
        raise GraphError(
            f"graph6 bit field length mismatch: n={n} needs {(need + 5) // 6} bytes, got {len(body)}"
        )
    bits = "".join([format(ord(ch) - 63, "06b") for ch in body])
    if "1" in bits[need:]:
        raise GraphError("nonzero padding bits in graph6 encoding")
    # column v is bits v(v-1)/2 up to v(v+1)/2, one per u < v
    edges = [(u, v) for v in range(1, n)
             for u, b in enumerate(bits[v * (v - 1) // 2 : v * (v + 1) // 2]) if b == "1"]
    return Graph(n, edges)


def serialize_graph6(g: Graph) -> str:
    n = g.n
    if n > _G6_MAX_N:
        raise GraphError(f"graph6 supports at most {_G6_MAX_N} vertices")
    header = chr(n + 63) if n <= _G6_MAX_SHORT else "~" + "".join(
        chr((n >> shift & 63) + 63) for shift in (12, 6, 0))
    # column v: bit u of v's mask for u < v, u ascending
    bits = "".join(format(g.adjacency_mask(v) & ((1 << v) - 1), f"0{v}b")[::-1]
                   for v in range(1, n))
    bits += "0" * (-len(bits) % 6)
    return header + "".join(chr(int(bits[k : k + 6], 2) + 63) for k in range(0, len(bits), 6))


# -- generators -------------------------------------------------------------


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs at least one vertex")
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def complete_bipartite(p: int, q: int) -> Graph:
    if p < 1 or q < 1:
        raise GraphError("both parts must be non-empty")
    return Graph(p + q, [(u, p + w) for u in range(p) for w in range(q)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs at least 3 vertices")
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n: int) -> Graph:
    if n < 1:
        raise GraphError("path needs at least one vertex")
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def petersen() -> Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph(10, outer + spokes + inner)


def circulant(n: int, steps: Iterable[int]) -> Graph:
    if n < 1:
        raise GraphError("circulant needs at least one vertex")
    norm = set()
    for s in steps:
        s %= n
        if s == 0:
            raise GraphError("circulant step 0 would create loops")
        norm.add(min(s, n - s))
    edges = [(i, (i + s) % n) for s in norm for i in range(n)]
    return Graph(n, edges)


def spider(legs: Iterable[int]) -> Graph:
    """Tree with one centre and paths of the given lengths attached to it."""
    lens = [l for l in legs if l > 0]
    edges = []
    nxt = 1
    for length in lens:
        prev = 0
        for _ in range(length):
            edges.append((prev, nxt))
            prev = nxt
            nxt += 1
    return Graph(nxt, edges)


def random_regular(n: int, d: int, seed: int) -> Graph:
    """d-regular simple graph from the pairing model; rejection sampling.

    Deterministic for a fixed seed. Raises GraphError when the degree
    sequence is infeasible or _PAIRING_TRIES pairings all fail.
    """
    if d < 0 or d >= n or (n * d) % 2:
        raise GraphError(f"no {d}-regular simple graph on {n} vertices")
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(_PAIRING_TRIES):
        rng.shuffle(stubs)
        seen: set[Edge] = set()
        ok = True
        for i in range(0, len(stubs), 2):
            u, v = stubs[i], stubs[i + 1]
            if u == v:
                ok = False
                break
            e = edge(u, v)
            if e in seen:
                ok = False
                break
            seen.add(e)
        if ok:
            return Graph(n, seen)
    raise GraphError(
        f"pairing model failed to produce a simple {d}-regular graph in {_PAIRING_TRIES} tries"
    )


def disjoint_union(graphs: Iterable[Graph]) -> Graph:
    n = 0
    edges: list[Edge] = []
    for g in graphs:
        edges.extend((u + n, v + n) for u, v in g.edges)
        n += g.n
    return Graph(n, edges)
