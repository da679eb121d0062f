"""Exhaustive catalogues of small regular graphs, up to isomorphism.

Direct generation runs a symmetry-broken row-by-row search (first edge of
every so-far-isolated vertex must go to the least such vertex) followed by
isomorphism rejection. Degrees above (n-1)/2 come from complements of the
low-degree catalogue, disconnected graphs from compositions of connected
ones, so only a handful of (n, d) pairs are ever searched directly.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterable, Iterator, Optional

from .aut import find_isomorphism
from .graph import Graph, complete, cycle, disjoint_union, is_connected


def _mask_connected(adj: list[int], n: int) -> bool:
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        m = frontier
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            nxt |= adj[v]
        frontier = nxt & ~seen
        seen |= nxt
    return seen == (1 << n) - 1


def _raw_connected_regular(n: int, d: int) -> Iterator[Graph]:
    """Labelled d-regular connected graphs, one labelling per symmetry-broken
    pattern; duplicates across isomorphism classes remain. A generator: each
    graph is yielded as soon as its last row is filled."""
    adj = [0] * n
    deg = [0] * n
    edges: list[tuple[int, int]] = []

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

    def rows(v: int) -> Iterator[Graph]:
        if v == n:
            if _mask_connected(adj, n):
                yield Graph(n, edges)
            return
        if v > 0 and deg[v] == 0:
            return  # isolated so far: cannot reach vertex 0
        need = d - deg[v]
        if need < 0:
            return
        cands = [w for w in range(v + 1, n) if deg[w] < d]
        if need > len(cands):
            return
        fresh = [w for w in cands if deg[w] == 0]
        old = [w for w in cands if deg[w] > 0]
        for j in range(min(need, len(fresh)) + 1):
            take_fresh = fresh[:j]
            for old_pick in itertools.combinations(old, need - j):
                partners = take_fresh + list(old_pick)
                for w in partners:
                    adj[v] |= 1 << w
                    adj[w] |= 1 << v
                    deg[v] += 1
                    deg[w] += 1
                    edges.append((v, w))
                if feasible(v):
                    yield from rows(v + 1)
                for w in partners:
                    adj[v] &= ~(1 << w)
                    adj[w] &= ~(1 << v)
                    deg[v] -= 1
                    deg[w] -= 1
                    edges.pop()

    return rows(0)


def _vertex_invariants(g: Graph) -> tuple[Optional[int], list[tuple]]:
    """Girth of g (None for a forest) and, per vertex, the tuple (triangle
    count, sorted co-degrees of its neighbours, number of vertices at each
    distance 0, 1, 2, ...). One bitmask BFS per root gives all of it.

    The girth is the least, over all roots, of 2k+1 for an edge inside BFS
    layer k and 2k for a vertex of layer k with two neighbours in layer k-1;
    each is the length of a closed walk that contains a cycle, and a root on
    a shortest cycle attains its length.
    """
    n = g.n
    adj = [g.adjacency_mask(v) for v in range(n)]
    best = None
    per_vertex = []
    for r in range(n):
        nb = adj[r]
        codeg = []
        m = nb
        while m:
            low = m & -m
            m ^= low
            codeg.append((adj[low.bit_length() - 1] & nb).bit_count())
        codeg.sort()
        sizes = []
        prev, layer, seen = 0, 1 << r, 1 << r
        k = 0
        while layer:
            sizes.append(layer.bit_count())
            nxt = 0
            m = layer
            while m:
                low = m & -m
                m ^= low
                a = adj[low.bit_length() - 1]
                nxt |= a
                if best is None or 2 * k < best:
                    if (a & prev).bit_count() > 1:
                        best = 2 * k
                    elif a & layer:
                        best = 2 * k + 1
            prev, layer = layer, nxt & ~seen
            seen |= layer
            k += 1
        per_vertex.append((sum(codeg) // 2, tuple(codeg), tuple(sizes)))
    return best, per_vertex


def _dedup(graphs: Iterable[Graph]) -> list[Graph]:
    """The first graph of each isomorphism class, in input order.

    Graphs are bucketed by (n, m, girth, sorted per-vertex invariants), and a
    graph is compared only with the representatives in its bucket, by an
    isomorphism search that maps each vertex only to vertices with the same
    per-vertex invariant."""
    buckets: dict[tuple, list[tuple[Graph, list[tuple]]]] = {}
    out = []
    for g in graphs:
        gir, labels = _vertex_invariants(g)
        key = (g.n, g.edge_count, gir, tuple(sorted(labels)))
        reps = buckets.setdefault(key, [])
        if not any(find_isomorphism(g, h, labels, h_labels) is not None for h, h_labels in reps):
            reps.append((g, labels))
            out.append(g)
    return out


@lru_cache(maxsize=None)
def connected_regular_graphs(n: int, d: int) -> tuple[Graph, ...]:
    """Every connected d-regular graph on n vertices, up to isomorphism."""
    if n < 1 or d < 0 or d >= n or (n * d) % 2:
        return ()
    if d == 0:
        return (Graph(1),) if n == 1 else ()
    if d == 1:
        return (complete(2),) if n == 2 else ()
    if d == 2:
        return (cycle(n),) if n >= 3 else ()
    if d == n - 1:
        return (complete(n),)
    if 2 * d > n - 1:
        co = []
        for h in regular_graphs(n, n - 1 - d):
            c = h.complement()
            if is_connected(c):
                co.append(c)
        return tuple(co)
    return tuple(_dedup(_raw_connected_regular(n, d)))


@lru_cache(maxsize=None)
def regular_graphs(n: int, d: int) -> tuple[Graph, ...]:
    """Every d-regular graph on n vertices (connected or not), up to
    isomorphism: compositions of connected pieces over partitions of n."""
    if n < 1 or d < 0 or d >= n or (n * d) % 2:
        return ()
    min_part = 1 if d == 0 else d + 1

    def partitions(total: int, biggest: int):
        if total == 0:
            yield ()
            return
        for part in range(min(total, biggest), min_part - 1, -1):
            if (part * d) % 2:
                continue
            for rest in partitions(total - part, part):
                yield (part,) + rest

    out = []
    for parts in partitions(n, n):
        by_size: dict[int, int] = {}
        for s in parts:
            by_size[s] = by_size.get(s, 0) + 1
        pools = []
        ok = True
        for s, mult in sorted(by_size.items()):
            choices = connected_regular_graphs(s, d)
            if not choices:
                ok = False
                break
            pools.append(list(itertools.combinations_with_replacement(choices, mult)))
        if not ok:
            continue
        for combo in itertools.product(*pools):
            pieces = [g for group in combo for g in group]
            out.append(disjoint_union(pieces))
    return tuple(out)


def connected_regular_upto(max_n: int) -> list[Graph]:
    """All connected regular graphs on at most max_n vertices, every degree."""
    out = []
    for n in range(1, max_n + 1):
        for d in range(0, n):
            out.extend(connected_regular_graphs(n, d))
    return out
