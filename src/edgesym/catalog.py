"""Exhaustive catalogues of small regular graphs, up to isomorphism.

Direct generation runs a symmetry-broken row-by-row search (first edge of
every so-far-isolated vertex must go to the least such vertex) followed by
isomorphism rejection. The search emits exactly the breadth-first numberings
of each class, so once a class has a representative, every later candidate
of the class is found by looking its packed key up among the keys of the
representative's relabellings; only a candidate of a new class becomes a
Graph and reaches the isomorphism search. Degrees
above (n-1)/2 come from complements of the low-degree catalogue,
disconnected graphs from compositions of connected ones, so only a handful
of (n, d) pairs are ever searched directly.
"""

from __future__ import annotations

import heapq
import itertools
from array import array
from bisect import bisect_left
from functools import lru_cache, partial
from typing import Iterable, Iterator, Optional, Sequence

from .aut import find_isomorphism
from .graph import Graph, complete, cycle, disjoint_union, is_connected


def _raw_connected_regular(n: int, d: int) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Labelled d-regular connected graphs, several per isomorphism class, as
    (key, masks): the upper triangle of the adjacency matrix packed column by
    column (bit k(k-1)/2 + j is the pair j < k) and every vertex's neighbour
    mask. A generator: each graph is yielded as soon as its last row is filled.

    Vertex 0 is the root, a vertex's row is filled only once an earlier row
    has reached it, and its new neighbours take the next unused numbers. So
    the labelled graphs of a class h are exactly {pi(h) : pi a breadth-first
    numbering of h}, each yielded once (see _bfs_relabellings), and each is
    connected: every vertex is joined to an earlier one."""
    adj = [0] * n
    deg = [0] * n

    def feasible(cands: list[int]) -> bool:
        # every vertex above v still short of degree d has as many other such
        # vertices that it is not yet joined to as it lacks edges
        short = 0
        for w in cands:
            if deg[w] < d:
                short |= 1 << w
        for w in cands:
            if deg[w] < d and d - deg[w] > (short & ~adj[w] & ~(1 << w)).bit_count():
                return False
        return True

    def rows(v: int, key: int) -> Iterator[tuple[int, tuple[int, ...]]]:
        if v == n:
            yield key, tuple(adj)
            return
        if v > 0 and deg[v] == 0:
            return  # isolated so far: cannot reach vertex 0
        # column v is final once row v starts: earlier rows filled it
        key |= (adj[v] & ((1 << v) - 1)) << (v * (v - 1) // 2)
        need = d - deg[v]
        cands = [w for w in range(v + 1, n) if deg[w] < d]
        if need > len(cands):
            return
        fresh = [w for w in cands if deg[w] == 0]
        old = [w for w in cands if deg[w] > 0]
        row, bit = adj[v], 1 << v
        for j in range(min(need, len(fresh)) + 1):
            take_fresh = fresh[:j]
            for old_pick in itertools.combinations(old, need - j):
                partners = take_fresh + list(old_pick)
                # deg[v] is not kept: no later row or check reads it
                for w in partners:
                    row |= 1 << w
                    adj[w] |= bit
                    deg[w] += 1
                adj[v] = row
                if feasible(cands):
                    yield from rows(v + 1, key)
                for w in partners:
                    row ^= 1 << w
                    adj[w] ^= bit
                    deg[w] -= 1
                adj[v] = row

    return rows(0, 0)


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


def _bfs_keys(adj: list[int], r: int, keys: set[int]) -> bool:
    """Add to keys the key (packed as by _raw_connected_regular) of pi(h) for
    every breadth-first numbering pi of h from root r, h the graph with
    neighbour masks adj: r is numbered 0, vertices are expanded in the order
    of their numbers, and each one's unnumbered neighbours take the next
    numbers, in any order. Returns False, adding nothing, if the first
    numbering (lowest child first at every step) gives a key already in keys,
    and True otherwise.

    Numberings that share a prefix share its work: vertex x numbered k adds
    its edges to the vertices numbered before it as column k of the key."""
    n = len(adj)
    num = [0] * n
    order = [0] * n
    order[0] = r
    first = True

    def place(k: int, numbered: int, head: int, key: int) -> bool:
        # True stops the whole enumeration
        nonlocal first
        if k == n:
            if first:
                if key in keys:
                    return True
                first = False
            keys.add(key)
            return False
        kids = adj[order[head]] & ~numbered
        while not kids:
            head += 1
            if head == k:
                return False  # the component of the root is exhausted
            kids = adj[order[head]] & ~numbered
        shift = k * (k - 1) // 2
        while kids:
            low = kids & -kids
            kids ^= low
            x = low.bit_length() - 1
            col = 0
            m = adj[x] & numbered
            while m:
                b = m & -m
                m ^= b
                col |= 1 << num[b.bit_length() - 1]
            num[x] = k
            order[k] = x
            if place(k + 1, numbered | low, head, key | col << shift):
                return True
        return False

    return not place(1, 1 << r, 0, 0)


def _bfs_relabellings(h: Graph) -> set[int]:
    """The keys of pi(h) for every breadth-first numbering pi of h, from any
    root (see _bfs_keys). Empty for a disconnected h.

    Only one root per orbit of Aut(h) is enumerated. Roots in one orbit give
    the same keys, and equal keys from roots r and s mean pi(h) = sigma(h),
    so sigma^-1 pi is an automorphism taking r to s: roots in different
    orbits give disjoint keys. So a root whose first numbering's key is
    already known lies in an earlier root's orbit and adds nothing."""
    adj = [h.adjacency_mask(v) for v in range(h.n)]
    keys: set[int] = set()
    for r in range(h.n):
        _bfs_keys(adj, r, keys)
    return keys


def _in_runs(runs: list, key: int) -> bool:
    for run in runs:
        i = bisect_left(run, key)
        if i < len(run) and run[i] == key:
            return True
    return False


def _dedup(candidates: Iterable[tuple[int, Sequence[int]]]) -> list[Graph]:
    """The first graph of each isomorphism class, in input order, from
    (key, masks) pairs as _raw_connected_regular yields them.

    Each representative h puts the keys of all its breadth-first relabellings
    into a memo for its vertex count. A later candidate whose key is in the
    memo is such a relabelling, so it is skipped without building a Graph.
    For the candidates of _raw_connected_regular this is every duplicate.

    A candidate not in the memo becomes a Graph, is bucketed by (n, m, girth,
    sorted per-vertex invariants) and compared only with the representatives
    in its bucket, by an isomorphism search that maps each vertex only to
    vertices with the same per-vertex invariant; that search alone decides
    that a class is new.

    A memo is a list of sorted runs, each searched by bisection. A new
    class's keys form a new run, merged into the last run while that run is
    at most twice its size, so each run is more than twice the next and there
    are O(log) runs. A run is an array('Q') while the n(n-1)/2-bit keys fit
    64 bits (n <= 11), a list above that."""
    buckets: dict[tuple, list[tuple[Graph, list[tuple]]]] = {}
    memos: dict[int, list] = {}
    out = []
    for key, masks in candidates:
        n = len(masks)
        runs = memos.setdefault(n, [])
        if _in_runs(runs, key):
            continue
        g = Graph.from_masks(masks)
        gir, labels = _vertex_invariants(g)
        bucket = (n, g.edge_count, gir, tuple(sorted(labels)))
        reps = buckets.setdefault(bucket, [])
        if any(find_isomorphism(g, h, labels, h_labels) is not None for h, h_labels in reps):
            continue
        reps.append((g, labels))
        out.append(g)
        pack = list if n * (n - 1) // 2 > 64 else partial(array, "Q")
        run = pack(sorted(_bfs_relabellings(g)))
        while runs and len(runs[-1]) <= 2 * len(run):
            run = pack(heapq.merge(runs.pop(), run))
        runs.append(run)
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
