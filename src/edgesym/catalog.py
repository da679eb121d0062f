"""Exhaustive catalogues of small regular graphs, up to isomorphism.

Direct generation is orderly (Read, 1978): a row-by-row search over
breadth-first numberings that prunes every node some other numbering of the
rows filled so far beats, so it yields exactly one graph per isomorphism
class, its least numbering. The invariant-bucketed isomorphism search that
follows only verifies that. Degrees above (n-1)/2 come from complements of
the low-degree catalogue, disconnected graphs from compositions of connected
ones, so only a handful of (n, d) pairs are ever searched directly.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Iterator

from .aut import find_isomorphism
from .graph import (
    Graph, complete, cycle, disjoint_union, distances_from, is_connected, serialize_graph6,
)


def _raw_connected_regular(n: int, d: int) -> Iterator[Graph]:
    """One labelled d-regular connected graph per isomorphism class. A
    generator: each graph is yielded as soon as its last row is filled.

    Vertex 0 is the root, a vertex's row is filled only once an earlier row
    has reached it, and its new neighbours take the next unused numbers. So
    the labelled graphs of the search tree are the breadth-first numberings
    of the classes, each connected. Row k's choice is its code (j, old): j
    fresh neighbours, and the set old of numbered neighbours above k. Rows
    are tried in increasing code order (fewer fresh first, then old sets
    lexicographically), so the depth-first order is the lexicographic order
    of code sequences, and a node whose rows some other numbering beats
    (see _beaten) is pruned: only each class's least numbering is yielded."""
    adj = [0] * n
    deg = [0] * n
    codes = [(0, 0)] * n

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

    def rows(v: int) -> Iterator[Graph]:
        if v == n:
            yield Graph(n, [(u, w) for u in range(n) for w in range(u + 1, n) if adj[u] >> w & 1])
            return
        if v > 0 and deg[v] == 0:
            return  # isolated so far: cannot reach vertex 0
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
                codes[v] = (j, sum(1 << w for w in old_pick))
                if feasible(cands) and not _beaten(adj, v, codes):
                    yield from rows(v + 1)
                for w in partners:
                    row ^= 1 << w
                    adj[w] ^= bit
                    deg[w] -= 1
                adj[v] = row

    return rows(0)


def _beaten(adj: list[int], v: int, codes: list[tuple[int, int]]) -> bool:
    """Whether some breadth-first numbering of the graph with neighbour masks
    adj, whose rows 0..v are complete, has a smaller code sequence than the
    identity numbering's codes[0..v] in every completion of the rows above v.

    Every root r <= v and every order of each expanded vertex's fresh
    children is tried. Row k of such a numbering expands the vertex numbered
    k; while that vertex is at most v its row is known, so its code can be
    compared with codes[k]. A larger code ends the branch, a smaller one
    means the numbering beats the identity whatever the later rows hold, and
    a tie moves on to row k + 1. A branch that reaches a vertex above v is
    undecided. With every row complete (v = n - 1) this is exact: the
    identity is beaten iff it is not its class's least numbering.

    Once row k ties, the part of row k + 1's code that no order of row k's
    children can change is compared once, before their orders are tried. If
    row k + 1 expands a vertex numbered before them, a difference in its
    fresh count, or in its old set below the children's numbers, decides
    every order alike. If it expands the first child, the fresh count is
    that child's own: a first child with a smaller count than codes[k + 1]
    wins in every order, and one with a larger count is never put first:
    only the orders that a child with an equal count leads are generated.
    An order is then compared on row k + 1's neighbours among the children
    only.

    Two children with the same neighbours apart from each other, both at
    most v or both above it, keep one order only: swapping them is an
    automorphism of the graph so far (every edge has an end at most v) that
    keeps 0..v, so it maps the numberings of one order onto those of the
    other with the same decided codes. Such twins have the same fresh count,
    so only the first of each class is tried as a first child."""
    n = len(adj)
    num = [0] * n
    order = [0] * n

    def wins_after(k: int, count: int, numbered: int) -> bool:
        # rows 0..k tie the identity's, and order[0..count-1] are numbered
        kids = adj[order[k]] & ~numbered
        j = kids.bit_count()
        if k + 1 == count + j:
            return False  # all numbered, or the root's component is closed
        if k + 1 < count and order[k + 1] > v:
            return False  # row k + 1 is not known yet, whatever the order
        numbered |= kids
        cj, cold = codes[k + 1]
        if k + 1 < count:
            # an earlier vertex: its fresh count and its old numbers below
            # count are the same in every order of the children
            nb = adj[order[k + 1]]
            fresh = (nb & ~numbered).bit_count()
            if fresh != cj:
                return fresh < cj
            old = 0
            m = nb & numbered & ~kids
            while m:
                low = m & -m
                m ^= low
                w = num[low.bit_length() - 1]
                if w > k + 1:
                    old |= 1 << w
            settled = cold & ((1 << count) - 1)
            if old != settled:
                diff = old ^ settled
                return bool(old & diff & -diff)  # the least differing member is ours
            cold ^= settled
        # twins on one side of v: swapping them keeps the graph and rows 0..v
        twins: list[list[int]] = []
        children = []
        m = kids
        while m:
            low = m & -m
            m ^= low
            c = low.bit_length() - 1
            children.append(c)
            for cls in twins:
                a = cls[0]
                if (a > v) == (c > v) and adj[a] & ~low == adj[c] & ~(1 << a):
                    cls.append(c)
                    break
            else:
                twins.append([c])
        heads = -1  # the children that may come first: any, unless row k + 1 expands it
        if k + 1 == count:
            heads = 0
            for cls in twins:
                c = cls[0]
                if c <= v:
                    fresh = (adj[c] & ~numbered).bit_count()
                    if fresh < cj:
                        return True
                    if fresh == cj:
                        heads |= 1 << c
            if not heads:
                return False
        if len(twins) < j:
            perms = _arrangements(twins, heads)
        elif heads == -1:  # with no twins, itertools gives the same orders faster
            perms = itertools.permutations(children)
        else:  # listed first, the heads lead the first (j - 1)! orders each
            lead = [c for c in children if heads >> c & 1]
            lead += [c for c in children if not heads >> c & 1]
            perms = itertools.islice(
                itertools.permutations(lead), heads.bit_count() * math.factorial(j - 1)
            )
        for perm in perms:
            for i, c in enumerate(perm, count):
                num[c] = i
                order[i] = c
            old = 0  # row k + 1's old numbers among the children
            m = adj[order[k + 1]] & kids
            while m:
                low = m & -m
                m ^= low
                old |= 1 << num[low.bit_length() - 1]
            if old != cold:
                diff = old ^ cold
                if old & diff & -diff:
                    return True
            elif wins_after(k + 1, count + j, numbered):
                return True
        return False

    j0 = codes[0][0]
    for r in range(v + 1):
        j = adj[r].bit_count()  # row 0's old set is empty from every root
        if j != j0:
            if j < j0:
                return True
            continue
        num[r] = 0
        order[0] = r
        if wins_after(0, 1, 1 << r):
            return True
    return False


def _arrangements(classes: list[list[int]], heads: int = -1) -> Iterator[list[int]]:
    """Every order of the members of classes that keeps each class in its
    own order: each distinct order of the class labels once. With heads,
    only the orders whose first member is in that bit mask."""
    if not any(classes):
        yield []
        return
    for i, cls in enumerate(classes):
        if cls and heads >> cls[0] & 1:
            classes[i] = cls[1:]
            for rest in _arrangements(classes):
                yield [cls[0]] + rest
            classes[i] = cls


def _vertex_invariants(g: Graph) -> list[tuple]:
    """Per vertex, the tuple (sorted co-degrees of its neighbours, number of
    vertices at each distance 0, 1, 2, ...). The co-degrees also give the
    vertex's triangle count: their sum is twice it. distances_from lists
    the vertices in order of distance, so its values run in layers."""
    adj = [g.adjacency_mask(v) for v in range(g.n)]
    per_vertex = []
    for r in range(g.n):
        nb = adj[r]
        codeg = []
        m = nb
        while m:
            low = m & -m
            m ^= low
            codeg.append((adj[low.bit_length() - 1] & nb).bit_count())
        codeg.sort()
        dist = distances_from(g, r).values()
        sizes = tuple(len(list(layer)) for _, layer in itertools.groupby(dist))
        per_vertex.append((tuple(codeg), sizes))
    return per_vertex


def _dedup(candidates: Iterable[Graph]) -> list[Graph]:
    """The candidate graphs, after checking that no two are isomorphic.
    Raises RuntimeError if two are: _raw_connected_regular yields one graph
    per class, so a positive answer means its canonicity test is broken.

    Each graph is bucketed by (n, m, sorted per-vertex invariants) and
    compared only with the earlier graphs in its bucket, by an isomorphism
    search that maps each vertex only to vertices with the same per-vertex
    invariant."""
    buckets: dict[tuple, list[tuple[Graph, list[tuple]]]] = {}
    out = []
    for g in candidates:
        labels = _vertex_invariants(g)
        reps = buckets.setdefault((g.n, g.edge_count, tuple(sorted(labels))), [])
        for h, h_labels in reps:
            if find_isomorphism(g, h, labels, h_labels) is not None:
                raise RuntimeError(
                    f"catalogue generator yielded two isomorphic graphs: "
                    f"{serialize_graph6(h)} and {serialize_graph6(g)}"
                )
        reps.append((g, labels))
        out.append(g)
    return out


@lru_cache(maxsize=None)
def connected_regular_graphs(n: int, d: int) -> tuple[Graph, ...]:
    """Every connected d-regular graph on n vertices, up to isomorphism."""
    if n < 1 or d < 0 or d >= n or (n * d) % 2:
        return ()
    if d == 2:  # the generator would number C_n differently from cycle(n)
        return (cycle(n),) if n >= 3 else ()
    if d == n - 1:  # the complement path would walk every partition of n
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
