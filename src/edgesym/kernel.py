"""Backtracking kernel for constrained mapping search, in pure Python.

A search runs in two steps. ``prepare(n, src, dst)`` does the set-up that
depends only on the two n x n label matrices (row-major lists): it buckets
the image rows by label and matches per-vertex label histograms.
``search_mapping(query, allowed)`` then finds a bijection p on {0..n-1} with
dst[p(u)*n + p(v)] == src[u*n + v] for every pair u != v, subject to the
per-vertex candidate bitmasks in ``allowed``. One prepared query can be
searched any number of times with different masks; each search returns what
a fresh ``prepare`` would give.

Labels are small dense non-negative ints; entry 0 plays no special role. The
diagonal is ignored. Masks are Python ints, so n has no width limit here.

The search is deterministic: it branches on the lowest (candidate-count,
vertex) pair and tries images in ascending order, and returns the first
bijection in that order or None. Callers go through the attribute
``kernel.search_mapping`` so that a wrapper installed there sees every
search.
"""

from __future__ import annotations

from typing import NamedTuple

BACKEND = "python"


class Query(NamedTuple):
    """Set-up shared by every search over one (src, dst) pair. It keeps a
    reference to src, which must not change while the query is in use."""

    n: int
    src: list
    rows: list  # rows[w][l] = vertices w2 != w with dst[w][w2] == l
    sig_match: list  # sig_match[v] = vertices w whose dst histogram equals v's src one


def _label_rows(mat, n, nlabels):
    """rows[v][l] = bitmask of the vertices u != v with mat[v*n + u] == l."""
    rows = []
    for v in range(n):
        r = [0] * nlabels
        bit = 1
        for lab in mat[v * n : v * n + n]:
            r[lab] |= bit
            bit <<= 1
        r[mat[v * n + v]] ^= 1 << v
        rows.append(r)
    return rows


def prepare(n, src, dst) -> Query:
    if n == 0:
        return Query(0, [], [], [])
    nlabels = max(max(src), max(dst)) + 1
    rows = _label_rows(dst, n, nlabels)
    src_rows = rows if src == dst else _label_rows(src, n, nlabels)

    # per-vertex label histograms; mismatched histograms can never map
    sig_dst: dict[tuple, int] = {}
    for w in range(n):
        h = tuple([x.bit_count() for x in rows[w]])
        sig_dst[h] = sig_dst.get(h, 0) | 1 << w
    sig_match = [sig_dst.get(tuple([x.bit_count() for x in r]), 0) for r in src_rows]
    return Query(n, src, rows, sig_match)


def search_mapping(query: Query, allowed):
    n, src, rows, sig_match = query
    if n == 0:
        return []
    full = (1 << n) - 1

    cand = []
    for v in range(n):
        mm = allowed[v] & full & sig_match[v]
        if mm == 0:
            return None
        cand.append(mm)

    p = [-1] * n

    def rec(cand, remaining):
        if remaining == 0:
            return True
        # fail-first: fewest candidates, lowest vertex on ties
        best_v = -1
        best_c = 0
        best_n = n + 1
        m = remaining
        while m:
            low = m & -m
            v = low.bit_length() - 1
            m ^= low
            c = cand[v]
            pc = c.bit_count()
            if pc == 0:
                return False
            if pc < best_n:
                best_n = pc
                best_v = v
                best_c = c
        v = best_v
        rest = remaining ^ (1 << v)
        base = v * n
        choices = best_c
        while choices:
            low = choices & -choices
            w = low.bit_length() - 1
            choices ^= low
            nc = list(cand)
            ok = True
            m = rest
            wrow = rows[w]
            notw = ~low
            while m:
                lu = m & -m
                u = lu.bit_length() - 1
                m ^= lu
                cu = nc[u] & wrow[src[base + u]] & notw
                if cu == 0:
                    ok = False
                    break
                nc[u] = cu
            if ok:
                p[v] = w
                if rec(nc, rest):
                    return True
        return False

    if rec(cand, full):
        return p
    return None
