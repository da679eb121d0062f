"""Backtracking kernel for constrained mapping search, in pure Python.

A search runs in two steps. ``prepare(n, src_rows, dst_rows)`` takes the
labelled pairs of {0..n-1} as row bitmasks: ``src_rows[v]`` partitions the
vertices u != v by the label of the pair {v, u} in the source, so
``src_rows[v][l]`` is the bitmask of those with label l. ``dst_rows`` does
the same for the image side, with the same number of labels. ``prepare``
matches per-vertex label histograms. ``search_mapping(query, allowed)`` then
finds a bijection p on {0..n-1} with label_dst(p(u), p(v)) == label_src(u, v)
for every pair u != v, subject to the per-vertex candidate bitmasks in
``allowed``. One prepared query can be searched any number of times with
different masks; each search returns what a fresh ``prepare`` would give.

Labels are small dense non-negative ints; label 0 plays no special role
here. ``aut`` builds the rows from a graph's edge list, so no n x n matrix
is formed. Masks are Python ints, so n has no width limit here.

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
    """Set-up shared by every search over one (src_rows, dst_rows) pair. It
    keeps a reference to dst_rows, which must not change while the query is
    in use."""

    n: int
    src_groups: list  # src_groups[v] = [(l, src_rows[v][l]) for each nonempty row]
    rows: list  # rows[w][l] = vertices w2 != w whose pair with w has dst label l
    sig_match: list  # sig_match[v] = vertices w whose dst histogram equals v's src one


def prepare(n, src_rows, dst_rows) -> Query:
    # per-vertex label histograms; mismatched histograms can never map
    sig_dst: dict[tuple, int] = {}
    sigs = []
    for w in range(n):
        h = tuple([x.bit_count() for x in dst_rows[w]])
        sig_dst[h] = sig_dst.get(h, 0) | 1 << w
        sigs.append(h)
    if src_rows is not dst_rows:
        sigs = [tuple([x.bit_count() for x in r]) for r in src_rows]
    sig_match = [sig_dst.get(h, 0) for h in sigs]
    src_groups = [[(lab, m) for lab, m in enumerate(r) if m] for r in src_rows]
    return Query(n, src_groups, dst_rows, sig_match)


def search_mapping(query: Query, allowed):
    n, src_groups, rows, sig_match = query
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
        vgroups = src_groups[v]
        choices = best_c
        while choices:
            low = choices & -choices
            w = low.bit_length() - 1
            choices ^= low
            nc = list(cand)
            wrow = rows[w]
            # each unmapped u may only go where w sees u's label; rows exclude
            # w itself, so no second vertex can take w. A u left without
            # candidates breaks out of both loops and rejects w.
            for lab, m in vgroups:
                m &= rest
                wl = wrow[lab]
                while m:
                    lu = m & -m
                    u = lu.bit_length() - 1
                    m ^= lu
                    cu = nc[u] & wl
                    if cu == 0:
                        break
                    nc[u] = cu
                else:
                    continue
                break
            else:
                p[v] = w
                if rec(nc, rest):
                    return True
        return False

    if rec(cand, full):
        return p
    return None
