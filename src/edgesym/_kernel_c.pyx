# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled twin of _kernel_py: prepare(n, src, dst) and
search_mapping(query, allowed).

Same inputs, same deterministic policy (fewest-candidates-lowest-vertex
branching, ascending image order), same witnesses. Limited to n <= 64 so
candidate sets fit in one 64-bit word. A prepared Query owns its C buffers
and can be searched any number of times.
"""

from libc.stdlib cimport calloc, free, malloc
from libc.string cimport memcpy

cdef extern from *:
    int __builtin_ctzll(unsigned long long)
    int __builtin_popcountll(unsigned long long)

BACKEND = "c"

ctypedef unsigned long long u64


cdef bint _rec(int n, int *src, u64 *rows, int nlabels,
               u64 remaining, u64 *cand, u64 *scratch, int depth, int *p):
    cdef int best_v, best_n, v, w, u, pc, base
    cdef bint ok
    cdef u64 best_c, m, low, choices, lu, cu, notw
    cdef u64 *nc

    if remaining == 0:
        return True
    best_v = -1
    best_n = n + 1
    best_c = 0
    m = remaining
    while m:
        low = m & (~m + 1)
        v = __builtin_ctzll(low)
        m ^= low
        pc = __builtin_popcountll(cand[v])
        if pc == 0:
            return False
        if pc < best_n:
            best_n = pc
            best_v = v
            best_c = cand[v]
    v = best_v
    remaining ^= (<u64>1) << v
    base = v * n
    nc = scratch + depth * n
    choices = best_c
    while choices:
        low = choices & (~choices + 1)
        w = __builtin_ctzll(low)
        choices ^= low
        memcpy(nc, cand, n * sizeof(u64))
        notw = ~low
        ok = True
        m = remaining
        while m:
            lu = m & (~m + 1)
            u = __builtin_ctzll(lu)
            m ^= lu
            cu = nc[u] & rows[w * nlabels + src[base + u]] & notw
            if cu == 0:
                ok = False
                break
            nc[u] = cu
        if ok:
            p[v] = w
            if _rec(n, src, rows, nlabels, remaining, nc, scratch, depth + 1, p):
                return True
    return False


cdef class Query:
    """Label rows and histogram matches shared by every search over one
    (src, dst) pair."""

    cdef int n
    cdef int nlabels
    cdef int *src
    cdef u64 *rows
    cdef u64 *sig_match

    def __dealloc__(self):
        free(self.src)
        free(self.rows)
        free(self.sig_match)


def prepare(n, src, dst):
    if n > 64:
        raise ValueError("compiled kernel supports at most 64 vertices")
    cdef Query q = Query.__new__(Query)
    cdef int cn = n
    cdef int i, v, w, u, lab, ok
    cdef int nlabels = 0
    q.n = cn
    if cn == 0:
        return q

    cdef int *cdst = <int *> malloc(cn * cn * sizeof(int))
    q.src = <int *> malloc(cn * cn * sizeof(int))
    for i in range(cn * cn):
        q.src[i] = src[i]
        cdst[i] = dst[i]
        if q.src[i] > nlabels:
            nlabels = q.src[i]
        if cdst[i] > nlabels:
            nlabels = cdst[i]
    nlabels += 1
    q.nlabels = nlabels

    q.rows = <u64 *> calloc(cn * nlabels, sizeof(u64))
    for w in range(cn):
        for u in range(cn):
            if u != w:
                q.rows[w * nlabels + cdst[w * cn + u]] |= (<u64>1) << u

    cdef int *sig_src = <int *> calloc(cn * nlabels, sizeof(int))
    cdef int *sig_dst = <int *> calloc(cn * nlabels, sizeof(int))
    for v in range(cn):
        for u in range(cn):
            if u != v:
                sig_src[v * nlabels + q.src[v * cn + u]] += 1
                sig_dst[v * nlabels + cdst[v * cn + u]] += 1

    q.sig_match = <u64 *> calloc(cn, sizeof(u64))
    for v in range(cn):
        for w in range(cn):
            ok = 1
            for lab in range(nlabels):
                if sig_dst[w * nlabels + lab] != sig_src[v * nlabels + lab]:
                    ok = 0
                    break
            if ok:
                q.sig_match[v] |= (<u64>1) << w

    free(cdst)
    free(sig_src)
    free(sig_dst)
    return q


def search_mapping(Query query not None, allowed):
    cdef int cn = query.n
    if cn == 0:
        return []
    cdef int i, v
    cdef u64 full = ((<u64>1) << cn) - 1 if cn < 64 else <u64>~0
    cdef u64 *cand = <u64 *> malloc(cn * sizeof(u64))
    cdef u64 *scratch = <u64 *> malloc((cn + 1) * cn * sizeof(u64))
    cdef int *p = <int *> malloc(cn * sizeof(int))
    cdef bint feasible = True
    cdef bint found = False

    for v in range(cn):
        cand[v] = (<u64>allowed[v]) & full & query.sig_match[v]
        if cand[v] == 0:
            feasible = False
            break

    if feasible:
        found = _rec(cn, query.src, query.rows, query.nlabels, full, cand, scratch, 0, p)

    result = None
    if found:
        result = [p[i] for i in range(cn)]

    free(cand)
    free(scratch)
    free(p)
    return result
