import random
import signal

from edgesym import kernel
from edgesym.aut import AutConstraint, _build_query, find_automorphism
from edgesym.colouring import PALETTE, RED, EdgeColouring
from edgesym.graph import Graph, complete_bipartite, petersen
from oracles import find_label_mapping_brute, label_mapping_holds, random_constraint


def _rows_from_matrix(n, mat, nlabels):
    """Kernel rows read off an n x n label matrix: rows[v][l] = bitmask of
    the vertices u != v with mat[v*n + u] == l."""
    rows = []
    for v in range(n):
        r = [0] * nlabels
        for u in range(n):
            if u != v:
                r[mat[v * n + u]] |= 1 << u
        rows.append(r)
    return rows


def _prepare_matrices(n, src, dst):
    """kernel.prepare on a pair of n x n label matrices."""
    nlabels = max(src + dst, default=0) + 1
    return kernel.prepare(n, _rows_from_matrix(n, src, nlabels), _rows_from_matrix(n, dst, nlabels))


def _random_query(rng, max_n=9):
    n = rng.randint(1, max_n)
    labels = rng.randint(1, 4)
    src = [0] * (n * n)
    dst = [0] * (n * n)
    for u in range(n):
        for v in range(u + 1, n):
            a = rng.randrange(labels)
            b = rng.randrange(labels)
            src[u * n + v] = src[v * n + u] = a
            dst[u * n + v] = dst[v * n + u] = b
    if rng.random() < 0.5:
        dst = list(src)  # automorphism-style query
    allowed = []
    for v in range(n):
        m = (1 << n) - 1
        if rng.random() < 0.3:
            m = 0
            for w in rng.sample(range(n), rng.randint(1, n)):
                m |= 1 << w
        allowed.append(m)
    return n, src, dst, allowed


def _relabelled(n, src, perm):
    """dst with dst[perm[u]*n + perm[v]] == src[u*n + v]: src carried by perm."""
    dst = [0] * (n * n)
    for u in range(n):
        for v in range(n):
            dst[perm[u] * n + perm[v]] = src[u * n + v]
    return dst


def test_search_matches_brute_force_oracle():
    # every answer against all n! permutations: None exactly when no bijection
    # exists, otherwise a bijection inside the masks that carries src onto dst
    rng = random.Random(424242)
    outcomes = {"found": 0, "refused": 0, "found_distinct": 0}
    for _ in range(400):
        n, src, dst, allowed = _random_query(rng, max_n=6)
        if rng.random() < 0.25:
            # an isomorphism-style query between distinct matrices
            dst = _relabelled(n, src, rng.sample(range(n), n))
        res = kernel.search_mapping(_prepare_matrices(n, src, dst), allowed)
        if find_label_mapping_brute(n, src, dst, allowed) is None:
            assert res is None
            outcomes["refused"] += 1
        else:
            assert res is not None and label_mapping_holds(n, src, dst, allowed, res)
            outcomes["found"] += 1
            outcomes["found_distinct"] += src != dst
    assert min(outcomes.values()) >= 20
    assert kernel.search_mapping(kernel.prepare(0, [], []), []) == []  # the empty bijection


def test_prepared_query_reused_across_searches():
    # one prepared query searched with many masks answers, call for call,
    # exactly what a fresh prepare per search answers
    rng = random.Random(171717)
    outcomes = set()
    for _ in range(150):
        n, src, dst, allowed = _random_query(rng)
        query = _prepare_matrices(n, src, dst)
        for _ in range(8):
            masks = [m & rng.getrandbits(n) | m & (1 << rng.randrange(n)) for m in allowed]
            if rng.random() < 0.3:
                masks = list(allowed)
            fresh = kernel.search_mapping(_prepare_matrices(n, src, dst), masks)
            assert kernel.search_mapping(query, masks) == fresh
            outcomes.add(fresh is None)
    assert outcomes == {True, False}  # both found and refused searches were compared


def _label_matrix(g, c):
    """n x n label matrix of a normalised constraint, one entry per vertex
    pair: 0 off the edges, else an id of the edge's colour, handed out in
    order of first use."""
    n = g.n
    colours = c.colour_preserve or {}
    names = sorted(set(colours.values()))
    ids = {None: 0}
    mat = [0] * (n * n)
    for e in g.edges:
        u, v = e
        col = names.index(colours[e]) + 1 if e in colours else 0
        mat[u * n + v] = mat[v * n + u] = ids.setdefault(col, len(ids))
    return mat, len(ids)


def test_edge_built_rows_match_matrix_rows():
    # the edge-built rows of find_automorphism's query equal the rows read
    # off the n x n label matrix, on random graphs with colour overlays
    rng = random.Random(5150)
    coloured = 0
    for _ in range(300):
        n = rng.randint(1, 12)
        density = rng.random()
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < density])
        c = random_constraint(g, rng).normalised()
        rows, _ = _build_query(g, c)
        mat, nlabels = _label_matrix(g, c)
        assert rows == _rows_from_matrix(n, mat, nlabels)
        coloured += bool(c.colour_preserve)
    assert coloured >= 30


def test_backend_is_python():
    assert kernel.BACKEND == "python"


def test_engine_consistency_via_public_api():
    g = petersen()
    w = find_automorphism(g, AutConstraint(pinned={0: 3}))
    assert w is not None and w(0) == 3


def test_label_histograms_prune_coloured_complete_bipartite_searches():
    # the coloured K_{m,m} below have nontrivial colour-preserving maps, and
    # the per-vertex label histograms of prepare confine each vertex to the
    # few with its colour counts. Without that prefilter the search for a
    # map moving some vertex took 9.6 s at m = 24 and 24.9 s at m = 28 on a
    # 2-core Xeon, against about 2 ms with it
    def timeout(signum, frame):
        raise TimeoutError("coloured K_{m,m} searches took over 10 s")

    cases = []
    for m, red_every in ((24, 5), (28, 3)):
        g = complete_bipartite(m, m)
        cols = [RED if i % red_every == 0 else PALETTE[7 * i % 3] for i in range(g.edge_count)]
        cases.append((g, cols))
    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(10)
    try:
        found = [
            find_automorphism(g, AutConstraint(
                colour_preserve=EdgeColouring.on_graph(g, cols),
                nontrivial_on=frozenset(range(g.n)),
            ))
            for g, cols in cases
        ]
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    for (g, cols), w in zip(cases, found):
        assert w is not None
        p = w.images
        assert sorted(p) == list(range(g.n)) and p != tuple(range(g.n))
        colour_of = dict(zip(g.edges, cols))
        for (u, v), col in colour_of.items():
            assert colour_of.get((min(p[u], p[v]), max(p[u], p[v]))) == col
