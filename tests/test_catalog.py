import itertools
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import edgesym.catalog as catalog
from edgesym.aut import is_isomorphic
from edgesym.catalog import (
    _bfs_relabellings,
    _dedup,
    _raw_connected_regular,
    _vertex_invariants,
    connected_regular_graphs,
    connected_regular_upto,
    regular_graphs,
)
from edgesym.graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    is_connected,
    path,
    petersen,
    regularity,
    serialize_graph6,
    spider,
)

from oracles import (
    automorphisms_by_backtracking,
    bfs_girth,
    bfs_relabellings_all_roots,
    catalog_invariant_reference,
    raw_connected_regular_reference,
    upper_key,
)

CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "corpus.g6"

# published counts of connected regular graphs by (vertices, degree)
KNOWN_CONNECTED_COUNTS = {
    (4, 3): 1, (6, 3): 2, (8, 3): 5, (10, 3): 19,
    (5, 4): 1, (6, 4): 1, (7, 4): 2, (8, 4): 6, (9, 4): 16,
    (6, 5): 1, (8, 5): 3,
    (7, 6): 1, (8, 6): 1, (9, 6): 4,
    (8, 7): 1, (9, 8): 1,
}

KNOWN_CONNECTED_COUNTS_N10 = {
    (10, 4): 59, (10, 5): 60, (10, 6): 21, (10, 7): 5, (10, 8): 1, (10, 9): 1,
}

# OEIS A005177: 539 connected regular graphs on 11 vertices
KNOWN_CONNECTED_COUNTS_N11 = {(11, 2): 1, (11, 4): 265, (11, 6): 266, (11, 8): 6, (11, 10): 1}


def _searched_directly(n, d):
    # the pairs connected_regular_graphs hands to _raw_connected_regular; the
    # others are a cycle, a complete graph, a complement or trivial
    return n * d % 2 == 0 and d >= 3 and 2 * d <= n - 1


@pytest.mark.parametrize("nd,count", sorted(KNOWN_CONNECTED_COUNTS.items()))
def test_connected_counts_match_published(nd, count):
    n, d = nd
    graphs = connected_regular_graphs(n, d)
    assert len(graphs) == count
    for g in graphs:
        assert g.n == n and regularity(g) == d and is_connected(g)
    for i, g in enumerate(graphs):
        for h in graphs[i + 1 :]:
            assert not is_isomorphic(g, h)


@pytest.mark.slow
@pytest.mark.parametrize("nd,count", sorted(KNOWN_CONNECTED_COUNTS_N10.items()))
def test_connected_counts_ten_vertices(nd, count):
    n, d = nd
    graphs = connected_regular_graphs(n, d)
    assert len(graphs) == count
    assert all(regularity(g) == d and is_connected(g) for g in graphs)
    # pairwise non-isomorphic by networkx, independent of the kernel: graphs
    # whose networkx invariants differ are not isomorphic, VF2 decides the rest
    nx = pytest.importorskip("networkx")

    def key(h):
        tri = nx.triangles(h)
        return sorted(
            (tri[v], sorted(Counter(nx.single_source_shortest_path_length(h, v).values()).items()))
            for v in h
        )

    keyed = []
    for g in graphs:
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        keyed.append((key(h), h))
    for (ka, a), (kb, b) in itertools.combinations(keyed, 2):
        assert ka != kb or not nx.is_isomorphic(a, b)


@pytest.mark.slow
def test_catalogue_equals_benchmark_corpus():
    want = [line.strip() for line in CORPUS.read_text().splitlines() if line.strip()]
    got = [serialize_graph6(g) for g in connected_regular_upto(10)]
    assert len(got) == len(want) == 222
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, f"class {i}"


MEMO_PAIRS = [(8, 3), (9, 4), (10, 3)]


def _decode_upper_key(n, key):
    # inverse of upper_key: bit k(k-1)/2 + j is the pair j < k
    return Graph(n, [(j, k) for k in range(n) for j in range(k) if key >> (k * (k - 1) // 2 + j) & 1])


@pytest.mark.parametrize("n,d", MEMO_PAIRS)
def test_bfs_relabellings_are_exactly_the_generated_candidates(n, d):
    candidates = [key for key, _ in _raw_connected_regular(n, d)]
    assert len(set(candidates)) == len(candidates)
    memo = set()
    for h in connected_regular_graphs(n, d):
        keys = _bfs_relabellings(h)
        assert upper_key(h) in keys and not keys & memo
        memo |= keys
    assert memo == set(candidates)


@pytest.mark.parametrize("n,d", MEMO_PAIRS)
def test_bfs_relabellings_are_isomorphs_by_networkx(n, d):
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges)
        return h

    for h in connected_regular_graphs(n, d):
        target = to_nx(h)
        for key in _bfs_relabellings(h):
            g = _decode_upper_key(n, key)
            assert upper_key(g) == key
            assert nx.is_isomorphic(to_nx(g), target)


def test_bfs_relabellings_small_cases():
    # rooted at an end, P3 is numbered along the path; rooted at its middle,
    # the root is 0 and both ends hang from it
    assert _bfs_relabellings(path(3)) == {upper_key(path(3)), upper_key(Graph(3, [(0, 1), (0, 2)]))}
    assert _bfs_relabellings(disjoint_union([cycle(3), cycle(3)])) == set()


def test_memo_leaves_search_only_new_classes(monkeypatch):
    want = connected_regular_upto(9)
    calls = []
    search = catalog.find_isomorphism

    def counted(*args):
        w = search(*args)
        calls.append(w is not None)
        return w

    monkeypatch.setattr(catalog, "find_isomorphism", counted)
    # cold caches for this build only; the session's cached catalogue stays
    for name in ("connected_regular_graphs", "regular_graphs"):
        monkeypatch.setattr(catalog, name, lru_cache(maxsize=None)(getattr(catalog, name).__wrapped__))
    assert connected_regular_upto(9) == want
    assert True not in calls  # every duplicate was a memo hit


def _candidate(g):
    # a graph as _raw_connected_regular yields it: (key, masks)
    return upper_key(g), tuple(g.adjacency_mask(v) for v in range(g.n))


def test_dedup_memo_is_per_vertex_count():
    # K3 and K3 plus an isolated vertex share their upper-triangle key
    k3, k3_plus = complete(3), Graph(4, complete(3).edges)
    assert upper_key(k3) == upper_key(k3_plus)
    assert _dedup([_candidate(g) for g in (k3, k3_plus, cycle(3))]) == [k3, k3_plus]


PARITY_PAIRS = [
    (n, d) for n in range(1, 11) for d in range(n)
    if n * d % 2 == 0 and (n <= 9 or _searched_directly(n, d))
]


@pytest.mark.parametrize("n,d", PARITY_PAIRS)
def test_generator_matches_graph_reference(n, d):
    # in order: _dedup keeps the first candidate of each class
    got = _raw_connected_regular(n, d)
    count = 0
    for g in raw_connected_regular_reference(n, d):
        assert next(got) == _candidate(g)  # (key, masks)
        count += 1
    assert next(got, None) is None
    assert count > 0 or not _searched_directly(n, d)


def _hypercube(k):
    return Graph(1 << k, [(u, u ^ 1 << i) for u in range(1 << k) for i in range(k) if u < u ^ 1 << i])


def test_bfs_relabellings_match_all_roots_on_memoised_classes():
    # every class with n <= 8, and every class the n <= 10 catalogue memoises;
    # the complement-built classes with n = 9, 10 never enter a memo, and the
    # reference would take over 20 s on them (K9 alone about 8 s)
    classes = [
        h for n in range(1, 11) for d in range(n)
        if n <= 8 or _searched_directly(n, d)
        for h in connected_regular_graphs(n, d)
    ]
    assert len(classes) == 127
    for h in classes:
        assert _bfs_relabellings(h) == bfs_relabellings_all_roots(h)


@pytest.mark.parametrize("h,orbits", [
    (petersen(), 1),
    (complete_bipartite(4, 4), 1),
    (_hypercube(3), 1),
    (path(3), 2),
    (complete_bipartite(1, 4), 2),
    (disjoint_union([cycle(3), cycle(3)]), None),
    (disjoint_union([cycle(4), path(2)]), None),
], ids=["petersen", "k44", "q3", "p3", "star", "2c3", "c4+k2"])
def test_bfs_relabellings_enumerate_one_root_per_orbit(h, orbits, monkeypatch):
    enumerated = []
    bfs_keys = catalog._bfs_keys

    def counted(adj, r, keys):
        ran = bfs_keys(adj, r, keys)
        if ran:
            enumerated.append(r)
        return ran

    monkeypatch.setattr(catalog, "_bfs_keys", counted)
    keys = _bfs_relabellings(h)
    assert keys == bfs_relabellings_all_roots(h)
    if orbits is None:  # disconnected
        assert keys == set()
        return
    # the least vertex of each orbit runs the full enumeration, no other root
    least = {min(p[v] for p in automorphisms_by_backtracking(h)) for v in range(h.n)}
    assert enumerated == sorted(least)
    assert len(enumerated) == orbits


@pytest.mark.slow
def test_eleven_vertex_counts_match_published(monkeypatch):
    calls = []
    search = catalog.find_isomorphism

    def counted(*args):
        w = search(*args)
        calls.append(w is not None)
        return w

    monkeypatch.setattr(catalog, "find_isomorphism", counted)
    # cold caches for this build only; the other tests' cached catalogue stays
    for name in ("connected_regular_graphs", "regular_graphs"):
        monkeypatch.setattr(catalog, name, lru_cache(maxsize=None)(getattr(catalog, name).__wrapped__))
    counts = {}
    for d in range(11):
        graphs = catalog.connected_regular_graphs(11, d)
        assert all(g.n == 11 and regularity(g) == d and is_connected(g) for g in graphs)
        if graphs:
            counts[(11, d)] = len(graphs)
    assert counts == KNOWN_CONNECTED_COUNTS_N11
    assert sum(counts.values()) == 539
    assert calls and True not in calls  # (11, 4): every duplicate was a memo hit


def test_twelve_vertex_cubic_count_keeps_memo_in_lists(monkeypatch):
    # keys of n = 12 graphs take 66 bits, so the memo's runs are lists, not
    # array('Q'); OEIS A002851 has 85 connected cubic graphs on 12 vertices
    calls = []
    search = catalog.find_isomorphism

    def counted(*args):
        w = search(*args)
        calls.append(w is not None)
        return w

    monkeypatch.setattr(catalog, "find_isomorphism", counted)
    graphs = catalog.connected_regular_graphs.__wrapped__(12, 3)
    assert len(graphs) == 85
    assert all(g.n == 12 and regularity(g) == 3 and is_connected(g) for g in graphs)
    assert True not in calls  # every duplicate was a memo hit


def _invariant_projection(g):
    # the bitmask invariants, projected onto the reference's fields
    gir, per_vertex = _vertex_invariants(g)
    return (
        g.n,
        g.edge_count,
        gir,
        tuple(sorted(t for t, _, _ in per_vertex)),
        tuple(sorted(c for _, c, _ in per_vertex)),
        tuple(sorted(tuple(enumerate(s)) for _, _, s in per_vertex)),
    )


def test_vertex_invariants_match_reference():
    graphs = [
        g
        for n in range(1, 10)
        for d in range(n)
        if n * d % 2 == 0
        for _, masks in _raw_connected_regular(n, d)
        for g in [Graph.from_masks(masks)]
    ]
    assert len(graphs) == 3435
    rng = random.Random(1999)
    for _ in range(300):
        n = rng.randint(0, 12)
        p = rng.choice((0.1, 0.2, 0.3, 0.5, 0.8))
        graphs.append(
            Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        )
    graphs += [Graph(0), Graph(4), path(6), spider([2, 3, 1]), petersen()]
    graphs += [disjoint_union([cycle(5), cycle(4)]), disjoint_union([complete(3), path(3)])]
    forests = disconnected = 0
    for g in graphs:
        got = _invariant_projection(g)
        assert got == catalog_invariant_reference(g)
        assert got[2] == bfs_girth(g)
        forests += got[2] is None
        disconnected += not is_connected(g)
    assert forests > 20 and disconnected > 50


def test_trivial_degrees():
    assert [g.n for g in connected_regular_graphs(1, 0)] == [1]
    assert connected_regular_graphs(5, 0) == ()
    assert len(connected_regular_graphs(2, 1)) == 1
    assert connected_regular_graphs(4, 1) == ()
    assert len(connected_regular_graphs(7, 2)) == 1
    assert connected_regular_graphs(5, 3) == ()  # odd sum


def test_named_graphs_present():
    cubic6 = connected_regular_graphs(6, 3)
    assert any(is_isomorphic(g, complete_bipartite(3, 3)) for g in cubic6)
    cubic10 = connected_regular_graphs(10, 3)
    assert any(is_isomorphic(g, petersen()) for g in cubic10)
    assert is_isomorphic(connected_regular_graphs(5, 4)[0], complete(5))
    assert is_isomorphic(connected_regular_graphs(6, 2)[0], cycle(6))


def test_regular_graphs_includes_disconnected():
    all8 = regular_graphs(8, 3)
    assert len(all8) == 6  # five connected plus K4 + K4
    assert sum(1 for g in all8 if not is_connected(g)) == 1
    all10_2 = regular_graphs(10, 2)
    # cycle partitions of 10: 10, 7+3, 6+4, 5+5, 4+3+3
    assert len(all10_2) == 5


def test_connected_regular_upto_small():
    upto5 = connected_regular_upto(5)
    # K1, K2, C3, C4, K4, C5, K5
    assert len(upto5) == 7
