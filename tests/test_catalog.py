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
    _upper_key,
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

from oracles import bfs_girth, catalog_invariant_reference

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
    # inverse of _upper_key: bit k(k-1)/2 + j is the pair j < k
    return Graph(n, [(j, k) for k in range(n) for j in range(k) if key >> (k * (k - 1) // 2 + j) & 1])


@pytest.mark.parametrize("n,d", MEMO_PAIRS)
def test_bfs_relabellings_are_exactly_the_generated_candidates(n, d):
    candidates = [_upper_key(g) for g in _raw_connected_regular(n, d)]
    assert len(set(candidates)) == len(candidates)
    memo = set()
    for h in connected_regular_graphs(n, d):
        keys = _bfs_relabellings(h)
        assert _upper_key(h) in keys and not keys & memo
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
            assert _upper_key(g) == key
            assert nx.is_isomorphic(to_nx(g), target)


def test_bfs_relabellings_small_cases():
    # rooted at an end, P3 is numbered along the path; rooted at its middle,
    # the root is 0 and both ends hang from it
    assert _bfs_relabellings(path(3)) == {_upper_key(path(3)), _upper_key(Graph(3, [(0, 1), (0, 2)]))}
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


def test_dedup_memo_is_per_vertex_count():
    # K3 and K3 plus an isolated vertex share their upper-triangle key
    k3, k3_plus = complete(3), Graph(4, complete(3).edges)
    assert _upper_key(k3) == _upper_key(k3_plus)
    assert _dedup([k3, k3_plus, cycle(3)]) == [k3, k3_plus]


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
        for g in _raw_connected_regular(n, d)
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
