import hashlib
import itertools
import random
from collections import Counter
from functools import lru_cache
from pathlib import Path

import pytest

import edgesym.catalog as catalog
from edgesym.aut import is_isomorphic
from edgesym.catalog import (
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
    beaten_reference,
    bfs_relabellings_all_roots,
    bfs_row_codes,
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


def test_complete_graph_skips_the_partition_walk():
    # the complement path would enumerate all ~4e12 partitions of 200
    (g,) = connected_regular_graphs.__wrapped__(200, 199)
    assert g.n == 200 and g.edges == complete(200).edges


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


RELABEL_PAIRS = [(8, 3), (9, 4), (10, 3)]


def _decode_upper_key(n, key):
    # inverse of upper_key: bit k(k-1)/2 + j is the pair j < k
    return Graph(n, [(j, k) for k in range(n) for j in range(k) if key >> (k * (k - 1) // 2 + j) & 1])


def _generated(n, d):
    return list(_raw_connected_regular(n, d))


@pytest.mark.parametrize("n,d", RELABEL_PAIRS)
def test_bfs_relabellings_are_exactly_the_generated_candidates(n, d):
    # the reference yields every breadth-first numbering of every class once;
    # the orderly generator's graphs are one per class, so their relabellings
    # split the reference's candidates
    candidates = [upper_key(g) for g in raw_connected_regular_reference(n, d)]
    assert len(set(candidates)) == len(candidates)
    memo = set()
    for h in _generated(n, d):
        keys = bfs_relabellings_all_roots(h)
        assert upper_key(h) in keys and not keys & memo
        memo |= keys
    assert memo == set(candidates)


@pytest.mark.parametrize("n,d", RELABEL_PAIRS)
def test_bfs_relabellings_are_isomorphs_by_networkx(n, d):
    nx = pytest.importorskip("networkx")
    for h in connected_regular_graphs(n, d):
        target = _to_nx(h)
        for key in bfs_relabellings_all_roots(h):
            g = _decode_upper_key(n, key)
            assert upper_key(g) == key
            assert nx.is_isomorphic(_to_nx(g), target)


def test_bfs_relabellings_small_cases():
    # rooted at an end, P3 is numbered along the path; rooted at its middle,
    # the root is 0 and both ends hang from it
    along, star = upper_key(path(3)), upper_key(Graph(3, [(0, 1), (0, 2)]))
    assert bfs_relabellings_all_roots(path(3)) == {along, star}
    assert bfs_row_codes(path(3)) == {
        ((1, ()), (1, ()), (0, ())): along,
        ((2, ()), (0, ()), (0, ())): star,
    }
    # C4 from any root: two children, joined by the last vertex
    assert bfs_row_codes(cycle(4)) == {((2, ()), (1, ()), (0, (3,)), (0, ())): upper_key(
        Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)]))}
    assert _generated(4, 2) == [Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])]
    for h in (disjoint_union([cycle(3), cycle(3)]), disjoint_union([cycle(4), path(2)])):
        assert bfs_relabellings_all_roots(h) == set() and bfs_row_codes(h) == {}


def test_generator_emits_least_row_code_numbering():
    # every class the generator emits for n <= 8, (9, 4) and (10, 3) is the
    # numbering with the least row-code sequence over every root and every
    # order of every vertex's children
    pairs = [(n, d) for n in range(1, 9) for d in range(n) if n * d % 2 == 0]
    classes = [h for n, d in pairs + [(9, 4), (10, 3)] for h in _generated(n, d)]
    assert len(classes) == 68
    for h in classes:
        codes = bfs_row_codes(h)
        assert codes[min(codes)] == upper_key(h)


@pytest.mark.parametrize("n,d", [(8, 3), (9, 4), (10, 3), (9, 6), (10, 4)])
def test_canonicity_test_matches_every_order_at_every_node(n, d, monkeypatch):
    # keeping one order of each pair of twins, and settling the part of a
    # row's code that no order of the children before it changes, changes
    # no node's verdict; (9, 6) and (10, 4) reach those early exits most
    beaten = catalog._beaten
    verdicts = []

    def checked(adj, v, codes):
        got = beaten(adj, v, codes)
        assert got == beaten_reference(adj, v, codes)
        verdicts.append(got)
        return got

    monkeypatch.setattr(catalog, "_beaten", checked)
    count = {**KNOWN_CONNECTED_COUNTS, **KNOWN_CONNECTED_COUNTS_N10}[(n, d)]
    assert len(list(_raw_connected_regular(n, d))) == count
    assert True in verdicts and False in verdicts


def test_arrangements_keep_each_class_in_order():
    assert list(catalog._arrangements([[0, 1], [2]])) == [[0, 1, 2], [0, 2, 1], [2, 0, 1]]
    assert list(catalog._arrangements([[3], [1], [2]])) == [
        list(p) for p in itertools.permutations([3, 1, 2])]
    assert list(catalog._arrangements([[5, 6, 7]])) == [[5, 6, 7]]


def _counting_isomorphism_search(monkeypatch):
    # record whether each catalogue isomorphism search answers yes, and give
    # this test cold caches; the session's cached catalogue stays
    calls = []
    search = catalog.find_isomorphism

    def counted(*args):
        w = search(*args)
        calls.append(w is not None)
        return w

    monkeypatch.setattr(catalog, "find_isomorphism", counted)
    for name in ("connected_regular_graphs", "regular_graphs"):
        monkeypatch.setattr(catalog, name, lru_cache(maxsize=None)(getattr(catalog, name).__wrapped__))
    return calls


def test_verifier_finds_no_isomorphic_pair(monkeypatch):
    want = connected_regular_upto(10)
    calls = _counting_isomorphism_search(monkeypatch)
    assert connected_regular_upto(10) == want
    # the invariants split all but 7 bucket-mates, and no search succeeds;
    # without the distance profiles the key would leave more of them
    assert calls == [False] * 7
    for (n, d), count, searches in (((11, 4), 265, 33), ((12, 3), 85, 19)):
        calls.clear()
        assert len(catalog.connected_regular_graphs(n, d)) == count
        assert calls == [False] * searches, (n, d)


def test_verifier_raises_on_a_repeated_class(monkeypatch):
    calls = _counting_isomorphism_search(monkeypatch)
    generate = catalog._raw_connected_regular

    def repeating(n, d):
        graphs = list(generate(n, d))
        return iter(graphs + graphs[-1:])

    monkeypatch.setattr(catalog, "_raw_connected_regular", repeating)
    with pytest.raises(RuntimeError, match="two isomorphic graphs"):
        catalog.connected_regular_graphs(9, 4)
    assert calls[-1] is True


def test_dedup_buckets_are_per_vertex_count():
    # K3 and K3 plus an isolated vertex share their upper-triangle key, and
    # neither is compared with the other
    k3, k3_plus = complete(3), Graph(4, complete(3).edges)
    assert upper_key(k3) == upper_key(k3_plus)
    assert _dedup([k3, k3_plus]) == [k3, k3_plus]
    with pytest.raises(RuntimeError, match="two isomorphic graphs: Bw and Bw"):
        _dedup([k3, k3_plus, cycle(3)])


PARITY_PAIRS = [
    (n, d) for n in range(1, 11) for d in range(n)
    if n * d % 2 == 0 and (n <= 9 or _searched_directly(n, d))
]


def _to_nx(g):
    nx = pytest.importorskip("networkx")
    h = nx.Graph()
    h.add_nodes_from(range(g.n))
    h.add_edges_from(g.edges)
    return h


def _first_of_each_class_by_networkx(graphs):
    nx = pytest.importorskip("networkx")
    buckets: dict[tuple, list] = {}
    firsts = []
    for g in graphs:
        h = _to_nx(g)
        tri = nx.triangles(h)
        reps = buckets.setdefault(tuple(sorted(tri.values())), [])
        if not any(nx.is_isomorphic(h, r) for r in reps):
            reps.append(h)
            firsts.append(g)
    return firsts


def _first_of_each_class_by_relabellings(graphs, classes):
    # the class of a graph is the one whose breadth-first relabellings hold
    # its key; every graph must lie in exactly one
    owner = {}
    for i, h in enumerate(classes):
        for key in bfs_relabellings_all_roots(h):
            assert owner.setdefault(key, i) == i
    firsts = {}
    for g in graphs:
        firsts.setdefault(owner[upper_key(g)], g)
    assert len(firsts) == len(classes)
    return list(firsts.values())


@pytest.mark.parametrize("n,d", PARITY_PAIRS)
def test_generator_matches_graph_reference(n, d):
    # the orderly generator yields, in order, the first graph of each class
    # among the reference's candidates: every breadth-first numbering of every
    # class, in the row-by-row search order. Classes are decided by networkx
    # up to n = 9, and by the oracle's relabellings, which networkx checks on
    # (10, 3) above, at n = 10
    got = _generated(n, d)
    reference = raw_connected_regular_reference(n, d)
    if n <= 9:
        want = _first_of_each_class_by_networkx(reference)
    else:
        want = _first_of_each_class_by_relabellings(reference, got)
    assert got == want
    assert got or not _searched_directly(n, d)


def _hypercube(k):
    return Graph(1 << k, [(u, u ^ 1 << i) for u in range(1 << k) for i in range(k) if u < u ^ 1 << i])


@pytest.mark.parametrize("h,orbits", [
    (petersen(), 1),
    (complete_bipartite(4, 4), 1),
    (_hypercube(3), 1),
    (path(3), 2),
    (complete_bipartite(1, 4), 2),
    (disjoint_union([cycle(3), cycle(3)]), None),
    (disjoint_union([cycle(4), path(2)]), None),
], ids=["petersen", "k44", "q3", "p3", "star", "2c3", "c4+k2"])
def test_bfs_relabellings_enumerate_one_root_per_orbit(h, orbits):
    # enumerated root by root, the relabellings give one key set per orbit of
    # Aut(h): equal keys from roots r and s mean pi(h) = sigma(h), and
    # sigma^-1 pi is an automorphism taking r to s
    per_root = [frozenset(bfs_row_codes(h, [r]).values()) for r in range(h.n)]
    assert set().union(*per_root) == bfs_relabellings_all_roots(h)
    if orbits is None:  # disconnected
        assert not any(per_root)
        return
    orbit_of = [frozenset(p[v] for p in automorphisms_by_backtracking(h)) for v in range(h.n)]
    for r, s in itertools.combinations(range(h.n), 2):
        if orbit_of[r] == orbit_of[s]:
            assert per_root[r] == per_root[s]
        else:
            assert not per_root[r] & per_root[s]
    assert len(set(per_root)) == len(set(orbit_of)) == orbits


@pytest.mark.slow
def test_eleven_vertex_counts_match_published(monkeypatch):
    calls = _counting_isomorphism_search(monkeypatch)
    counts = {}
    for d in range(11):
        graphs = catalog.connected_regular_graphs(11, d)
        assert all(g.n == 11 and regularity(g) == d and is_connected(g) for g in graphs)
        if graphs:
            counts[(11, d)] = len(graphs)
    assert counts == KNOWN_CONNECTED_COUNTS_N11
    assert sum(counts.values()) == 539
    assert calls and True not in calls  # (11, 4): the verifier found no repeat


def test_twelve_vertex_cubic_count_matches_published(monkeypatch):
    # OEIS A002851 has 85 connected cubic graphs on 12 vertices
    calls = _counting_isomorphism_search(monkeypatch)
    graphs = catalog.connected_regular_graphs(12, 3)
    assert len(graphs) == 85
    assert all(g.n == 12 and regularity(g) == 3 and is_connected(g) for g in graphs)
    assert True not in calls


@pytest.mark.slow
def test_twelve_vertex_quartic_list_is_pinned():
    # 1,544 connected quartic graphs on 12 vertices (OEIS A006820), as the
    # generate-then-deduplicate catalogue listed them before generation
    # became orderly
    lines = [serialize_graph6(g) for g in catalog.connected_regular_graphs.__wrapped__(12, 4)]
    assert len(lines) == 1544
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "0e0ee97fa29235e389c3e5332777632e2a10e5aa4f04082c7ce1e4b65368845e"


@pytest.mark.parametrize("n,d,count,digest", [
    (11, 4, 265, "b0976dfb344e62186ccc5ec77fb58c5a2ec86954284deed2b1044b8649edd33d"),
    (14, 3, 509, "91ebc2e77e3061836e93b661f65394e3434cccc567097aee12aa048090eeab68"),
], ids=["11-4", "14-3"])
def test_catalogue_list_is_pinned(n, d, count, digest):
    # the lists as the canonicity test gave them before it settled the
    # order-free part of each row's code (OEIS A006820, A002851)
    lines = [serialize_graph6(g) for g in catalog.connected_regular_graphs.__wrapped__(n, d)]
    assert len(lines) == count
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == digest


def test_vertex_invariants_match_reference():
    graphs = [
        g
        for n in range(1, 10)
        for d in range(n)
        if n * d % 2 == 0
        for g in raw_connected_regular_reference(n, d)
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
    disconnected = 0
    for g in graphs:
        assert _vertex_invariants(g) == catalog_invariant_reference(g), g.edges
        disconnected += not is_connected(g)
    assert disconnected > 50


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
