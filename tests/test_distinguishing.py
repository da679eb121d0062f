import hashlib
import itertools
import json
import random
from pathlib import Path

import pytest

from edgesym.catalog import connected_regular_upto
from edgesym.colouring import BLUE, GREEN, PALETTE, RED, EdgeColouring
from edgesym.distinguishing import (
    NOT_DISTINGUISHABLE,
    BudgetExceededError,
    ChordlessPathError,
    MaxColoursExceededError,
    _spider_colouring,
    distinguishing_index,
    distinguishing_index_with_witness,
    hamiltonian_path,
    is_distinguishing,
    scan_conjecture,
    scan_rows,
    search_colouring,
)
from edgesym.graph import (
    Graph,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    edge,
    parse_graph6,
    petersen,
    random_regular,
    spider,
)
from edgesym.layered import colour_regular

from oracles import (
    all_connected_graphs_upto,
    automorphisms_by_backtracking,
    distinguishing_index_brute,
    distinguishing_index_by_every_probe,
    exists_distinguishing_colouring_brute,
    is_distinguishing_networkx,
    witness_by_every_probe,
)


CORPUS = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "corpus.g6"
LARGE = CORPUS.with_name("large.g6")


def _mono(g, colour=RED):
    return EdgeColouring({e: colour for e in g.edges})


def test_is_distinguishing_asymmetric_tree():
    g = spider([1, 2, 3])
    assert is_distinguishing(g, _mono(g))


def test_is_distinguishing_k2_false_for_every_colouring():
    g = complete(2)
    for col in (RED, GREEN, BLUE):
        assert not is_distinguishing(g, EdgeColouring({(0, 1): col}))


def test_is_distinguishing_c6_pattern():
    # red on cyclic positions {0,1,3}: distinct circular gaps kill the
    # dihedral group; cross-checked against all 12 elements by brute force
    g = cycle(6)
    red = {(0, 1), (1, 2), (3, 4)}
    c = EdgeColouring({e: (RED if e in red else GREEN) for e in g.edges})
    assert is_distinguishing(g, c)
    for p in automorphisms_by_backtracking(g):
        preserved = all(
            (tuple(sorted((p[u], p[v]))) in red) == ((u, v) in red) for u, v in g.edges
        )
        assert preserved == all(p[v] == v for v in range(6))


def test_is_distinguishing_matches_networkx_vf2():
    pytest.importorskip("networkx")
    rng = random.Random(1)
    large = [parse_graph6(line) for line in LARGE.read_text().split()]
    cases = [(g, colour_regular(g)) for g in large + [circulant(64, [1, 7])]]
    for g in large[:6] + [petersen(), circulant(12, [1, 5]), random_regular(12, 3, 2)]:
        for _ in range(4):
            cases.append((g, EdgeColouring({e: rng.choice((RED, GREEN)) for e in g.edges})))
    # constant on the edge orbits of the rotation by s, which preserves them
    rotated = []
    for n, steps, s in ((12, [1, 3], 4), (16, [1, 7], 8), (20, [1, 3], 5), (64, [1, 7], 32)):
        g = circulant(n, steps)
        for _ in range(3):
            orbit_colour = {}
            rotated.append((g, EdgeColouring({
                (u, v): orbit_colour.setdefault(
                    min(edge((u + t) % n, (v + t) % n) for t in range(0, n, s)),
                    rng.choice(PALETTE))
                for u, v in g.edges
            })))
    verdicts = [is_distinguishing(g, c) for g, c in cases + rotated]
    assert verdicts == [is_distinguishing_networkx(g, c) for g, c in cases + rotated]
    assert all(verdicts[:len(large) + 1]) and not any(verdicts[len(cases):])
    assert verdicts.count(True) >= 40


def test_is_distinguishing_rejects_partial():
    g = cycle(4)
    with pytest.raises(ValueError):
        is_distinguishing(g, EdgeColouring({(0, 1): RED}))


def test_index_cited_small_values():
    assert distinguishing_index(complete(6)) == 2
    assert distinguishing_index(cycle(4)) == 3
    assert distinguishing_index(complete_bipartite(2, 4)) == 3
    assert distinguishing_index(complete(2)) is NOT_DISTINGUISHABLE


def test_index_c4_matches_brute_force():
    assert distinguishing_index_brute(cycle(4)) == 3
    assert not exists_distinguishing_colouring_brute(cycle(4), 2)
    assert exists_distinguishing_colouring_brute(cycle(4), 3)


def test_index_k24_matches_brute_force():
    g = complete_bipartite(2, 4)
    assert not exists_distinguishing_colouring_brute(g, 2)
    assert exists_distinguishing_colouring_brute(g, 3)


def test_index_witness_verified():
    for g in (complete(6), cycle(7), petersen(), complete_bipartite(4, 4)):
        k, w = distinguishing_index_with_witness(g)
        assert isinstance(k, int) and w is not None
        assert is_distinguishing(g, w)
        assert len(w.colours_used()) <= k


def test_index_asymmetric_graph_is_one():
    assert distinguishing_index(spider([1, 2, 3])) == 1
    assert distinguishing_index_with_witness(Graph(1)) == (1, EdgeColouring({}))


def test_index_requires_connected():
    from edgesym.graph import disjoint_union

    with pytest.raises(ValueError):
        distinguishing_index(disjoint_union([cycle(3), cycle(3)]))


def test_index_max_colours_exceeded():
    with pytest.raises(MaxColoursExceededError):
        distinguishing_index(cycle(4), max_colours=2)


def test_index_budget():
    with pytest.raises(BudgetExceededError):
        distinguishing_index(cycle(5), budget=2)


def test_index_brute_agreement_named():
    # n <= 7 sample: production search vs unpruned enumeration
    for g in (
        cycle(3),
        cycle(4),
        cycle(5),
        cycle(6),
        cycle(7),
        complete(4),
        complete(5),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        spider([1, 2, 3]),
    ):
        assert distinguishing_index(g, max_colours=3) == distinguishing_index_brute(g)
    # the 5-edge star needs one colour per edge: both sides run out at 3
    star5 = complete_bipartite(1, 5)
    assert distinguishing_index_brute(star5) == ">3"
    with pytest.raises(MaxColoursExceededError):
        distinguishing_index(star5, max_colours=3)


def test_search_colouring_k3_star():
    c = search_colouring(complete(3), 3, star_constraint=True)
    assert c is not None
    assert c.colours_used() == {RED, GREEN, BLUE}
    from edgesym.colouring import all_blue_vertices

    assert all_blue_vertices(complete(3), c) == []


def test_search_colouring_blue_rule_changes_the_answer():
    # the path 3-0-1-2: the first distinguishing 3-colouring found leaves 0
    # and 3 seeing only blue; under the blue rule the search goes on
    import edgesym.distinguishing as dist
    from edgesym.colouring import all_blue_vertices

    g = Graph(4, [(0, 1), (0, 3), (1, 2)])
    assert all_blue_vertices(g, search_colouring(g, 3)) == [0, 3]
    c = search_colouring(g, 3, star_constraint=True)
    assert is_distinguishing(g, c) and all_blue_vertices(g, c) == [3]
    # one vertex seeing only blue is allowed, except on a complete graph
    one_blue = {(0, 1): BLUE, (0, 2): RED}
    assert dist._meets_blue_rule(Graph(3, list(one_blue)), EdgeColouring(one_blue))
    k3 = EdgeColouring({**one_blue, (1, 2): BLUE})
    assert all_blue_vertices(complete(3), k3) == [1]
    assert not dist._meets_blue_rule(complete(3), k3)


def test_search_colouring_absent_cases():
    assert search_colouring(complete(2), 3) is None
    assert search_colouring(cycle(5), 2) is None


def test_search_colouring_witness_passes_verifier():
    for g, k in ((cycle(6), 2), (complete(5), 3), (petersen(), 2)):
        c = search_colouring(g, k, star_constraint=True)
        assert c is not None and is_distinguishing(g, c)


def test_cycle_colouring_positions():
    c = colour_regular(cycle(6))
    red = {e for e, col in c.assignment.items() if col == RED}
    assert red == {(0, 1), (1, 2), (3, 4)}
    assert c.colours_used() == {RED, GREEN}
    assert is_distinguishing(cycle(6), c)


def test_cycle_colouring_gap_sequence_12():
    c = colour_regular(cycle(12))
    red_positions = sorted(
        i for i in range(12) if c.get(edge(i, (i + 1) % 12)) == RED
    )
    assert red_positions == [0, 1, 3]
    gaps = [
        (b - a) % 12
        for a, b in zip(red_positions, red_positions[1:] + [red_positions[0] + 12])
    ]
    assert sorted(gaps) == [1, 2, 9]
    assert is_distinguishing(cycle(12), c)


def test_cycle_colouring_small_uses_three():
    for n in (3, 4, 5):
        c = colour_regular(cycle(n))
        assert len(c.colours_used()) == 3
        assert is_distinguishing(cycle(n), c)
    with pytest.raises(ValueError):
        colour_regular(cycle(2))


def test_cycle_colouring_two_colours_up_to_64():
    for n in list(range(6, 21)) + [40, 64]:
        c = colour_regular(cycle(n))
        assert c.colours_used() == {RED, GREEN}
        assert is_distinguishing(cycle(n), c)


def test_hamiltonian_colouring_k7():
    g = complete(7)
    c = _spider_colouring(g, list(range(7)))
    assert c.colours_used() == {RED, GREEN}
    assert is_distinguishing(g, c)


def test_hamiltonian_colouring_cycle_has_no_chord():
    with pytest.raises(ChordlessPathError):
        _spider_colouring(cycle(7), list(range(7)))


def test_hamiltonian_colouring_k8_legs():
    g = complete(8)
    c = _spider_colouring(g, list(range(8)))
    red = [e for e, col in c.assignment.items() if col == RED]
    tree_deg = {}
    for u, v in red:
        tree_deg[u] = tree_deg.get(u, 0) + 1
        tree_deg[v] = tree_deg.get(v, 0) + 1
    assert sorted(tree_deg.values()) == [1, 1, 1, 2, 2, 2, 2, 3]
    # chord at k=4 gives legs 1, 2, 4
    centre = [v for v, d in tree_deg.items() if d == 3][0]
    assert centre == 3
    assert is_distinguishing(g, c)


def test_hamiltonian_colouring_bad_path():
    with pytest.raises(ValueError):
        _spider_colouring(complete(7), [0, 1, 2, 3, 4, 5, 5])
    with pytest.raises(ValueError):
        _spider_colouring(complete(5), [0, 1, 2, 3, 4])


def test_probe_does_not_swallow_broken_invariants(monkeypatch):
    # the spider colouring is proven distinguishing, so a failed verification
    # (or an invalid kernel witness) is a bug that must reach the caller
    import edgesym.distinguishing as dist

    def broken(g, path):
        return EdgeColouring.on_graph(g, [RED] * g.edge_count)

    monkeypatch.setattr(dist, "_spider_colouring", broken)
    with pytest.raises(RuntimeError, match="spider colouring failed verification"):
        distinguishing_index(complete(7))


# K3 repeats a rejected probe before its first distinguishing one; K4 and
# K3,3 have no distinguishing 2-colouring among 64 and 315 distinct probes.
# A probe is searched at most once, and not at all when an automorphism an
# earlier search found preserves it, so those two need fewer searches than
# they have distinct probes
@pytest.mark.parametrize("g,k", [(complete(3), 3), (complete(4), 2), (complete_bipartite(3, 3), 2)])
def test_witness_verifies_each_probe_colouring_once(monkeypatch, g, k):
    import edgesym.distinguishing as dist

    allowed = set(PALETTE[:k])
    probes = [c for c, _ in dist._probe_candidates(g, k) if c.colours_used() <= allowed]
    first = next((c for c in probes if is_distinguishing(g, c)), None)
    searched = []
    find = dist.find_automorphism

    def counted(g, c):
        searched.append(c.colour_preserve)
        return find(g, c)

    monkeypatch.setattr(dist, "find_automorphism", counted)
    w = dist._witness(g, k, dist._Budget(10**6))
    assert w == first
    assert len(set(searched)) == len(searched) <= len(set(probes)) < len(probes)
    if k == 2:
        assert 0 < len(searched) < len(set(probes))


def _colours(c):
    return None if c is None else tuple(col for _, col in c.items())


def test_scan_with_learned_killers_matches_the_oracle(monkeypatch):
    # on the flagged graphs every probe fails and the exhaustive scan
    # decides, starting from the probe phase's killers and adding the witness
    # of each colouring the verifier rejects; the indices, witnesses and
    # blue-rule answers must be the oracle's. K_{1,5} needs five colours, so
    # both refuse it
    import edgesym.distinguishing as dist

    scans = []
    scan = dist._exhaustive_witness

    def counted(g, k, budget, star, killers):
        scans.append(g)
        return scan(g, k, budget, star, killers)

    monkeypatch.setattr(dist, "_exhaustive_witness", counted)
    graphs = [cycle(3), cycle(4), cycle(5), complete(4), complete(5),
              complete_bipartite(3, 3), complete_bipartite(1, 5)]
    for g in graphs:
        probes = {k: [_colours(c) for c, _ in dist._probe_candidates(g, k)] for k in (2, 3)}
        perms = automorphisms_by_backtracking(g)
        try:
            value, w = distinguishing_index_with_witness(g)
            got = (value, _colours(w))
        except MaxColoursExceededError:
            got = (">3", None)
        assert got == distinguishing_index_by_every_probe(g, probes.get, perms=perms), g
    assert got == (">3", None)
    for n in (3, 4, 5):
        g = complete(n)
        probes = [_colours(c) for c, _ in dist._probe_candidates(g, 3)]
        want = witness_by_every_probe(g, 3, probes, True, automorphisms_by_backtracking(g))
        assert _colours(search_colouring(g, 3, star_constraint=True)) == want, g
    assert len(scans) >= 8, len(scans)


def test_killer_filter_matches_verifying_every_probe():
    # the oracle verifies every distinct probe against every automorphism,
    # then scans every colouring; skipping the probes that a found
    # automorphism preserves must not change an index, witness or answer
    import edgesym.distinguishing as dist

    exceptions = [complete(2), cycle(3), cycle(4), cycle(5), complete(4), complete(5),
                  complete_bipartite(3, 3)]

    for g in connected_regular_upto(8) + [petersen()] + exceptions:
        probes = {k: [_colours(c) for c, _ in dist._probe_candidates(g, k)] for k in (2, 3)}
        perms = automorphisms_by_backtracking(g)
        try:
            value, w = distinguishing_index_with_witness(g)
            got = ("not_distinguishable" if value is NOT_DISTINGUISHABLE else value, _colours(w))
        except MaxColoursExceededError:
            got = (">3", None)
        assert got == distinguishing_index_by_every_probe(g, probes.get, perms=perms), g
        for k in (2, 3):
            for star in (False, True):
                want = witness_by_every_probe(g, k, probes[k], star, perms)
                assert _colours(search_colouring(g, k, star)) == want, (g, k, star)


def test_exhaustive_scan_from_no_killers_matches_the_unfiltered_scan():
    # the exhaustive scan starts from the killers it is given and adds the
    # witness of each colouring the verifier rejects. Started from none, it
    # must give the oracle's scan's answers
    import edgesym.distinguishing as dist

    found = 0
    for g in [cycle(3), cycle(4), cycle(5), cycle(6), complete(4), complete(5),
              complete_bipartite(3, 3), complete_bipartite(2, 3)]:
        perms = automorphisms_by_backtracking(g)
        for k in (2, 3):
            for star in (False, True):
                killers = []
                c = dist._exhaustive_witness(g, k, dist._Budget(10**6), star, killers)
                assert _colours(c) == witness_by_every_probe(g, k, [], star, perms), (g, k, star)
                found += len(killers)
    assert found > 0


def test_hamiltonian_path_finder():
    p = hamiltonian_path(petersen())
    assert p is not None and sorted(p) == list(range(10))
    assert all(petersen().has_edge(a, b) for a, b in zip(p, p[1:]))
    assert hamiltonian_path(spider([2, 2, 2])) is None


def test_scan_small_named_corpus():
    rows = scan_conjecture([complete(4), complete(5), complete(6)])
    statuses = {r["graph6"]: r["status"] for r in rows}
    dprimes = {r["graph6"]: r["dprime"] for r in rows}
    from edgesym.graph import serialize_graph6

    k4, k5, k6 = (serialize_graph6(complete(i)) for i in (4, 5, 6))
    assert statuses[k4] == "known_exception" and dprimes[k4] == 3
    assert statuses[k5] == "known_exception" and dprimes[k5] == 3
    assert statuses[k6] == "ok" and dprimes[k6] == 2


def test_scan_two_regular_up_to_12():
    rows = scan_conjecture([cycle(n) for n in range(3, 13)], max_n=12)
    statuses = {r["n"]: r["status"] for r in rows}
    assert statuses == {n: "known_exception" if n <= 5 else "ok" for n in range(3, 13)}


def test_scan_flags_k2_not_distinguishable():
    [row] = scan_conjecture([complete(2)])
    assert row["dprime"] == "not_distinguishable"
    assert row["status"] == "known_exception"


def test_scan_skips_bad_inputs(monkeypatch):
    import edgesym.distinguishing as dist
    from edgesym.graph import disjoint_union

    # cycle(66) is past max_n = 10, and at max_n = 100 past the search guard
    graphs = [disjoint_union([cycle(3), cycle(3)]), spider([1, 2, 3]), cycle(20), cycle(66)]
    for max_n, cycle20 in [(10, "skipped_too_large"), (100, "ok")]:
        for jobs in (1, 2):
            rows = scan_conjecture(graphs, max_n=max_n, jobs=jobs)
            assert [r["status"] for r in rows] == [
                "skipped_disconnected",
                "skipped_not_regular",
                cycle20,
                "skipped_too_large",
            ]

    # a broken invariant is not a skipped graph: it stops the scan
    monkeypatch.setattr(dist, "_spider_colouring",
                        lambda g, path: EdgeColouring.on_graph(g, [RED] * g.edge_count))
    with pytest.raises(RuntimeError, match="spider colouring failed verification"):
        scan_conjecture([cycle(66), complete(7)], max_n=100)


def _two_cores(monkeypatch):
    # the pool gets min(jobs, graphs, cores) workers: report two cores so
    # that jobs=2 starts a pool on any host
    import os

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def test_scan_parallel_matches_serial(monkeypatch):
    # every corpus graph, so rows cross many chunks of the pool: a pool that
    # yielded chunks as they finish, not in input order, would fail
    import edgesym.distinguishing as dist

    _two_cores(monkeypatch)
    graphs = [parse_graph6(line) for line in CORPUS.read_text().split()]
    serial = scan_conjecture(graphs, with_witness=True)
    par = scan_conjecture(graphs, with_witness=True, jobs=2)
    assert len(graphs) == 222 and dist._SCAN_CHUNK < len(graphs) // 2
    assert par == serial
    assert sum("witness_colouring" in r for r in serial) == 221  # all but K2


def test_scan_rows_yields_each_row_before_drawing_the_next_graph():
    graphs = [cycle(5), petersen(), complete(4)]
    drawn = []

    def corpus():
        for g in graphs:
            drawn.append(g)
            yield g

    rows = scan_rows(corpus())
    first = next(rows)
    assert first == scan_conjecture(graphs[:1])[0] and len(drawn) == 1
    assert [first, *rows] == scan_conjecture(graphs) and len(drawn) == 3


def test_closing_a_pooled_scan_stops_its_workers(monkeypatch):
    import multiprocessing

    _two_cores(monkeypatch)
    graphs = [cycle(n) for n in range(3, 43)]
    rows = scan_rows(iter(graphs), max_n=50, jobs=2)
    assert next(rows) == scan_conjecture(graphs[:1])[0]
    assert len(multiprocessing.active_children()) == 2
    rows.close()
    assert multiprocessing.active_children() == []


def test_scan_pool_bounded_by_graphs_and_cores(monkeypatch):
    # a fake pool records its size and maps serially, so no process starts.
    # The cores are those of the process's CPU affinity, or the host's count
    # where the platform has no affinity call. The corpus may be a one-shot
    # iterator: the pool is sized by the graphs drawn before it starts
    import multiprocessing
    import os

    sizes = []

    class FakePool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def imap(self, fn, items, chunksize=1):
            return map(fn, items)

    monkeypatch.setattr(multiprocessing, "Pool", FakePool)

    def affinity(cores):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores or 0)),
                            raising=False)

    def host_count(cores):  # a platform with no affinity call
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cores)

    def one_shot(graphs):
        return (g for g in graphs)

    graphs = [cycle(n) for n in range(3, 8)]
    serial = scan_conjecture(graphs)
    for corpus_of in (list, one_shot):
        for cores_of in (affinity, host_count):
            for cores, jobs, want in [(2, 2, [2]), (2, 1000, [2]), (8, 3, [3]), (8, 1000, [5]),
                                      (None, 1000, []), (1, 4, [])]:
                sizes.clear()
                cores_of(cores)
                assert scan_conjecture(corpus_of(graphs), jobs=jobs) == serial
                assert sizes == want, (corpus_of.__name__, cores_of.__name__, cores, jobs, sizes)
        sizes.clear()
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert scan_conjecture(corpus_of(graphs[:1]), jobs=4) == serial[:1]
        assert scan_conjecture(corpus_of([]), jobs=4) == []
        assert sizes == []
    for jobs in (0, -1):
        with pytest.raises(ValueError, match="jobs"):
            scan_conjecture(graphs, jobs=jobs)


def test_corpus_scan_search_counts_are_pinned(monkeypatch):
    # a serial scan of the 222 corpus graphs makes 402 kernel searches and
    # draws 1,857 probes. Searching every probe a found automorphism
    # preserves makes 1,254 searches, enumerating the group for the
    # exhaustive scans instead of learning their killers makes 439, and
    # drawing the rest of the random probes once every k-colouring is
    # rejected draws 3,420
    import edgesym.distinguishing as dist
    from edgesym import kernel

    counts = {"searches": 0, "probes": 0}
    search = kernel.search_mapping
    probe_stream = dist._probe_candidates

    def counted(query, masks):
        counts["searches"] += 1
        return search(query, masks)

    def drawn(g, k):
        for probe in probe_stream(g, k):
            counts["probes"] += 1
            yield probe

    monkeypatch.setattr(kernel, "search_mapping", counted)
    monkeypatch.setattr(dist, "_probe_candidates", drawn)
    graphs = [parse_graph6(line) for line in CORPUS.read_text().split()]
    rows = scan_conjecture(graphs)
    assert len(rows) == 222 and sum(r["status"].endswith("exception") for r in rows) == 7
    assert counts == {"searches": 402, "probes": 1857}


def test_search_colouring_answers_are_pinned():
    # SHA-256 of every answer on K3..K7 and C3..C7, k in {2, 3}, with the blue
    # rule off and on (12 of the 40 are None): it pins the probe and scan
    # order. The rule changes no answer on these graphs;
    # test_search_colouring_blue_rule_changes_the_answer shows it at work
    grid = []
    for g in [complete(n) for n in range(3, 8)] + [cycle(n) for n in range(3, 8)]:
        for k in (2, 3):
            for star in (False, True):
                c = search_colouring(g, k, star)
                grid.append(None if c is None else c.to_json())
    digest = hashlib.sha256(json.dumps(grid).encode()).hexdigest()
    assert digest == "0ba5407866750d5daf65ab765637367b11c123d172be8e75a7e6d766f536444f"


def test_a_red_first_edge_loses_no_colouring():
    # the lemma behind the exhaustive scan's red first edge, by brute force
    # on every connected graph with at most 5 vertices and every edge e: a
    # distinguishing k-colouring, under the blue rule or not, exists exactly
    # when one with e red does. search_colouring agrees on existence
    checked = 0
    for g in all_connected_graphs_upto(5):
        perms = automorphisms_by_backtracking(g)
        for k in (1, 2, 3):
            for star in (False, True):
                want = exists_distinguishing_colouring_brute(g, k, perms, star)
                assert (search_colouring(g, k, star) is not None) == want
                for j in range(g.edge_count):
                    assert exists_distinguishing_colouring_brute(g, k, perms, star, j) == want
                    checked += 1
    assert checked == 966


def test_brute_force_blue_rule_bites():
    # two claws joined by a path of two edges: each claw's leaves need three
    # colours, so two leaves see only blue. Three colours distinguish the
    # graph, and none do under the blue rule
    g = Graph(9, [(0, 1), (0, 2), (0, 3), (4, 5), (4, 6), (4, 7), (0, 8), (4, 8)])
    assert exists_distinguishing_colouring_brute(g, 3)
    assert not exists_distinguishing_colouring_brute(g, 3, star=True)
    assert search_colouring(g, 3) is not None
    assert search_colouring(g, 3, star_constraint=True) is None


def test_edgeless_graphs_scan_the_empty_colouring_once():
    # with no edges the scan has one colouring, the empty one, and spends one
    # budget unit on it; K0 and K1 are distinguished by it, two isolated
    # vertices not
    assert is_distinguishing(Graph(0), EdgeColouring({}))
    assert is_distinguishing(Graph(1), EdgeColouring({}))
    assert search_colouring(Graph(1), 1) == EdgeColouring({})
    assert search_colouring(Graph(2), 3, star_constraint=True) is None
    with pytest.raises(BudgetExceededError):
        search_colouring(Graph(1), 1, budget=0)


def test_monotone_witness_property():
    # any witness returned at k colours certifies the index is <= k
    for g in (cycle(8), petersen(), complete_bipartite(4, 4)):
        c = search_colouring(g, 2)
        assert c is not None
        assert distinguishing_index(g) <= 2


def test_determinism():
    g = petersen()
    a = distinguishing_index_with_witness(g)
    b = distinguishing_index_with_witness(g)
    assert a[0] == b[0] and a[1].assignment == b[1].assignment
