import random
from pathlib import Path

import pytest

from edgesym import kernel
from edgesym.aut import (
    AutConstraint,
    _build_query,
    _chain_transversals,
    _equitable_cells,
    _label_rows,
    _levels,
    _searcher,
    ConstraintError,
    Permutation,
    SizeGuardError,
    all_automorphisms,
    automorphism_generators,
    find_automorphism,
    find_isomorphism,
    group_order,
    is_isomorphic,
    pointwise_stabiliser_generators,
    stabiliser_generators,
    vertex_orbits,
)
from edgesym.catalog import connected_regular_upto
from edgesym.colouring import BLUE, GREEN, RED, EdgeColouring
from edgesym.graph import (
    Graph,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    parse_graph6,
    path,
    petersen,
    random_regular,
    spider,
)

from oracles import (
    automorphism_count_networkx,
    automorphisms_by_backtracking,
    automorphisms_by_full_enumeration,
    constraint_holds_naive,
    equitable_cells_by_rounds,
    find_automorphism_brute,
    random_constraint,
)


def test_permutation_algebra():
    p = Permutation((1, 2, 0))
    q = Permutation((0, 2, 1))
    assert p(0) == 1 and p.edge_image((0, 2)) == (0, 1)
    assert p.compose(q).images == (1, 0, 2)
    assert Permutation.identity(4).images == (0, 1, 2, 3)


def test_k3_has_nontrivial_automorphism():
    w = find_automorphism(complete(3), AutConstraint(nontrivial_on=frozenset({0, 1, 2})))
    assert w is not None and w.images != (0, 1, 2)
    assert find_automorphism(Graph(1), AutConstraint(nontrivial_on=frozenset({0}))) is None


def test_k2_swap_preserves_every_colouring():
    g = complete(2)
    for col in (RED, GREEN, BLUE):
        w = find_automorphism(
            g,
            AutConstraint(
                colour_preserve=EdgeColouring({(0, 1): col}),
                nontrivial_on=frozenset({0, 1}),
            ),
        )
        assert w is not None and w.images == (1, 0)


def test_spider_tree_is_asymmetric():
    # legs 1,2,3: the smallest asymmetric tree (7 vertices); checked against
    # full enumeration of all 5040 permutations
    g = spider([1, 2, 3])
    assert find_automorphism(g, AutConstraint(nontrivial_on=frozenset(range(g.n)))) is None
    assert len(automorphisms_by_full_enumeration(g)) == 1


def test_pinned_and_pointwise_fixed():
    g = cycle(6)
    w = find_automorphism(g, AutConstraint(pinned={0: 0, 1: 5}))
    assert w is not None and w(1) == 5  # the reflection through 0
    assert find_automorphism(g, AutConstraint(pinned={0: 0, 1: 3})) is None
    w = find_automorphism(g, AutConstraint(pinned={0: 0, 1: 1}, nontrivial_on=frozenset(range(6))))
    assert w is None  # fixing an edge of a cycle pins everything


def test_setwise_pairs():
    g = complete_bipartite(2, 3)
    w = find_automorphism(g, AutConstraint(setwise_pairs=[(frozenset({0}), frozenset({1}))]))
    assert w is not None and w(0) == 1
    with pytest.raises(ConstraintError):
        find_automorphism(g, AutConstraint(setwise_pairs=[(frozenset({0}), frozenset({1, 2}))]))


def test_colour_preserve_uncoloured_edges_stay_uncoloured():
    # star with one coloured edge: a colour-preserving map cannot move it
    g = Graph(4, [(0, 1), (0, 2), (0, 3)])
    c = EdgeColouring({(0, 1): RED})
    w = find_automorphism(
        g, AutConstraint(colour_preserve=c, nontrivial_on=frozenset({1}))
    )
    assert w is None
    w = find_automorphism(
        g, AutConstraint(colour_preserve=c, nontrivial_on=frozenset({2, 3}))
    )
    assert w is not None and w(1) == 1


def test_malformed_constraints_rejected():
    g = complete(3)
    with pytest.raises(ConstraintError):
        find_automorphism(g, AutConstraint(pinned={0: 1, 2: 1}))
    with pytest.raises(ConstraintError):  # pin 0 to 1 and fix 1: images repeat
        find_automorphism(g, AutConstraint(pinned={0: 1, 1: 1}))
    with pytest.raises(ConstraintError):
        find_automorphism(g, AutConstraint(pinned={0: 7}))
    with pytest.raises(ConstraintError):
        find_automorphism(g, AutConstraint(colour_preserve={(0, 5): RED}))
    with pytest.raises(SizeGuardError):
        find_automorphism(Graph(70), AutConstraint())


def test_find_automorphism_agrees_with_brute_force():
    rng = random.Random(2024)
    for trial in range(120):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        es = [e for e in pairs if rng.random() < 0.5]
        g = Graph(n, es)
        c = random_constraint(g, rng)
        got = find_automorphism(g, c)
        brute = find_automorphism_brute(g, c.normalised())
        assert (got is None) == (brute is None), (g.edges, c)
        if got is not None:
            assert constraint_holds_naive(g, c.normalised(), got.images)


def test_stabiliser_generators_petersen():
    g = petersen()
    gens = stabiliser_generators(g, 0)
    assert all(p(0) == 0 for p in gens)
    # the vertex stabiliser of the Petersen graph has order 12: |Aut| = 120
    # by full backtracking enumeration, and the graph is vertex-transitive
    group = _span(gens, g.n)
    assert len(group) == 12
    full = automorphisms_by_backtracking(g)
    assert len(full) == 120
    assert set(group) == {p for p in full if p[0] == 0}


def _span(gens, n):
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        nxt = []
        for p in frontier:
            for q in gens:
                r = tuple(q(p[i]) for i in range(n))
                if r not in seen:
                    seen.add(r)
                    nxt.append(r)
        frontier = nxt
    return seen


def test_stabiliser_generators_k5_and_c6():
    assert len(_span(stabiliser_generators(complete(5), 0), 5)) == 24
    assert len(_span(stabiliser_generators(cycle(6), 0), 6)) == 2


def test_vertex_orbits_examples():
    g = petersen()
    gens = stabiliser_generators(g, 0)
    orbits = vertex_orbits(g, gens)
    assert sorted(len(o) for o in orbits) == [1, 3, 6]
    k4 = complete(4)
    orbits = vertex_orbits(k4, stabiliser_generators(k4, 0))
    assert sorted(len(o) for o in orbits) == [1, 3]
    assert vertex_orbits(k4, []) == [[0], [1], [2], [3]]


def test_orbit_domain_violation():
    g = cycle(5)
    gens = automorphism_generators(g)
    with pytest.raises(ConstraintError):
        vertex_orbits(g, gens, domain={0, 1})


def test_group_order_examples():
    assert group_order(complete(5)) == 120
    assert group_order(cycle(7)) == 14
    assert group_order(petersen()) == 120
    assert group_order(spider([1, 2, 3])) == 1
    assert group_order(cycle(17)) == 34
    with pytest.raises(SizeGuardError):
        group_order(Graph(65))


def _hypercube(d):
    return Graph(1 << d, [(u, u ^ 1 << i) for u in range(1 << d) for i in range(d)])


def _generalised_petersen(n, k):
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return Graph(2 * n, outer + spokes + inner)


@pytest.mark.slow
def test_group_order_matches_sympy():
    # sympy's Schreier-Sims shares no code with aut: the group the chain's
    # generators generate has the order group_order reports, and every
    # generator maps edges onto edges. Orders reach 2 * (12!)^2 at K_{12,12}
    combinatorics = pytest.importorskip("sympy.combinatorics")
    graphs = [complete_bipartite(m, m) for m in range(1, 13)]
    graphs += [_hypercube(d) for d in range(1, 7)]
    graphs += [circulant(n, [1, 7]) for n in range(15, 65, 7)]
    graphs += [petersen(), _generalised_petersen(10, 3), _generalised_petersen(12, 5)]
    for g in graphs:
        gens = automorphism_generators(g)
        edges = set(g.edges)
        for p in gens:
            q = p.images
            assert sorted(q) == list(range(g.n))
            assert all((min(q[u], q[v]), max(q[u], q[v])) in edges for u, v in g.edges)
        group = combinatorics.PermutationGroup(
            [combinatorics.Permutation(list(p.images)) for p in gens]
        )
        assert group.order() == group_order(g), g.n


def test_group_order_matches_enumeration_on_random_graphs():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.5])
        assert group_order(g) == len(automorphisms_by_full_enumeration(g))


def test_all_automorphisms_matches_brute_force():
    # the chain's transversals multiplied out: every automorphism once, as
    # many as group_order, and None exactly when the order passes the limit
    graphs = list(connected_regular_upto(8)) + [petersen(), complete_bipartite(3, 4)]
    nontrivial = 0
    for g in graphs:
        group = all_automorphisms(g)
        images = [p.images for p in group]
        assert len(set(images)) == len(images) == group_order(g), g.edges
        assert set(images) == set(automorphisms_by_backtracking(g)), g.edges
        assert all_automorphisms(g, limit=len(group)) == group
        assert all_automorphisms(g, limit=len(group) - 1) is None
        nontrivial += sum(map(bool, _chain_transversals(g, []))) > 1
    assert len(graphs) == 35 and nontrivial == 31, (len(graphs), nontrivial)
    assert all_automorphisms(Graph(0), limit=0) is None


def test_all_automorphisms_over_the_limit_makes_no_products(monkeypatch):
    # |Aut(K9)| = 362,880: the chain's order alone refuses it
    compose = Permutation.compose
    calls = [0]

    def counted(self, other):
        calls[0] += 1
        return compose(self, other)

    monkeypatch.setattr(Permutation, "compose", counted)
    assert all_automorphisms(complete(9), limit=200_000) is None
    assert calls[0] == 0
    assert len(all_automorphisms(complete(5))) == 120 and calls[0] == 119


def test_pointwise_stabiliser_generators():
    g = cycle(6)
    gens = pointwise_stabiliser_generators(g, [0, 1])
    assert gens == []  # fixing an edge of a cycle is rigid
    g = complete(4)
    gens = pointwise_stabiliser_generators(g, [0])
    assert len(_span(gens, 4)) == 6


def test_coloured_chain_matches_brute_force():
    # the group generated by the coloured chain is exactly the set of
    # automorphisms that fix the listed vertices and preserve the colouring
    rng = random.Random(2003)
    graphs = [cycle(6), complete(5), complete_bipartite(3, 3), Graph(7, [(0, 1), (2, 3)])]
    graphs += [_random_gnp(rng.randint(3, 7), rng) for _ in range(24)]
    nontrivial = coloured = 0
    for g in graphs:
        perms = automorphisms_by_full_enumeration(g)
        for _ in range(6):
            fixed = rng.sample(range(g.n), rng.randint(0, 2))
            colours = {e: rng.choice((RED, GREEN)) for e in g.edges if rng.random() < 0.3}
            c = AutConstraint({v: v for v in fixed}, colour_preserve=colours)
            want = {p for p in perms if constraint_holds_naive(g, c, p)}
            assert _span(pointwise_stabiliser_generators(g, fixed, colours), g.n) == want
            nontrivial += len(want) > 1
            coloured += bool(colours) and len(want) > 1
    assert nontrivial >= 40 and coloured >= 20, (nontrivial, coloured)


def test_isomorphism():
    g = petersen()
    # relabel by a random permutation; must be detected as isomorphic
    rng = random.Random(3)
    p = list(range(10))
    rng.shuffle(p)
    h = Graph(10, [(p[u], p[v]) for u, v in g.edges])
    iso = find_isomorphism(g, h)
    assert iso is not None
    assert all(h.has_edge(*iso.edge_image(e)) for e in g.edges)
    assert not is_isomorphic(cycle(6), complete_bipartite(3, 3))
    assert is_isomorphic(complete_bipartite(2, 2), cycle(4))
    assert not is_isomorphic(random_regular(10, 3, seed=1), petersen())


def _relabelled(g, rng):
    p = list(range(g.n))
    rng.shuffle(p)
    return Graph(g.n, [(p[u], p[v]) for u, v in g.edges]), p


def test_labelled_isomorphism_respects_labels():
    rng = random.Random(11)
    for _ in range(80):
        g = _random_gnp(rng.randint(1, 10), rng)
        h, p = _relabelled(g, rng)
        g_labels = [rng.randrange(3) for _ in range(g.n)]
        h_labels = [None] * g.n
        for v, w in enumerate(p):
            h_labels[w] = g_labels[v]
        iso = find_isomorphism(g, h, g_labels, h_labels)
        assert iso is not None
        assert all(h.has_edge(*iso.edge_image(e)) for e in g.edges)
        assert all(h_labels[iso(v)] == g_labels[v] for v in range(g.n))


def test_labelled_isomorphism_unmatchable_labels():
    g = cycle(6)
    assert find_isomorphism(g, g) is not None
    # one vertex labelled differently on one side only
    assert find_isomorphism(g, g, [1, 0, 0, 0, 0, 0], [0] * 6) is None
    # the same label multiset, but an adjacent pair cannot go to a distance-2 pair
    assert find_isomorphism(g, g, [1, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0]) is None
    assert find_isomorphism(g, g, [1, 1, 0, 0, 0, 0], [0, 0, 0, 1, 1, 0]) is not None


def test_labelled_isomorphism_matches_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(2014)
    agree = {True: 0, False: 0}
    for _ in range(150):
        g = _random_gnp(rng.randint(1, 8), rng)
        h, p = _relabelled(g, rng)
        g_labels = [rng.randrange(2) for _ in range(g.n)]
        h_labels = [None] * g.n
        for v, w in enumerate(p):
            h_labels[w] = g_labels[v]
        if rng.random() < 0.5:
            rng.shuffle(h_labels)  # may or may not still be matchable
        if rng.random() < 0.3:
            h = _random_gnp(g.n, rng)
        gx, hx = nx.Graph(), nx.Graph()
        gx.add_nodes_from((v, {"lab": lab}) for v, lab in enumerate(g_labels))
        hx.add_nodes_from((v, {"lab": lab}) for v, lab in enumerate(h_labels))
        gx.add_edges_from(g.edges)
        hx.add_edges_from(h.edges)
        want = nx.is_isomorphic(gx, hx, node_match=lambda a, b: a["lab"] == b["lab"])
        assert (find_isomorphism(g, h, g_labels, h_labels) is not None) == want
        agree[want] += 1
    assert min(agree.values()) > 20


def test_labelled_isomorphism_rejects_bad_labels():
    g = cycle(5)
    with pytest.raises(ValueError):
        find_isomorphism(g, g, [0] * 5)
    with pytest.raises(ValueError):
        find_isomorphism(g, g, None, [0] * 5)
    with pytest.raises(ValueError):
        find_isomorphism(g, g, [0] * 4, [0] * 5)
    with pytest.raises(ValueError):
        find_isomorphism(g, g, [0] * 5, [0] * 6)


def test_witness_soundness_random_queries():
    rng = random.Random(7)
    for _ in range(60):
        g = random_regular(8, 3, seed=rng.randint(0, 10**6))
        c = random_constraint(g, rng)
        w = find_automorphism(g, c)
        if w is not None:
            assert constraint_holds_naive(g, c.normalised(), w.images)


def _random_gnp(n, rng):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < 0.5])


def _chain_unpruned(g, start_fixed, colour_preserve=None):
    # every target b -> w at every level, one find_automorphism each: the
    # chain before cell pruning and before its query was prepared once,
    # one list of witnesses per base
    levels = []
    pins = {v: v for v in start_fixed}
    for b in range(g.n):
        if b in pins:
            continue
        levels.append([])
        for w in range(g.n):
            if w != b and w not in pins:  # a fixed vertex is no one else's image
                witness = find_automorphism(
                    g, AutConstraint({**pins, b: w}, colour_preserve=colour_preserve)
                )
                if witness is not None:
                    levels[-1].append(witness)
        pins[b] = b
    return levels


def _same_levels(got, want):
    # the pruned chain stops once its partition is discrete: the levels it
    # skips hold no witness
    return got == want[: len(got)] and not any(want[len(got):])


def test_pruned_chain_matches_unpruned_reference():
    rng = random.Random(2014)
    graphs = [g for g in connected_regular_upto(8) if g.n >= 1]
    graphs += [_random_gnp(rng.randint(1, 9), rng) for _ in range(40)]
    moved = coloured_moved = 0
    for g in graphs:
        # partial colourings, one sparse with two colours and one denser with three
        sparse = {e: rng.choice((RED, GREEN)) for e in g.edges if rng.random() < 0.15}
        dense = {e: rng.choice((RED, GREEN, BLUE)) for e in g.edges if rng.random() < 0.4}
        for start in ([], [0]):
            got = _chain_transversals(g, start)
            assert _same_levels(got, _chain_unpruned(g, start))
            moved += sum(map(len, got))
            for colours in (sparse, dense):
                got = _chain_transversals(g, start, colours)
                assert _same_levels(got, _chain_unpruned(g, start, colours)), (g.edges, start, colours)
                coloured_moved += sum(map(len, got)) if colours else 0
    assert moved > 0 and coloured_moved >= 70, (moved, coloured_moved)


def test_chain_rejects_malformed_input():
    g = path(4)
    for fixed in ([-1], [4], [0.5]):
        with pytest.raises(ConstraintError):
            pointwise_stabiliser_generators(g, fixed)
    # (0, 3) is not an edge; the partition with 0 fixed is already discrete,
    # so the chain makes no search that could notice it
    with pytest.raises(ConstraintError):
        pointwise_stabiliser_generators(g, [0], {(0, 3): RED})
    with pytest.raises(ConstraintError):
        find_automorphism(g, AutConstraint(colour_preserve={(0, 3): RED}))
    with pytest.raises(SizeGuardError):
        pointwise_stabiliser_generators(spider([1, 2, 3, 58]), [0])


def _blocks_of_labels(labels):
    blocks = {}
    for v, lab in enumerate(labels):
        blocks.setdefault(lab, set()).add(v)
    return {frozenset(b) for b in blocks.values()}


def _blocks_of_masks(cells):
    return {frozenset(v for v in range(m.bit_length()) if m >> v & 1) for m in cells}


def _adjacency(g):
    # single-label rows: label 1 is an edge, label 0 is ignored
    return [(0, g.adjacency_mask(v)) for v in range(g.n)]


def _walk_matches_rounds(g, rows, fixed, bases, labels=None):
    # each cell the level walk yields is its base's cell in the round
    # reference with the fixed vertices and the earlier bases alone, the
    # walk stops exactly when that partition is discrete, and the partition
    # refined from scratch (one single-base walk per vertex) is the same.
    # Returns the reference blocks of every level up to the first discrete one.
    walked = list(_levels(rows, fixed, bases))
    refs = []
    for k in range(len(bases) + 1):
        want = _blocks_of_labels(equitable_cells_by_rounds(g, fixed + bases[:k], labels))
        fresh = [next(_levels(rows, fixed + bases[:k], [v]), (v, 1 << v))[1] for v in range(g.n)]
        assert _blocks_of_masks(fresh) == want, (g.edges, labels, fixed, bases[:k])
        refs.append(want)
        if len(want) == g.n:
            break
    reached = min(len(bases), sum(len(want) < g.n for want in refs))
    assert [b for b, _ in walked] == bases[:reached], (g.edges, labels, fixed, bases)
    for (b, cell), want in zip(walked, refs):
        assert cell >> b & 1 and _blocks_of_masks([cell]) <= want, (g.edges, labels, fixed, bases)
    return refs


def _fixed_and_bases(g, rng):
    order = rng.sample(range(g.n), g.n)
    cut = rng.randint(0, min(2, g.n))
    return order[:cut], order[cut : rng.randint(cut, g.n)]


def test_splitter_refinement_matches_round_reference():
    # the same set partition as whole rounds of colour refinement, from
    # scratch and carried along a random list of bases one vertex at a time;
    # at n <= 7 every cell is a union of orbits of the pointwise stabiliser
    rng = random.Random(1911)
    graphs = [g for g in connected_regular_upto(8) if g.n >= 1] * 2
    graphs += [_random_gnp(rng.randint(1, 9), rng) for _ in range(120)]
    compared = split = orbit_checked = 0
    for g in graphs:
        perms = automorphisms_by_full_enumeration(g) if g.n <= 7 else None
        fixed, bases = _fixed_and_bases(g, rng)
        for k, want in enumerate(_walk_matches_rounds(g, _adjacency(g), fixed, bases)):
            compared += 1
            split += len(want) > len(fixed) + k + 1
            if perms is not None:
                cell_of = {v: b for b in want for v in b}
                for p in perms:
                    if all(p[v] == v for v in fixed + bases[:k]):
                        assert all(p[v] in cell_of[v] for v in range(g.n))
                orbit_checked += 1
    assert compared > 300 and split > 200 and orbit_checked > 180, (compared, split, orbit_checked)


def test_labelled_refinement_matches_round_reference():
    # random edge labellings with one to three labels: the same set partition
    # as whole rounds of labelled colour refinement, from scratch and carried
    # along a random list of bases one vertex at a time
    rng = random.Random(1912)
    graphs = [g for g in connected_regular_upto(8) if g.n >= 1] * 3
    graphs += [_random_gnp(rng.randint(1, 10), rng) for _ in range(240)]
    compared = finer = 0
    for g in graphs:
        nlabels = rng.randint(1, 3)
        labels = [rng.randint(1, nlabels) for _ in g.edges]
        rows = _label_rows(g, labels, nlabels + 1)
        fixed, bases = _fixed_and_bases(g, rng)
        for k, want in enumerate(_walk_matches_rounds(g, rows, fixed, bases, labels)):
            compared += 1
            finer += len(want) > len(set(equitable_cells_by_rounds(g, fixed + bases[:k])))
    assert compared > 400 and finer > 90, (compared, finer)


LARGE = [parse_graph6(line) for line in
         (Path(__file__).resolve().parents[1] / "perfbench" / "data" / "large.g6").read_text().split()]


def _refined(rows, fixed, seed=None):
    # _equitable_cells from {each fixed vertex alone, the seed's classes},
    # every cell a splitter, as a set of blocks
    classes = {}
    for v in range(len(rows)):
        if v not in fixed:
            key = 0 if seed is None else seed[v]
            classes[key] = classes.get(key, 0) | 1 << v
    cells = [1 << v for v in fixed] + list(classes.values())
    return _blocks_of_masks(_equitable_cells(rows, cells, list(cells)))


def test_equitable_cells_match_round_reference_on_named_graphs():
    # the n <= 8 catalogue, Petersen, the benchmark's large graphs and
    # K_{m,m} for m <= 8: the same set partition as whole rounds of colour
    # refinement, with no fixed vertex, the first, the first and the last,
    # and three at random
    rng = random.Random(1932)
    graphs = connected_regular_upto(8) + [petersen()] + LARGE
    graphs += [complete_bipartite(m, m) for m in range(1, 9)]
    compared = split = 0
    for g in graphs:
        rows = _adjacency(g)
        for fixed in ([], [0], [0, g.n - 1], rng.sample(range(g.n), min(3, g.n))):
            fixed = list(dict.fromkeys(fixed))
            want = _blocks_of_labels(equitable_cells_by_rounds(g, fixed))
            assert _refined(rows, fixed) == want, (g.edges, fixed)
            compared += 1
            split += len(fixed) + 1 < len(want) < g.n
    assert compared == 4 * len(graphs) and split >= 60, (compared, split)


def test_labelled_equitable_cells_match_round_reference_on_random_regular_graphs():
    # random edge labellings and random seed partitions of random regular
    # graphs up to n = 256, with and without fixed vertices
    rng = random.Random(1933)
    compared = finer = 0
    for n, d in [(16, 3), (24, 4), (32, 5), (64, 3), (64, 4), (128, 3), (128, 5), (256, 3)]:
        for s in range(3):
            g = random_regular(n, d, s)
            nlabels = rng.randint(1, 3)
            labels = [rng.randint(1, nlabels) for _ in g.edges]
            seed = None if s == 0 else [rng.randrange(s + 1) for _ in range(n)]
            for fixed in ([], rng.sample(range(n), rng.randint(1, 2))):
                want = _blocks_of_labels(equitable_cells_by_rounds(g, fixed, labels, seed))
                rows = _label_rows(g, labels, nlabels + 1)
                assert _refined(rows, fixed, seed) == want, (n, d, s, labels, seed, fixed)
                compared += 1
                finer += len(want) > len(fixed) + (1 if seed is None else len(set(seed)))
    assert compared == 48 and finer >= 40, (compared, finer)


def test_a_one_vertex_splitter_on_a_cubic_graph_examines_at_most_three_cells(monkeypatch):
    # individualising v in an equitable partition, the first splitter popped
    # is {v}; it examines only the cells of v's three neighbours, however
    # many cells the partition has
    import edgesym.aut as aut_module

    pieces = aut_module._pieces
    calls = []

    def counted(x, planes):
        calls.append(planes)
        return pieces(x, planes)

    monkeypatch.setattr(aut_module, "_pieces", counted)
    cubic = [circulant(64, [1, 32]), circulant(96, [1, 48]), petersen(), random_regular(64, 3, 1)]
    cubic += [g for g in LARGE if g.degree(0) == 3]
    splits = many = 0
    for g in cubic:
        rows = _adjacency(g)
        for fixed in ([0], [0, 5]):
            start = [1 << v for v in fixed] + [(1 << g.n) - 1 - sum(1 << v for v in fixed)]
            cells = _equitable_cells(rows, start, start)
            for v in range(g.n):
                bit = 1 << v
                cell = next(x for x in cells if x & bit)
                if cell == bit:
                    continue
                calls.clear()
                _equitable_cells(rows, [bit, cell ^ bit, *(x for x in cells if x != cell)], [bit])
                first = [p for p in calls if p is calls[0]]
                assert 1 <= len(first) <= 3, (g.edges, fixed, v, len(first))
                splits += 1
                many += len(cells) >= 12
    assert splits >= 150 and many >= 140, (splits, many)


def _ladder_unpruned(g, c):
    # every rung of the nontrivial_on ladder on one prepared query: rung k
    # pins the earlier probes and moves the k-th, with no refinement
    rows, allowed = _build_query(g, c)
    run = _searcher(g, rows)
    probes = sorted(c.nontrivial_on)
    for k, x in enumerate(probes):
        masks = list(allowed)
        for y in probes[:k]:
            masks[y] &= 1 << y
        masks[x] &= ~(1 << x)
        if all(masks[y] for y in probes[: k + 1]):
            found = run(masks, c)
            if found is not None:
                return found
    return None


def _ladder_constraint(g, rng, perms):
    # a partial colouring, fixed points as pinned v -> v, a probe set; now and
    # then a pin v -> w, and now and then a setwise pair: a vertex set and its
    # image under an automorphism from perms
    n = g.n
    density = rng.choice((0.0, 0.3, 0.7, 1.0))
    colours = {e: rng.choice((RED, GREEN, BLUE)) for e in g.edges if rng.random() < density}
    fixed = rng.sample(range(n), rng.randint(0, min(2, n)))
    pinned = {v: v for v in rng.sample(range(n), rng.randint(0, min(1, n)))}
    if rng.random() < 0.1:
        pinned = {rng.randrange(n): rng.randrange(n)}
    probes = range(n) if rng.random() < 0.3 else rng.sample(range(n), rng.randint(1, n))
    for v in fixed:  # skip a vertex already pinned or already an image
        if v not in pinned and v not in pinned.values():
            pinned[v] = v
    setwise = []
    if rng.random() < 0.2:
        a, p = rng.sample(range(n), rng.randint(1, n)), rng.choice(perms)
        setwise.append((frozenset(a), frozenset(p[v] for v in a)))
    return AutConstraint(
        pinned=pinned,
        setwise_pairs=setwise,
        colour_preserve=colours,
        nontrivial_on=frozenset(probes),
    ).normalised()


def test_ladder_carries_individualisation_from_rung_to_rung(monkeypatch):
    # on the 167 connected regular graphs with 10 vertices the root
    # partition is often coarser than the orbits; individualising each probe
    # whose rung failed splits the cells of the later probes, so the ladder
    # makes 188 searches where the root partition alone lets 276 run
    searches = [0]
    search = kernel.search_mapping

    def counted(query, masks):
        searches[0] += 1
        return search(query, masks)

    monkeypatch.setattr(kernel, "search_mapping", counted)
    graphs = [g for g in connected_regular_upto(10) if g.n == 10]
    pruned = none = 0
    for g in graphs:
        c = AutConstraint(nontrivial_on=frozenset(range(g.n))).normalised()
        searches[0] = 0
        got = find_automorphism(g, c)
        pruned += searches[0]
        assert got == _ladder_unpruned(g, c), g.edges
        none += got is None
    assert len(graphs) == 167 and none == 8 and pruned <= 190, (len(graphs), none, pruned)


def test_pruned_ladder_matches_brute_force_and_unpruned_witness(monkeypatch):
    # every graph with n <= 6 and every connected graph with n = 7 (networkx's
    # atlas), three random constraints each: None exactly when no automorphism
    # meets the constraint, and the witness of the unpruned ladder otherwise.
    # About 1.5 s on a 2-core Xeon.
    nx = pytest.importorskip("networkx")
    from networkx.generators.atlas import graph_atlas_g

    graphs = [
        Graph(h.number_of_nodes(), list(h.edges))
        for h in graph_atlas_g()
        if 1 <= h.number_of_nodes() <= 6
        or (h.number_of_nodes() == 7 and nx.is_connected(h))
    ]
    searches = [0]
    search = kernel.search_mapping

    def counted(query, masks):
        searches[0] += 1
        return search(query, masks)

    monkeypatch.setattr(kernel, "search_mapping", counted)
    rng = random.Random(2014)
    queries = skipped = unsearched = found = setwise = moved_pins = 0
    for g in graphs:
        perms = automorphisms_by_backtracking(g)
        for _ in range(3):
            c = _ladder_constraint(g, rng, perms)
            searches[0] = 0
            got = find_automorphism(g, c)
            pruned = searches[0]
            searches[0] = 0
            want = _ladder_unpruned(g, c)
            exists = any(constraint_holds_naive(g, c, p) for p in perms)
            assert (want is None) == (not exists), (g.edges, c)
            assert got == want, (g.edges, c)
            assert pruned <= searches[0]
            queries += 1
            setwise += bool(c.setwise_pairs)
            moved_pins += any(v != w for v, w in c.pinned.items())
            found += want is not None
            skipped += searches[0] - pruned
            unsearched += pruned == 0 < searches[0]
    assert len(graphs) == 1061 and found > 550, (len(graphs), found)
    assert setwise > 600 and moved_pins > 200, (setwise, moved_pins)
    # 3,183 queries (663 with a setwise pair, 257 with a pin v -> w): 9,181
    # rungs skipped, 2,376 answered with no search. Walking the constraints
    # with a pin v -> w or a setwise pair unrefined skips 7,006 and answers
    # 1,757
    assert skipped > 9000 and unsearched > 2300, (queries, skipped, unsearched)


def test_group_order_matches_networkx():
    pytest.importorskip("networkx")
    rng = random.Random(60)
    graphs = [_random_gnp(rng.randint(1, 10), rng) for _ in range(40)]
    graphs += [petersen(), complete(6), cycle(9), complete_bipartite(3, 4), Graph(5)]
    for g in graphs:
        assert group_order(g) == automorphism_count_networkx(g)
