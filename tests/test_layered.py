import dataclasses
import hashlib
import itertools
import json
import signal
from collections import Counter
from pathlib import Path

import pytest

from edgesym.aut import (
    AutConstraint,
    Permutation,
    find_automorphism,
    pointwise_stabiliser_generators,
)
from edgesym.catalog import connected_regular_upto
from edgesym.colouring import BLUE, GREEN, PALETTE, RED, EdgeColouring, all_blue_vertices, satisfies_blue_rule
from edgesym.distinguishing import is_distinguishing
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
    regularity,
)
from edgesym.layered import (
    Decoration,
    DecorationShortageError,
    NotColourableError,
    StepColouring,
    StepState,
    _component_orbits,
    _decoration_back_edges,
    _decoration_sites,
    _matching_orbit_colours,
    _settled_cells,
    assign_decorations,
    build_layering,
    check_step_properties,
    colour_horizontal,
    colour_regular,
    decoration_is_asymmetric,
    decorations_similar,
    enumerate_decorations,
    initial_colouring,
)

from oracles import (
    automorphisms_by_backtracking,
    constraint_holds_naive,
    equitable_cells_by_rounds,
    step_scan_violations,
)

BENCH_DATA = Path(__file__).resolve().parents[1] / "perfbench" / "data"


def prism():
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)])


def frucht():
    # smallest asymmetric cubic graph: 12-cycle plus LCF chords
    lcf = [-5, -2, -4, 2, 5, -2, 2, 5, -2, -5, 4, 2]
    es = {edge(i, (i + 1) % 12) for i in range(12)}
    es |= {edge(i, (i + lcf[i]) % 12) for i in range(12)}
    g = Graph(12, es)
    assert regularity(g) == 3
    return g


def shrikhande():
    # Cayley graph of Z4 x Z4 on +-(1, 0), +-(0, 1), +-(1, 1): vertex-transitive,
    # and its root stabiliser splits the distance-2 vertices into orbits of 3
    # and 6, which colour refinement from the root alone does not separate
    steps = [(1, 0), (0, 1), (1, 1)]
    return Graph(16, {edge(4 * a + b, 4 * ((a + x) % 4) + (b + y) % 4)
                      for a in range(4) for b in range(4) for x, y in steps})


def advance(g, upto, r=0, decorate_last=True):
    """Drive the step loop up to layer `upto` (inclusive)."""
    state = initial_colouring(g, r)
    for i in range(1, upto + 1):
        colour_horizontal(state, i)
        if decorate_last or i < upto:
            assign_decorations(state, i)
    return state


def incident_edges(lay, i):
    """Slice i's incident edges: its back, forward and horizontal edges."""
    cls = lay.classes[i]
    return cls.back + cls.forward + cls.horizontal


def slice_colours(state, i):
    """Slice i's horizontal colours: the state's colouring on its horizontal edges."""
    return {e: state.colouring[e] for e in state.layering.classes[i].horizontal}


# -- layering -------------------------------------------------------------------


def test_build_layering_petersen():
    lay = build_layering(petersen(), 0)
    assert [len(s) for s in lay.layers] == [1, 3, 6]
    assert lay.reach == [1, 2, 2]
    assert lay.layers[0] == [0]
    # settled edge sets grow and absorb each layer's incident edges
    for i in range(lay.count):
        assert set(incident_edges(lay, i)) <= set(lay.settled_edges(i))
        if i:
            assert set(lay.settled_edges(i - 1)) <= set(lay.settled_edges(i))


def test_build_layering_complete5():
    lay = build_layering(complete(5), 0)
    assert [len(s) for s in lay.layers] == [1, 4]


def test_build_layering_cycle6():
    lay = build_layering(cycle(6), 0)
    assert lay.layers == [[0], [1, 5], [2, 4], [3]]


def test_build_layering_rejects_disconnected():
    from edgesym.graph import disjoint_union

    for g in (disjoint_union([cycle(3), cycle(3)]), disjoint_union([petersen(), cycle(4)])):
        for r in (0, g.n - 1):
            with pytest.raises(ValueError, match="layering requires a connected graph"):
                build_layering(g, r)


def test_layering_keeps_root_stabiliser_for_slice_one():
    # slice 1's uncoloured pointwise stabiliser (H1 orbits, and the persistent
    # group of a slice with no horizontal edges) is the root stabiliser that
    # build_layering computed; colour_preserve={} is the same constraint as None
    graphs = [g for g in connected_regular_upto(8) if g.n >= 2] + [petersen()]
    nontrivial = 0
    for g in graphs:
        for r in (0, g.n - 1):
            state = initial_colouring(g, r)
            lay = state.layering
            kept = lay.root_generators
            assert kept == pointwise_stabiliser_generators(g, [r])
            assert kept == pointwise_stabiliser_generators(g, [r], {})
            assert state.earlier_stabiliser(1) is kept
            assert state.earlier_stabiliser(1, {}) == kept
            if lay.count > 2:
                earlier = lay.earlier_vertices(2)
                assert state.earlier_stabiliser(2) == pointwise_stabiliser_generators(g, earlier)
            nontrivial += bool(kept)
    assert nontrivial > 40, nontrivial


def _chain_graphs():
    large = [parse_graph6(line) for line in (BENCH_DATA / "large.g6").read_text().split()]
    q4 = Graph(16, [(u, u ^ 1 << k) for u in range(16) for k in range(4)])
    crown = Graph(10, [(u, 5 + v) for u in range(5) for v in range(5) if u != v])
    return connected_regular_upto(8) + [petersen(), circulant(64, [1, 7]),
                                        complete_bipartite(4, 4), q4, crown] + large


def test_earlier_stabiliser_equals_a_fresh_chain():
    # on the n <= 8 catalogue, Petersen, C64(1,7), K_{4,4}, Q4, the crown
    # graph K_{5,5} minus a perfect matching and the benchmark's large
    # graphs, from the first and the last root, every slice's earlier
    # stabiliser, with the installed colours and without, is the chain
    # pointwise_stabiliser_generators runs, whether or not earlier_stabiliser
    # runs one; after the last slice each is asked for again from the last
    # back
    checked = nontrivial = 0
    for g, state, i in _stepped_states(_chain_graphs(), last_root=True):
        lay = state.layering
        if i == 0:
            continue
        colours = slice_colours(state, i)
        for j, c in [(i, colours), (i, None)] + [(j, None) for j in range(i, 0, -1)
                                                 if i == lay.count - 1]:
            gens = state.earlier_stabiliser(j, c)
            assert gens == pointwise_stabiliser_generators(g, lay.earlier_vertices(j), c), (
                g.edges, lay.root, j, c)
            checked += 1
            nontrivial += bool(gens)
    assert checked >= 1800 and nontrivial >= 200, (checked, nontrivial)


def test_no_slice_chain_runs_after_the_first_trivial_group(monkeypatch):
    # a slice's group lies in the one before it, so no chain runs after the
    # first slice whose group is trivial: on these random cubic graphs the
    # root stabiliser already is, and only the root chain, in
    # build_layering, runs. On C64(1,7) chains run up to that slice and
    # none after it
    import edgesym.aut as aut_module
    import edgesym.layered as layered_module

    chain = aut_module._chain_transversals
    started, states = [], []

    def counted(g, start_fixed, colour_preserve=None):
        started.append(len(start_fixed))
        return chain(g, start_fixed, colour_preserve)

    def kept(g, r):
        states.append(initial_colouring(g, r))
        return states[-1]

    monkeypatch.setattr(aut_module, "_chain_transversals", counted)
    monkeypatch.setattr(layered_module, "initial_colouring", kept)
    for s in (1, 2, 3):
        started.clear()
        colour_regular(random_regular(64, 3, s), verify=True)
        assert started == [1], (s, started)

    states.clear()
    started.clear()
    colour_regular(circulant(64, [1, 7]), verify=True)
    (state,) = states
    lay = state.layering
    groups = [lay.root_generators] + [state.persistent_gens[i] for i in range(1, lay.count)]
    first_trivial = groups.index([])
    slice_fixing = {len(lay.earlier_vertices(i)): i for i in range(1, lay.count)}
    assert started[0] == 1, started
    chained = [slice_fixing[k] for k in started[1:]]
    assert chained and max(chained) == first_trivial < lay.count - 1, (chained, first_trivial)


@pytest.mark.skipif(not hasattr(signal, "SIGALRM"), reason="needs signal.SIGALRM")
def test_verified_colouring_of_a_large_asymmetric_graph_is_near_linear(monkeypatch):
    # a random cubic graph on 4,096 vertices, guard raised: the construction
    # runs no slice chain, since every slice group is trivial, and each
    # refinement splits only the cells its splitters reach. It takes about
    # 0.25 s on a 2-core Xeon; with either half alone it took 8 s or more
    import edgesym.aut as aut_module

    monkeypatch.setattr(aut_module, "_MAX_SEARCH_N", 4096)
    g = random_regular(4096, 3, 1)

    def timeout(signum, frame):
        raise TimeoutError("a verified colouring of random_regular(4096, 3, 1) took over 2 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.setitimer(signal.ITIMER_REAL, 2.0)
    try:
        c = colour_regular(g, verify=True)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)
    assert c.is_total(g) and satisfies_blue_rule(g, c, False)


def test_layering_matches_brute_classification():
    # one pass over the edges against a classification of each edge from the
    # slices of its two ends, for every n <= 8 catalogue graph and Petersen
    # from the first and the last root
    graphs = [g for g in connected_regular_upto(8) if g.n >= 2] + [petersen()]
    layerings = 0
    for g in graphs:
        for r in (0, g.n - 1):
            lay = build_layering(g, r)
            k = lay.count
            assert sorted(v for layer in lay.layers for v in layer) == list(range(g.n))
            assert all(lay.layer_of[v] == i for i, layer in enumerate(lay.layers) for v in layer)
            at = lambda e: (lay.layer_of[e[0]], lay.layer_of[e[1]])  # noqa: E731
            touch = []
            for i, layer in enumerate(lay.layers):
                incident = [e for e in g.edges if i in at(e)]
                assert sorted(incident_edges(lay, i)) == incident
                cls = lay.classes[i]
                assert cls.horizontal == [e for e in incident if at(e) == (i, i)]
                assert cls.back == [e for e in incident if min(at(e)) < i]
                assert cls.forward == [e for e in incident if max(at(e)) > i]
                assert cls.components == _brute_components(layer, cls.horizontal)
                for v in layer:
                    own = [e for e in incident if v in e]
                    assert cls.h == sum(at(e) == (i, i) for e in own)
                    assert cls.b == sum(min(at(e)) < i for e in own)
                    assert cls.f == sum(max(at(e)) > i for e in own)
                assert i == 0 or cls.b > 0
                touch.append(max([i] + [max(at(e)) for e in incident]))
            assert lay.reach == [max(touch[: i + 1]) for i in range(k)]
            assert all(lay.reach[i] > i for i in range(k - 1))
            for i in range(k):
                settled = lay.settled_edges(i)
                assert len(settled) == len(set(settled))
                assert set(settled) == {e for e in g.edges if max(at(e)) <= lay.reach[i]}
                assert set(incident_edges(lay, i)) <= set(settled)
                if i:
                    assert lay.settled_edges(i - 1) == settled[: len(lay.settled_edges(i - 1))]
            layerings += 1
    assert layerings >= 60, layerings


def _brute_components(members, horizontal):
    # connected components of a slice's horizontal edges by a walk from each
    # unvisited member: sorted tuples, in sorted order
    adj = {v: set() for v in members}
    for u, v in horizontal:
        adj[u].add(v)
        adj[v].add(u)
    seen, comps = set(), []
    for v in members:
        if v in seen:
            continue
        comp, queue = {v}, [v]
        while queue:
            for w in adj[queue.pop()] - comp:
                comp.add(w)
                queue.append(w)
        seen |= comp
        comps.append(tuple(sorted(comp)))
    return sorted(comps)


def test_persistent_generators_set_by_colour_horizontal():
    # at every step, the generators colour_horizontal stores for slice i are
    # the pointwise stabiliser of the earlier slices preserving slice i's
    # horizontal colours, or the root generators at slice 1 with no colours
    graphs = connected_regular_upto(8) + [petersen()]
    steps = kept = 0
    for g in graphs:
        deg = regularity(g)
        if g.n <= 2 or deg == 2 or deg == g.n - 1:
            continue  # cycle and complete-graph branches have no layer steps
        state = initial_colouring(g, 0)
        lay = state.layering
        for i in range(1, lay.count):
            colour_horizontal(state, i)
            colours = slice_colours(state, i)
            gens = state.persistent_gens[i]
            if i == 1 and not colours:
                assert gens is lay.root_generators
                kept += 1
            else:
                assert gens == pointwise_stabiliser_generators(
                    g, lay.earlier_vertices(i), colours
                )
            assign_decorations(state, i)
            assert state.persistent_gens[i] is gens
            steps += 1
    assert steps >= 70 and kept >= 8, (steps, kept)


def test_classify_layer_examples():
    p = build_layering(petersen(), 0).classes[1]
    assert (p.f, p.b, p.h) == (2, 1, 0)
    c = build_layering(cycle(6), 0).classes[1]
    assert (c.f, c.b, c.h) == (1, 1, 0)
    k = build_layering(complete(5), 0).classes[1]
    assert (k.f, k.b, k.h) == (0, 1, 3)


# -- initial colouring -------------------------------------------------------------


def test_initial_colouring_cycle6():
    state = initial_colouring(cycle(6), 0)
    col = state.colouring
    assert col[(0, 1)] == BLUE and col[(0, 5)] == BLUE
    assert all(c == GREEN for e, c in col.items() if 0 not in e)
    assert check_step_properties(state, 0) == []


def test_initial_colouring_complete4():
    state = initial_colouring(complete(4), 0)
    counts = Counter(state.colouring.values())
    assert counts[BLUE] == 3 and counts[GREEN] == 3
    assert check_step_properties(state, 0) == []


# -- horizontal rules ---------------------------------------------------------------


def test_h0_leaves_state_unchanged():
    g = petersen()
    state = initial_colouring(g, 0)
    before = dict(state.colouring)
    colour_horizontal(state, 1)
    assert state.colouring == before
    assert state.audit[-1]["rule"] == "H0"


def test_matching_orbit_colours_half_bound():
    e1, e2 = (0, 1), (2, 3)
    out = _matching_orbit_colours([[e1, e2]])
    assert sorted(out.values()) == [GREEN, RED]
    out = _matching_orbit_colours([[(0, 1)]])
    assert out == {(0, 1): GREEN}
    out = _matching_orbit_colours([[(0, 1), (2, 3), (4, 5), (6, 7)]])
    counts = {}
    for c in out.values():
        counts[c] = counts.get(c, 0) + 1
    assert max(counts.values()) <= 2  # never more than half of four


def test_h1_on_prism_layer1():
    g = prism()
    state = advance(g, 1, decorate_last=False)
    # the layer {1,2} carries the single matching edge (1,2); its orbit under
    # the stabiliser of vertex 0 is a singleton, so it stays green
    assert state.audit[-1]["rule"] == "H1"
    assert slice_colours(state, 1) == {(1, 2): GREEN}


def test_h2plus_on_complete5_layer1():
    g = complete(5)
    state = advance(g, 1, decorate_last=False)
    assert state.audit[-1]["rule"] == "H2plus"
    horiz = slice_colours(state, 1)
    assert set(horiz) == {e for e in g.edges if 0 not in e}
    sub = Graph(5, list(horiz))
    comp_colouring = EdgeColouring(horiz)
    # installed colouring distinguishes the K4 component
    kept, labels = sub.induced([1, 2, 3, 4])
    relabel = {v: i for i, v in enumerate(labels)}
    inner = EdgeColouring(
        {(relabel[u], relabel[v]): comp_colouring[(u, v)] for u, v in horiz}
    )
    assert is_distinguishing(kept, inner)


def test_h2plus_on_octahedron():
    g = circulant(6, [1, 2])
    state = advance(g, 1, decorate_last=False)
    assert state.audit[-1]["rule"] == "H2plus"
    # layer 1 induces a 4-cycle; its recursive colouring breaks the component
    horiz = slice_colours(state, 1)
    assert len(horiz) == 4
    cyc, labels = Graph(6, list(horiz)).induced(state.layering.layers[1])
    relabel = {v: i for i, v in enumerate(labels)}
    assert is_distinguishing(
        cyc, EdgeColouring({edge(relabel[u], relabel[v]): c for (u, v), c in horiz.items()})
    )


# -- persistence ---------------------------------------------------------------------


def test_persistent_identity_always_exists():
    # the identity lies in every persistent group; once every vertex is fixed
    # it is the whole group, so no generator is listed
    g = petersen()
    state = advance(g, 1, decorate_last=False)
    colours = slice_colours(state, 1)
    c = AutConstraint({v: v for v in state.layering.earlier_vertices(1)},
                      colour_preserve=colours)
    assert constraint_holds_naive(g, c, Permutation.identity(g.n).images)
    assert pointwise_stabiliser_generators(g, range(g.n), colours) == []


def test_persistent_nontrivial_on_petersen_layer1():
    # every generator is a nontrivial persistent automorphism: it fixes the
    # root and preserves slice 1's (empty) horizontal colouring
    g = petersen()
    state = advance(g, 1, decorate_last=False)
    gens = state.persistent_gens[1]
    assert gens
    fixed = AutConstraint({0: 0}, colour_preserve=slice_colours(state, 1))
    for p in gens:
        assert p.images != tuple(range(g.n))
        assert constraint_holds_naive(g, fixed, p.images)


def test_persistent_absent_on_asymmetric_graph():
    g = frucht()
    assert len(automorphisms_by_backtracking(g)) == 1
    state = advance(g, 1, decorate_last=False)
    assert state.persistent_gens[1] == []


def _brute_persistent_group(g, state, i, automorphisms):
    # slice i's persistent group as the automorphisms that fix every earlier
    # slice pointwise and preserve slice i's horizontal colours
    c = AutConstraint({v: v for v in state.layering.earlier_vertices(i)},
                      colour_preserve=slice_colours(state, i))
    return [p for p in automorphisms if constraint_holds_naive(g, c, p)]


def _brute_component_orbits(state, i, group):
    # components grouped by whether a group element maps one onto the other
    orbits = []
    for comp in state.layering.classes[i].components:
        for orbit in orbits:
            rep = frozenset(orbit[0])
            if any(frozenset(p[v] for v in comp) == rep for p in group):
                orbit.append(comp)
                break
        else:
            orbits.append([comp])
    return orbits


def _brute_back_edges(state, i, sites, group):
    # a usable back edge is kept unless a group element moves a kept one onto it
    kept = []
    for e in sorted(state.layering.classes[i].back):
        if not (e[0] in sites or e[1] in sites) or state.colouring[e] == BLUE:
            continue
        if not any(edge(p[u], p[v]) == e for p in group for u, v in kept):
            kept.append(e)
    return kept


def _decoration_sets(d, p=None):
    # d's (component, forward red, back blue) sets, or their images under p
    if p is None:
        return frozenset(d.component), frozenset(d.forward_red), frozenset(d.back_blue)
    return (frozenset(p[v] for v in d.component),
            frozenset(edge(p[u], p[v]) for u, v in d.forward_red),
            frozenset(edge(p[u], p[v]) for u, v in d.back_blue))


def _brute_asymmetric(d, group):
    return not any(
        any(p[v] != v for v in d.component) and _decoration_sets(d, p) == _decoration_sets(d)
        for p in group
    )


def test_component_orbits_follow_crossed_generators():
    # a persistent map may carry one component onto another without carrying
    # its least vertex onto the other's least vertex: here (3 5) -> (6 4).
    # The two components still form one orbit
    g = parse_graph6("FFzvO")
    state = advance(g, 1, decorate_last=False)
    assert state.layering.classes[1].components == [(3, 5), (4, 6)]
    crossed = [Permutation((0, 1, 2, 6, 5, 4, 3))]
    assert _component_orbits(state, 1, crossed) == [[(3, 5), (4, 6)]]
    assert _component_orbits(state, 1, []) == [[(3, 5)], [(4, 6)]]


def test_h1_orbits_are_the_matching_edge_orbits():
    # on every H1 slice of the n <= 8 catalogue and Petersen, the matching
    # edges grouped by the earlier stabiliser's vertex orbits are their
    # orbits under that group enumerated by brute force, each sorted
    slices = merged = 0
    for g in connected_regular_upto(8) + [petersen()]:
        deg = regularity(g)
        if g.n <= 2 or deg == 2 or deg == g.n - 1:
            continue  # cycle and complete-graph branches have no layer steps
        automorphisms = automorphisms_by_backtracking(g)
        state = initial_colouring(g, 0)
        lay = state.layering
        for i in range(1, lay.count):
            if lay.classes[i].h != 1:
                continue
            fixed = AutConstraint({v: v for v in lay.earlier_vertices(i)})
            group = [p for p in automorphisms if constraint_holds_naive(g, fixed, p)]
            want = sorted({tuple(sorted({edge(p[u], p[v]) for p in group}))
                           for u, v in lay.classes[i].horizontal})
            got = _component_orbits(state, i, state.earlier_stabiliser(i))
            assert got == [list(o) for o in want], (g.n, sorted(g.edges), i)
            slices += 1
            merged += any(len(o) > 1 for o in got)
    assert (slices, merged) == (19, 2)


def test_orbit_answers_match_pairwise_searches():
    # at every step of the n <= 8 catalogue and Petersen, against pairwise
    # searches of the persistent group enumerated by brute force: the
    # persistent generators' orbits group the components, keep the decoration
    # back edges and answer asymmetry as the group does, and
    # decorations_similar agrees with the group on every pair of candidates
    # of the slice, trivial group or not. The similarity pairs also take in
    # every one- and two-edge red forward set at the sites, not only the
    # candidates' least ones, so a far end met by two sites is compared
    graphs = connected_regular_upto(8) + [petersen()]
    steps = trivial = back_pairs = grouped = 0
    compared = negative = on_nontrivial = on_nontrivial_h2 = 0
    pairs = similar_distinct = 0
    for g in graphs:
        deg = regularity(g)
        if g.n <= 2 or deg == 2 or deg == g.n - 1:
            continue  # cycle and complete-graph branches have no layer steps
        automorphisms = automorphisms_by_backtracking(g)
        state = initial_colouring(g, 0)
        for i in range(1, state.layering.count):
            colour_horizontal(state, i)
            group = _brute_persistent_group(g, state, i, automorphisms)
            orbits = _component_orbits(state, i, state.persistent_gens[i])
            assert orbits == _brute_component_orbits(state, i, group)
            grouped += any(len(o) > 1 for o in orbits)
            cands = []
            others = []
            for comp in state.layering.classes[i].components:
                sites = set(_decoration_sites(state, i, comp))
                kept = _decoration_back_edges(state, i, sites)
                assert kept == _brute_back_edges(state, i, sites, group)
                back_pairs += len(kept) >= 2
                cands += enumerate_decorations(state, i, comp)
                fwd = [e for e in state.layering.classes[i].forward if e[0] in sites or e[1] in sites]
                for k in (1, 2):
                    others += [Decoration(comp, f, ()) for f in itertools.combinations(fwd, k)]
            nontrivial = len(group) > 1
            assert nontrivial == bool(state.persistent_gens[i])
            for d in cands:
                asym = decoration_is_asymmetric(state, i, d)
                assert asym == _brute_asymmetric(d, group), (g.n, sorted(g.edges), i, d)
                compared += 1
                negative += not asym
                on_nontrivial += nontrivial
                on_nontrivial_h2 += nontrivial and state.layering.classes[i].h >= 2
            trivial += not nontrivial
            decs = list(dict.fromkeys(cands + others))
            orbit_of = {d: {_decoration_sets(d, p) for p in group} for d in decs}
            for d1, d2 in itertools.product(decs, repeat=2):
                want = _decoration_sets(d2) in orbit_of[d1]
                assert decorations_similar(state, i, d1, d2) == want, (
                    g.n, sorted(g.edges), i, d1, d2)
                pairs += 1
                similar_distinct += want and d1 != d2
            assign_decorations(state, i)
            steps += 1
    assert steps >= 70 and trivial >= 35 and back_pairs >= 35 and grouped >= 10, (
        steps, trivial, back_pairs, grouped)
    assert compared >= 400 and negative >= 10 and on_nontrivial >= 150, (
        compared, negative, on_nontrivial)
    assert on_nontrivial_h2 >= 8, on_nontrivial_h2
    assert pairs >= 9000 and similar_distinct >= 500, (pairs, similar_distinct)


# -- decorations ------------------------------------------------------------------


def test_enumerate_decorations_counts_petersen_layer1():
    g = petersen()
    state = advance(g, 1, decorate_last=False)
    comp = (1,)
    cands = enumerate_decorations(state, 1, comp)
    # f = 2 forward edges, back edge to the root is blue: shapes 0..2 of F, B empty
    assert len(cands) == 3
    assert Decoration(comp, (), ()) in cands
    sizes = sorted(len(d.forward_red) for d in cands)
    assert sizes == [0, 1, 2]


def test_enumerate_decorations_back_shapes_k33_layer2():
    g = complete_bipartite(3, 3)
    state = advance(g, 1)
    colour_horizontal(state, 2)
    from edgesym.colouring import RED as _R, GREEN as _G

    for v in state.layering.layers[2]:
        comp = (v,)
        cands = enumerate_decorations(state, 2, comp)
        backs = [e for e in state.layering.classes[2].back if v in e]
        b_r = sum(1 for e in backs if state.colouring[e] == _R)
        b_g = sum(1 for e in backs if state.colouring[e] == _G)
        # count formula: empty, one red single each, one pair per green pair
        assert len(cands) == 1 + b_r + b_g * (b_g - 1) // 2
    # vertex 2 carries one red and two green back edges: shapes 0, 1, 2
    cands = enumerate_decorations(state, 2, (2,))
    assert sorted(len(d.back_blue) for d in cands) == [0, 1, 2]


def test_decoration_asymmetric_single_vertex():
    g = petersen()
    state = advance(g, 1, decorate_last=False)
    for d in enumerate_decorations(state, 1, (1,)):
        assert decoration_is_asymmetric(state, 1, d)


def test_decoration_empty_not_asymmetric_with_swap():
    g = prism()
    state = advance(g, 1, decorate_last=False)
    comp = (1, 2)
    empty = Decoration(comp, (), ())
    assert not decoration_is_asymmetric(state, 1, empty)
    # decorating one forward edge kills the swap
    cands = enumerate_decorations(state, 1, comp)
    nonempty = [d for d in cands if d.forward_red]
    assert nonempty and all(decoration_is_asymmetric(state, 1, d) for d in nonempty)


def test_decoration_asymmetric_after_recursive_component():
    g = circulant(6, [1, 2])
    state = advance(g, 1, decorate_last=False)
    comp = tuple(state.layering.layers[1])
    for d in enumerate_decorations(state, 1, comp):
        assert decoration_is_asymmetric(state, 1, d)


def test_decorations_similar_basics():
    g = petersen()
    state = advance(g, 1, decorate_last=False)
    cands = enumerate_decorations(state, 1, (1,))
    assert decorations_similar(state, 1, cands[0], cands[0])
    for a in cands:
        for b in cands:
            if len(a.forward_red) != len(b.forward_red):
                assert not decorations_similar(state, 1, a, b)


def test_distinct_candidates_at_same_component_non_similar():
    g = complete_bipartite(5, 5)
    state = advance(g, 1)
    colour_horizontal(state, 2)
    comp = (state.layering.layers[2][1],)
    cands = enumerate_decorations(state, 2, comp)
    singles = [d for d in cands if len(d.back_blue) == 1]
    assert len(singles) >= 2
    for i, a in enumerate(singles):
        for b in singles[i + 1 :]:
            assert not decorations_similar(state, 2, a, b)


def rook3():
    # K3 x K3: vertex 3x + y, adjacent when one coordinate agrees
    return Graph(9, [(u, v) for u in range(9) for v in range(u + 1, 9)
                     if u // 3 == v // 3 or u % 3 == v % 3])


def test_similarity_sends_site_to_site_under_any_generating_set():
    # slice 1 of K3 x K3 is the matching (1 2), (3 6). Coloured alike, the
    # persistent group (the root stabiliser, order 8) carries each matching
    # edge onto the other both ways round. A decoration sits at its edge's
    # least vertex, so a similarity map must send site 1 to site 3; listing
    # first a generator that sends 1 to 6 must not change any answer
    g = rook3()
    state = advance(g, 1, decorate_last=False)
    assert state.layering.classes[1].components == [(1, 2), (3, 6)]
    state.colouring.update({(1, 2): RED, (3, 6): RED})
    group = _brute_persistent_group(g, state, 1, automorphisms_by_backtracking(g))
    assert len(group) == 8
    to_far_end = Permutation(next(p for p in group if p[1] == 6))
    decs = [Decoration(comp, f, ()) for comp, f in [
        ((1, 2), ()), ((1, 2), ((1, 4),)), ((1, 2), ((1, 7),)),
        ((3, 6), ()), ((3, 6), ((3, 4),)), ((3, 6), ((3, 5),)),
    ]]
    gens = state.earlier_stabiliser(1, slice_colours(state, 1))
    positive = 0
    for order in (gens, [to_far_end] + gens):
        state.persistent_gens[1] = order
        for d1, d2 in itertools.product(decs, repeat=2):
            want = _decoration_sets(d2) in {_decoration_sets(d1, p) for p in group}
            assert decorations_similar(state, 1, d1, d2) == want, (order, d1, d2)
            positive += want and d1.component != d2.component and bool(d1.forward_red)
    assert positive >= 4


def test_similarity_cost_on_large_persistent_groups():
    # slice 1 of K_{m,m} has no horizontal edges, so its persistent group is
    # S_{m-1} x S_m and the orbit of a decoration with s red forward edges
    # has m * C(m - 1, s) members; similarity must not list it. Colouring
    # K_{16,16} takes well under a second; listing the orbits, hours
    def timeout(signum, frame):
        raise TimeoutError("colouring K_{16,16} took over 60 s")

    old = signal.signal(signal.SIGALRM, timeout)
    signal.alarm(60)
    try:
        c = colour_regular(complete_bipartite(16, 16), verify=True)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    assert set(c.assignment.values()) <= {RED, GREEN, BLUE}


def test_assign_decorations_petersen_layer1():
    g = petersen()
    state = advance(g, 1)
    entries = [a for a in state.audit if a["layer"] == 1][0]["decorations"]
    assert len(entries) == 3  # one per neighbour of the root
    assert all(e["orbit_size"] == 3 for e in entries)
    assert all(e["asymmetric"] >= e["orbit_size"] for e in entries)
    # forward-red counts 0,1,2 tell the three root neighbours apart
    assert sorted(len(e["forward_red"]) for e in entries) == [0, 1, 2]


def test_assign_decorations_singleton_orbit_gets_empty():
    g = circulant(6, [1, 2])
    state = advance(g, 1)
    entries = [a for a in state.audit if a["layer"] == 1][0]["decorations"]
    assert len(entries) == 1
    assert entries[0]["orbit_size"] == 1
    assert entries[0]["forward_red"] == [] and entries[0]["back_blue"] == []


def test_assign_decorations_bounds_recorded_k55():
    g = complete_bipartite(5, 5)
    state = advance(g, 2)
    layer2 = [a for a in state.audit if a["layer"] == 2][0]["decorations"]
    # h=0 slice with several back edges: orbit bounded away from the degree
    assert all(e["orbit_size"] <= regularity(g) - 1 for e in layer2)
    assert all(e["asymmetric"] >= e["orbit_size"] for e in layer2)


# -- step properties ------------------------------------------------------------------


def test_check_step_properties_clean_on_petersen_run():
    g = petersen()
    state = initial_colouring(g, 0)
    assert check_step_properties(state, 0) == []
    for i in range(1, state.layering.count):
        state.colouring.written.clear()
        colour_horizontal(state, i)
        assign_decorations(state, i)
        assert check_step_properties(state, i) == []


def test_check_step_properties_detects_blue_escape():
    g = petersen()
    state = advance(g, 1)
    # a forward edge of layer 1 reaches layer 2: blue there is illegal
    cls = state.layering.classes[1]
    state.colouring[cls.forward[0]] = BLUE
    violations = check_step_properties(state, 1)
    assert any("blue edge" in v for v in violations)


def test_check_step_properties_detects_moved_layer():
    g = complete_bipartite(3, 3)
    state = advance(g, 2)
    # wiping the decorations of the last slice restores its symmetry
    cls = state.layering.classes[2]
    for e in cls.back:
        state.colouring[e] = GREEN
    violations = check_step_properties(state, 2)
    assert any("moves layer" in v for v in violations)


def _stepped_states(graphs, last_root=False):
    """(graph, state, i) after every step i of the layered construction, the
    initial colouring being step 0, on each graph that has layer steps, from
    root 0 and, with last_root, from root n - 1 too. The colouring's write
    log holds the writes of step i alone, as in the pipeline."""
    for g in graphs:
        deg = regularity(g)
        if g.n <= 2 or deg == 2 or deg == g.n - 1:
            continue  # cycle and complete-graph branches have no layer steps
        for r in (0, g.n - 1) if last_root else (0,):
            state = initial_colouring(g, r)
            yield g, state, 0
            for i in range(1, state.layering.count):
                state.colouring.written.clear()
                colour_horizontal(state, i)
                assign_decorations(state, i)
                yield g, state, i


MOVED = "a root-fixing map preserving the settled colouring moves layer {}"


def _settled_search(state, j):
    """The step check's search for slice j, run whatever the slice's size: a
    root-fixing map that preserves the settled colours and moves slice j."""
    lay = state.layering
    return find_automorphism(
        state.graph,
        AutConstraint(
            pinned={lay.root: lay.root},
            colour_preserve={e: state.colouring[e] for e in lay.settled_edges(j)},
            nontrivial_on=frozenset(lay.layers[j]),
        ),
    )


def _checked_moves(state, i):
    """The slice verdicts check_step_properties reports after step i."""
    return [v for v in check_step_properties(state, i) if v.startswith(MOVED.format(""))]


def _searched_moves(state, i):
    """The slice verdicts of a loop that searches every slice j <= i."""
    return [MOVED.format(j) for j in range(i + 1) if _settled_search(state, j) is not None]


def _rewritten(state, colours, through_update=False):
    """A copy of state, its colouring's write log and counts included, with
    colours written over its colouring through __setitem__, or through
    update."""
    col = StepColouring(state.colouring)
    col.written.update(state.colouring.written)
    if through_update:
        col.update(colours)
    else:
        for e, c in colours.items():
            col[e] = c
    return dataclasses.replace(state, colouring=col)


def test_step_check_skips_only_slices_the_root_stabiliser_fixes():
    # at every step of the n <= 8 catalogue, Petersen and the benchmark's
    # large graphs, the search on a one-vertex slice finds nothing, and the
    # step check reports what searching every slice reports; then on the
    # small graphs, an edge recoloured outside slice i that makes an earlier
    # slice movable is reported, and so is every other slice that moves
    small = connected_regular_upto(8) + [petersen()]
    large = [parse_graph6(line) for line in (BENCH_DATA / "large.g6").read_text().split()]
    one_vertex = {False: 0, True: 0}  # keyed by "on a large graph"
    multi_vertex = recoloured_moves = 0
    for g, state, i in _stepped_states(small + large):
        lay = state.layering
        on_large = any(g is h for h in large)
        for j in range(i + 1):
            if len(lay.layers[j]) == 1:
                assert _settled_search(state, j) is None, (g, i, j)
                one_vertex[on_large] += 1
            else:
                multi_vertex += 1
        assert _checked_moves(state, i) == _searched_moves(state, i)
        if on_large:
            continue
        for j in range(1, i):
            for e in sorted(set(lay.settled_edges(j)) - set(incident_edges(lay, i))):
                for c in (RED, GREEN, BLUE):
                    if c == state.colouring[e]:
                        continue
                    recoloured = _rewritten(state, {e: c})
                    if _settled_search(recoloured, j) is None:
                        continue
                    moves = _checked_moves(recoloured, i)
                    assert MOVED.format(j) in moves
                    assert moves == _searched_moves(recoloured, i)
                    recoloured_moves += 1
    assert one_vertex[False] >= 176 and one_vertex[True] >= 2892, one_vertex
    assert multi_vertex >= 93 and recoloured_moves >= 10, (multi_vertex, recoloured_moves)


def _scan_verdicts(state, i, previous):
    """The scan rules' verdicts after step i, once the step check's and the
    full scan's are seen to agree: the check reports the full scan's, then
    only slice verdicts."""
    got = check_step_properties(state, i)
    want = step_scan_violations(state, i, previous)
    assert got[:len(want)] == want, (state.graph.edges, i, got, want)
    assert all(v.startswith(MOVED.format("")) for v in got[len(want):]), (i, got)
    return want


def test_logged_step_check_matches_a_full_scan():
    # at every step of the n <= 8 catalogue, Petersen and the benchmark's
    # large graphs, checked in pipeline order, the step check reading the
    # write log reports what a scan of the whole colouring reports. After
    # each step i > 0, four faults are written through __setitem__ and
    # again through update, and both report each with the same text: a
    # recoloured edge outside slice i's incident edges, an untouched edge
    # turned red, a blue edge beyond slice i and a vertex left all blue
    small = connected_regular_upto(8) + [petersen()]
    large = [parse_graph6(line) for line in (BENCH_DATA / "large.g6").read_text().split()]
    faults = {"outside": 0, "untouched": 0, "blue": 0, "all-blue": 0}
    previous = None
    for g, state, i in _stepped_states(small + large):
        assert _scan_verdicts(state, i, previous if i else None) == []
        previous = dict(state.colouring)
        if i == 0:
            continue
        lay = state.layering
        slice_of = lay.layer_of
        outside = [e for e in g.edges if i not in (slice_of[e[0]], slice_of[e[1]])]
        untouched = [e for e in g.edges if min(slice_of[e[0]], slice_of[e[1]]) > i]
        cases = []
        if outside:
            e = outside[0]
            c = PALETTE[(PALETTE.index(state.colouring[e]) + 1) % 3]
            cases.append(("outside", {e: c}, f"colours changed outside the layer: [{e}]"))
        if untouched:
            e = untouched[0]
            cases.append(("untouched", {e: RED}, f"untouched edge {e} is red, not green"))
        if lay.classes[i].forward:
            e = lay.classes[i].forward[0]
            cases.append(("blue", {e: BLUE}, f"blue edge {e} escapes the settled region"))
        v = lay.layers[i][0]
        cases.append(("all-blue", {e: BLUE for e in g.edges if v in e}, "all-blue vertices"))
        for kind, colours, text in cases:
            for through_update in (False, True):
                faulty = _rewritten(state, colours, through_update)
                assert any(w.startswith(text) for w in _scan_verdicts(faulty, i, previous)), (
                    kind, through_update, g.edges, i)
            faults[kind] += 1
    assert min(faults.values()) >= 200, faults


def _labels_settled_by(state, j):
    """Each edge's label in the step check of slice j: its colour once slice
    j settles it, else one label of its own ("", below every colour)."""
    settled = set(state.layering.settled_edges(j))
    return [state.colouring[e] if e in settled else "" for e in state.graph.edges]


def _blocks(cells):
    return sorted(sorted(v for v in range(c.bit_length()) if c >> v & 1) for c in cells)


def test_carried_step_cells_equal_a_refinement_from_the_slices():
    # at every step i of the n <= 8 catalogue, Petersen, the benchmark's
    # large graphs, C16/C32(1,7) and the Shrikhande graph, _settled_cells
    # yields exactly the slices j <= i of two or more vertices, each with the
    # partition that whole rounds of refinement from the slices give under
    # slice j's labels. On graphs of at most 10 vertices each settled edge
    # is also recoloured in turn, which leaves some slices undecided.
    # The initial colouring is checked at every slice: on the Shrikhande
    # graph it leaves the root's slices of 3 and 6 vertices at distance 2 in
    # one cell when refined from {root, rest} instead
    small = connected_regular_upto(8) + [petersen(), shrikhande()]
    large = [parse_graph6(line) for line in (BENCH_DATA / "large.g6").read_text().split()]
    circulants = [circulant(16, [1, 7]), circulant(32, [1, 7])]
    compared = undecided = 0
    for g, state, i in _stepped_states(small + large + circulants):
        lay = state.layering
        if i == 0:
            i = lay.count - 1
        seed = [lay.layer_of[v] for v in range(g.n)]
        states = [state]
        if g.n <= 10:
            for e in lay.settled_edges(i):
                c = PALETTE[(PALETTE.index(state.colouring[e]) + 1) % 3]
                states.append(dataclasses.replace(state, colouring={**state.colouring, e: c}))
        for s in states:
            yielded = list(_settled_cells(s, i))
            assert [j for j, *_ in yielded] == [j for j in range(i + 1) if len(lay.layers[j]) > 1]
            for j, cells, loose in yielded:
                ids = equitable_cells_by_rounds(g, [], _labels_settled_by(s, j), seed)
                want = sorted(sorted(v for v in range(g.n) if ids[v] == c) for c in set(ids))
                assert _blocks(cells) == want, (g.edges, i, j)
                assert loose == [v for v in lay.layers[j] if ids.count(ids[v]) > 1], (g.edges, i, j)
                compared += 1
                undecided += any(x & (x - 1) and x & sum(1 << v for v in lay.layers[j])
                                 for x in cells)
    assert compared >= 1600 and undecided >= 100, (compared, undecided)


def test_carried_step_cells_are_unions_of_orbits():
    # at n <= 8, every map of the brute-force automorphism group that fixes
    # the root and preserves slice j's labels maps each carried cell onto
    # itself, after every step and with each settled edge recoloured in turn
    checked = moved = 0
    for g in connected_regular_upto(8):
        perms = None
        index = {e: k for k, e in enumerate(g.edges)}
        for _, state, i in _stepped_states([g]):
            if perms is None:
                perms = [p for p in automorphisms_by_backtracking(g) if p[0] == 0]
            lay = state.layering
            states = [state] + [
                dataclasses.replace(state, colouring={**state.colouring, e: c})
                for e in lay.settled_edges(i) for c in PALETTE if c != state.colouring[e]]
            for s in states:
                for j, cells, _ in _settled_cells(s, i):
                    labels = _labels_settled_by(s, j)
                    for p in perms:
                        if all(labels[index[edge(p[u], p[v])]] == labels[k]
                               for k, (u, v) in enumerate(g.edges)):
                            for x in cells:
                                assert sum(1 << p[v] for v in range(g.n) if x >> v & 1) == x
                            moved += p != tuple(range(g.n))
                    checked += 1
    assert checked >= 2700 and moved >= 500, (checked, moved)


def test_step_cells_carried_across_steps_follow_recolourings():
    # one state per graph, stepped as the pipeline steps it. After a clean
    # check at step i, an edge settled by the first multi-vertex slice and
    # one first settled by the last (on graphs of at most 10 vertices each
    # such edge in turn) is recoloured through the colouring and then
    # restored. After each write the carried partitions equal whole rounds
    # of refinement from the slices under the labels of that moment. A
    # carry that kept partitions whose settled edges changed colour, or
    # that compared the colours of only some of them, would fail here
    graphs = connected_regular_upto(8) + [petersen(), circulant(16, [1, 7]), circulant(32, [1, 7])]
    compared = changed = 0
    for g, state, i in _stepped_states(graphs):
        lay = state.layering
        multi = [j for j in lay.multi_slices if j <= i]
        assert check_step_properties(state, i) == [], (g.edges, i)
        if not multi:
            continue
        seed = [lay.layer_of[v] for v in range(g.n)]
        clean = [_blocks(cells) for _, cells, _ in _settled_cells(state, i)]
        first = lay.settled_edges(multi[0])
        last = lay.settled_edges(multi[-1])[len(lay.settled_edges(multi[-2])) if multi[1:] else 0:]
        picked = first + last if g.n <= 10 else first[i % len(first):][:1] + last[-1:]
        for e in dict.fromkeys(picked):
            old = state.colouring[e]
            for c in (PALETTE[(PALETTE.index(old) + 1) % 3], old):
                state.colouring[e] = c
                yielded = list(_settled_cells(state, i))
                assert [j for j, *_ in yielded] == multi
                for j, cells, loose in yielded:
                    ids = equitable_cells_by_rounds(g, [], _labels_settled_by(state, j), seed)
                    want = sorted(sorted(v for v in range(g.n) if ids[v] == x) for x in set(ids))
                    assert _blocks(cells) == want, (g.edges, i, j, e, c)
                    assert loose == [v for v in lay.layers[j] if ids.count(ids[v]) > 1]
                    compared += 1
                changed += c != old and [_blocks(cells) for _, cells, _ in yielded] != clean
    assert compared >= 2500 and changed >= 100, (compared, changed)


def test_step_checks_refine_once_per_multi_vertex_slice(monkeypatch):
    # C_n(1,7) has n / 2 - 1 slices of two vertices. Refining from the
    # first of them at every step cost 527 refinements at n = 64 and 2,075
    # at n = 128; carried from step to step it is one per slice
    import edgesym.aut as aut_module
    import edgesym.layered as layered_module

    inside, calls = [False], [0]
    refine = layered_module._equitable_cells

    def counted(*args):
        calls[0] += inside[0]
        return refine(*args)

    def step_checks(*args):
        inside[0] = True
        try:
            return check_step_properties(*args)
        finally:
            inside[0] = False

    monkeypatch.setattr(layered_module, "_equitable_cells", counted)
    monkeypatch.setattr(layered_module, "check_step_properties", step_checks)
    colour_regular(circulant(64, [1, 7]), verify=True)
    assert calls == [31]
    monkeypatch.setattr(aut_module, "_MAX_SEARCH_N", 128)
    calls[0] = 0
    colour_regular(circulant(128, [1, 7]), verify=True)
    assert calls == [63]


# SHA-256 of colour_regular(verify=True) on C64(1,7): its colouring and audit
# trail, as test_colourings_and_audits_match_pinned_digest hashes them
C64_1_7_SHA256 = "ce05c3d6a89f2a3fee141145c74d1058ba9d027b07829fe56a82e2d6706c0925"


def test_step_checks_on_c64_1_7_make_no_search(monkeypatch):
    # the root stabiliser of C64(1,7) has order 2, so every slice but two has
    # two vertices, and step i checks every slice j <= i. Refining afresh per
    # slice cost 527 find_automorphism calls and as many refinements (560
    # over the whole run); the carried cells decide every slice alone, with
    # no aut._levels walk
    import edgesym.aut as aut_module
    import edgesym.layered as layered_module

    inside = [False]
    calls = {"_levels": 0, "find_automorphism": 0}

    def counted(module, name):
        f = getattr(module, name)

        def wrapped(*args, **kwargs):
            calls[name] += inside[0]
            return f(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapped)

    def step_checks(*args):
        inside[0] = True
        try:
            return check_step_properties(*args)
        finally:
            inside[0] = False

    counted(aut_module, "_levels")
    counted(layered_module, "find_automorphism")
    monkeypatch.setattr(layered_module, "check_step_properties", step_checks)
    audit = []
    c = colour_regular(circulant(64, [1, 7]), verify=True, audit=audit)
    assert calls == {"_levels": 0, "find_automorphism": 0}
    digest = hashlib.sha256(json.dumps([c.to_json(), audit], sort_keys=True).encode())
    assert digest.hexdigest() == C64_1_7_SHA256


# -- the headline operation -------------------------------------------------------------


# SHA-256 over the colourings and audit trails of colour_regular(verify=True)
# on the benchmark corpus; output is part of the contract, so a deliberate
# change to it updates this digest and says why
OUTPUT_CONTRACT_SHA256 = "3358830ad2ce78ed742b90e6ccbe3a3063b55ea84b8ec70ad046d127380c7f2e"


def test_colourings_and_audits_match_pinned_digest():
    h = hashlib.sha256()
    for name in ("corpus.g6", "large.g6"):
        for line in (BENCH_DATA / name).read_text().split():
            audit = []
            try:
                c = colour_regular(parse_graph6(line), verify=True, audit=audit)
            except NotColourableError:
                h.update(b"K2-refused")
                continue
            h.update(json.dumps([c.to_json(), audit], sort_keys=True).encode())
    assert h.hexdigest() == OUTPUT_CONTRACT_SHA256


def test_colour_regular_k2_not_colourable():
    with pytest.raises(NotColourableError):
        colour_regular(complete(2))


def test_colour_regular_rejects_bad_inputs():
    with pytest.raises(ValueError):
        colour_regular(complete_bipartite(2, 4))  # not regular
    from edgesym.graph import disjoint_union

    with pytest.raises(ValueError):
        colour_regular(disjoint_union([cycle(3), cycle(3)]))


@pytest.mark.parametrize("g", [cycle(6), complete(5), petersen()], ids=["cycle", "complete", "petersen"])
@pytest.mark.parametrize("root", [99, -1])
def test_colour_regular_rejects_root_out_of_range(g, root):
    with pytest.raises(ValueError, match="outside vertex range"):
        colour_regular(g, root=root)


def test_colour_regular_single_vertex():
    assert colour_regular(Graph(1)).assignment == {}


def test_colour_regular_petersen_verified():
    g = petersen()
    c = colour_regular(g, verify=True)
    assert is_distinguishing(g, c)
    assert c.colours_used() <= {RED, GREEN, BLUE}
    assert satisfies_blue_rule(g, c, False)


def test_colour_regular_circulant_root_all_blue():
    for n in (12, 14):
        g = circulant(n, [1, 2, 3])
        c = colour_regular(g, verify=True)
        assert all_blue_vertices(g, c) == [0]
        assert is_distinguishing(g, c)


def test_colour_regular_complete_no_all_blue():
    for n in (3, 4, 5, 6, 7):
        g = complete(n)
        c = colour_regular(g)
        assert all_blue_vertices(g, c) == []
        assert is_distinguishing(g, c)


def test_colour_regular_cycles():
    for n in (3, 4, 5, 6, 9):
        g = cycle(n)
        c = colour_regular(g)
        assert is_distinguishing(g, c)
        assert len(c.colours_used()) <= 3


def test_colour_regular_deterministic():
    g = petersen()
    assert colour_regular(g).assignment == colour_regular(g).assignment
    g2 = circulant(10, [1, 2, 5])
    assert colour_regular(g2).assignment == colour_regular(g2).assignment


def test_colour_regular_root_override():
    g = petersen()
    c0 = colour_regular(g, root=0)
    c3 = colour_regular(g, root=3)
    assert all_blue_vertices(g, c0) == [0]
    assert all_blue_vertices(g, c3) == [3]


def test_colour_regular_degree5_strict_path():
    g = complete_bipartite(5, 5)
    audit = []
    c = colour_regular(g, verify=True, audit=audit)
    assert is_distinguishing(g, c)
    assert satisfies_blue_rule(g, c, False)


def test_colour_regular_frucht():
    g = frucht()
    c = colour_regular(g, verify=True)
    assert is_distinguishing(g, c)


def test_verification_ladders_are_pruned_at_the_root(monkeypatch):
    # On nearly asymmetric graphs, the step checks' carried cells decide
    # every slice, and label-aware refinement from the final colouring alone
    # (the final check) leaves every probe in a cell of its own, so neither
    # makes a kernel search: 0 on these six graphs, against 287 for the
    # unpruned ladders. A refinement that ignores colours stays sound, so
    # only this count catches it: it leaves the final check's cell whole.
    import edgesym.layered as layered_module
    from edgesym import kernel

    where = [None]
    searches = {"step": 0, "final": 0}
    search = kernel.search_mapping

    def counted(query, masks):
        if where[0] is not None:
            searches[where[0]] += 1
        return search(query, masks)

    def inside(tag, f):
        def wrapped(*args):
            where[0] = tag
            try:
                return f(*args)
            finally:
                where[0] = None

        return wrapped

    monkeypatch.setattr(kernel, "search_mapping", counted)
    monkeypatch.setattr(
        layered_module, "check_step_properties", inside("step", check_step_properties)
    )
    monkeypatch.setattr(
        layered_module, "is_distinguishing", inside("final", is_distinguishing)
    )
    for n, d, seed in [(16, 3, 1), (16, 5, 3), (24, 4, 1), (24, 5, 1), (32, 3, 5), (32, 5, 1)]:
        colour_regular(random_regular(n, d, seed=seed), verify=True)
    assert searches["step"] + searches["final"] <= 5, searches
