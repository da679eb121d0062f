import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgesym.colouring import BLUE, GREEN, RED, ColouringError, EdgeColouring, all_blue_vertices
from edgesym.graph import (
    Graph,
    GraphError,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    distances_from,
    edge,
    is_connected,
    parse_graph6,
    petersen,
    random_regular,
    regularity,
    serialize_graph6,
    spider,
)

from oracles import distances_by_deque_bfs, encode_graph6_reference


def test_edge_canonical_order():
    assert edge(3, 1) == (1, 3)
    with pytest.raises(GraphError):
        edge(2, 2)


def test_edge_colouring_keys_are_canonical():
    c = EdgeColouring({(2, 1): RED, (0, 3): GREEN})
    assert sorted(c.assignment) == [(0, 3), (1, 2)]
    assert c[(1, 2)] == RED and c[(3, 0)] == GREEN
    with pytest.raises(GraphError):
        EdgeColouring({(1, 1): RED})
    with pytest.raises(ColouringError):
        EdgeColouring({(0, 1): "mauve"})


def test_edge_colouring_on_graph_matches_mapping_form():
    g = cycle(5)
    cols = [RED, GREEN, BLUE, RED, GREEN]
    c = EdgeColouring.on_graph(g, cols)
    assert c.edges is g.edges  # shared, not copied
    d = EdgeColouring({(v, u): col for (u, v), col in reversed(list(zip(g.edges, cols)))})
    assert c == d and c.assignment == d.assignment == dict(zip(g.edges, cols))
    assert c.is_total(g) and d.is_total(g) and len(c) == 5
    assert c.get((4, 0)) == GREEN and c.get((0, 2)) is None and (0, 2) not in c
    assert c.colours_used() == {RED, GREEN, BLUE} and Counter(col for _, col in c.items())[RED] == 2
    assert c.to_json() == d.to_json() and EdgeColouring.from_json(c.to_json()) == c
    with pytest.raises(KeyError):
        c[(0, 2)]
    with pytest.raises(ColouringError):
        EdgeColouring.on_graph(g, cols[:4])
    with pytest.raises(ColouringError):
        EdgeColouring.on_graph(g, cols[:4] + ["mauve"])


def test_all_blue_vertices_reads_mappings_and_partial_colourings():
    g = cycle(4)  # edges (0,1) (0,3) (1,2) (2,3)
    col = {(0, 1): BLUE, (0, 3): BLUE, (1, 2): RED, (2, 3): BLUE}
    assert all_blue_vertices(g, col) == [0, 3]
    assert all_blue_vertices(g, EdgeColouring(col)) == [0, 3]
    # an uncoloured incident edge is not blue
    assert all_blue_vertices(g, EdgeColouring({(0, 1): BLUE, (0, 3): BLUE})) == [0]
    assert all_blue_vertices(Graph(3), {}) == []


def test_graph_basics():
    g = Graph(4, [(0, 1), (2, 1), (3, 0)])
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert g.neighbours(1) == [0, 2]
    assert g.degree(0) == 2
    assert g.has_edge(1, 0) and not g.has_edge(2, 3)


def test_graph_rejects_out_of_range():
    with pytest.raises(GraphError):
        Graph(3, [(0, 3)])


def _vertex_pairs(n):
    vertex = st.integers(0, max(n - 1, 0))
    return st.tuples(st.just(n), st.sets(st.tuples(vertex, vertex)))


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 12).flatmap(_vertex_pairs))
def test_from_masks_equals_edge_constructor(data):
    n, pairs = data
    g = Graph(n, [(u, v) for u, v in pairs if u != v])
    h = Graph.from_masks([g.adjacency_mask(v) for v in range(n)])
    assert h.n == g.n and h.edges == g.edges and h._adj == g._adj
    assert h == g and hash(h) == hash(g)


@pytest.mark.parametrize("masks", [[0b10, 0b00], [0b00, 0b01], [0b01], [0b100, 0b000], [-1, 0]])
def test_from_masks_rejects_inconsistent_masks(masks):
    with pytest.raises(GraphError):
        Graph.from_masks(masks)


# graph6 values hand-checked against the published format definition and the
# independent reference encoder in oracles.py


def test_parse_graph6_k2():
    g = parse_graph6("A_")
    assert g.n == 2 and g.edges == ((0, 1),)
    assert encode_graph6_reference(2, [(0, 1)]) == "A_"


def test_parse_graph6_k3():
    g = parse_graph6("Bw")
    assert g.n == 3 and g.edge_count == 3
    assert encode_graph6_reference(3, [(0, 1), (0, 2), (1, 2)]) == "Bw"


def test_parse_graph6_single_vertex():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count == 0


def test_serialize_graph6_matches_reference():
    for g in [complete(2), complete(3), petersen(), cycle(7), complete_bipartite(2, 4)]:
        assert serialize_graph6(g) == encode_graph6_reference(g.n, g.edges)


def test_parse_graph6_errors():
    with pytest.raises(GraphError):
        parse_graph6("")
    with pytest.raises(GraphError):
        parse_graph6("B")  # truncated bit field
    with pytest.raises(GraphError):
        parse_graph6("A" + chr(20))  # outside printable alphabet
    with pytest.raises(GraphError, match="at most 258047 vertices"):
        serialize_graph6(Graph(258048))
    with pytest.raises(GraphError, match="at most 258047 vertices"):
        parse_graph6("~~???~??")  # the 36-bit header, here for n = 258048
    with pytest.raises(GraphError, match="n=258047 needs"):
        parse_graph6("~}~~")  # the largest long header, with no bit field
    with pytest.raises(GraphError, match="truncated long graph6 header"):
        parse_graph6("~??")
    # one graph, one string: the long header is only for n >= 63
    with pytest.raises(GraphError, match="use the short form '\\?'"):
        parse_graph6("~???")
    with pytest.raises(GraphError, match="n=62: .* short form '}'"):
        parse_graph6("~??}" + "?" * 316)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_graph6_round_trip(data):
    n = data.draw(st.integers(min_value=0, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    g = Graph(n, chosen)
    assert parse_graph6(serialize_graph6(g)) == g


def test_graph6_round_trip_at_size_cap():
    g = random_regular(62, 3, seed=5)
    assert parse_graph6(serialize_graph6(g)) == g
    # the last short header and the first long one
    for g in (random_regular(62, 4, seed=5), random_regular(63, 4, seed=5)):
        s = serialize_graph6(g)
        assert s[0] == ("~" if g.n == 63 else "}") and parse_graph6(s) == g


@pytest.mark.parametrize("n", [63, 64, 100])
def test_graph6_long_form_matches_networkx(n):
    nx = pytest.importorskip("networkx")
    for g in (random_regular(n, 4, seed=n), Graph(n), complete(n)):
        h = nx.Graph()
        h.add_nodes_from(range(n))
        h.add_edges_from(g.edges)
        s = serialize_graph6(g)
        assert s.encode() == nx.to_graph6_bytes(h, header=False).rstrip(b"\n")
        assert s[0] == "~" and parse_graph6(s) == g


def test_generators_shapes():
    k4 = complete(4)
    assert k4.n == 4 and k4.edge_count == 6 and regularity(k4) == 3
    p = petersen()
    assert p.n == 10 and p.edge_count == 15 and regularity(p) == 3
    b = complete_bipartite(2, 4)
    assert b.n == 6 and b.edge_count == 8
    assert regularity(b) is None
    assert regularity(cycle(5)) == 2


def test_circulant():
    g = circulant(8, [1, 2])
    assert regularity(g) == 4 and is_connected(g)
    assert circulant(6, [3]).edge_count == 3  # half steps pair up
    with pytest.raises(GraphError):
        circulant(5, [0])


def test_spider():
    g = spider([1, 2, 3])
    assert g.n == 7 and g.edge_count == 6
    assert sorted(g.degree(v) for v in g.vertices()) == [1, 1, 1, 2, 2, 2, 3]


def test_distances_and_connectivity():
    assert [distances_from(cycle(6), 0)[v] for v in range(6)] == [0, 1, 2, 3, 2, 1]
    two_triangles = disjoint_union([cycle(3), cycle(3)])
    assert not is_connected(two_triangles)
    assert max(distances_from(petersen(), 0).values()) == 2


def test_distances_match_a_queue_bfs_on_random_graphs():
    # G(n, p) for n <= 40 from sparse (mostly disconnected) to dense, every
    # root: the frontier-mask search gives the queue search's distances, and
    # is_connected says whether vertex 0 reaches every vertex
    rng = random.Random(11)
    disconnected = 0
    for _ in range(300):
        n = rng.randint(1, 40)
        p = rng.choice([0.02, 0.05, 0.1, 0.2, 0.5])
        g = Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
        for r in range(n):
            assert distances_from(g, r) == distances_by_deque_bfs(g, r), (g.edges, r)
        connected = len(distances_by_deque_bfs(g, 0)) == n
        assert is_connected(g) == connected
        disconnected += not connected
    assert 50 <= disconnected <= 250, disconnected
    assert is_connected(Graph(0)) and is_connected(Graph(1))
    assert distances_from(Graph(1), 0) == distances_by_deque_bfs(Graph(1), 0) == {0: 0}
    for r in (-1, 0):
        with pytest.raises(GraphError):
            distances_from(Graph(0), r)


def test_random_regular_reproducible():
    g1 = random_regular(10, 3, seed=7)
    g2 = random_regular(10, 3, seed=7)
    assert g1 == g2
    assert regularity(g1) == 3
    assert random_regular(10, 3, seed=8) != g1


def test_random_regular_infeasible():
    with pytest.raises(GraphError):
        random_regular(5, 3, seed=1)  # odd sum
    with pytest.raises(GraphError):
        random_regular(4, 4, seed=1)  # d >= n


def test_regularity_of_generator_outputs():
    cases = [
        (complete(6), 5),
        (cycle(9), 2),
        (petersen(), 3),
        (circulant(10, [1, 2, 3]), 6),
        (complete_bipartite(4, 4), 4),
    ]
    for g, d in cases:
        assert regularity(g) == d
        assert is_connected(g)
