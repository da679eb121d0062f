"""edgesym: symmetry-breaking edge colourings for finite graphs.

Core surfaces:
  graph          -- Graph type, graph6 I/O, standard generators
  aut            -- constrained automorphism search, orbits, group order
  colouring      -- EdgeColouring over {red, green, blue}
  distinguishing -- exact distinguishing index, witness searches, corpus scan
  layered        -- constructive 3-colour procedure for regular graphs
  catalog        -- exhaustive small regular-graph catalogues
  cli            -- command-line interface
"""

from .graph import (
    Edge,
    Graph,
    GraphError,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    disjoint_union,
    distances_from,
    edge,
    girth,
    is_connected,
    parse_graph6,
    path,
    petersen,
    random_regular,
    read_graph6_lines,
    regularity,
    serialize_graph6,
    spider,
)
from .aut import (
    AutConstraint,
    ConstraintError,
    Permutation,
    SizeGuardError,
    all_automorphisms,
    automorphism_generators,
    edge_orbits,
    find_automorphism,
    find_isomorphism,
    group_order,
    is_isomorphic,
    pointwise_stabiliser_generators,
    stabiliser_generators,
    vertex_orbits,
)
from .colouring import (
    BLUE,
    GREEN,
    PALETTE,
    RED,
    ColouringError,
    EdgeColouring,
    all_blue_vertices,
    satisfies_blue_rule,
)
from .distinguishing import (
    NOT_DISTINGUISHABLE,
    BudgetExceededError,
    ChordlessPathError,
    MaxColoursExceededError,
    ScanReport,
    cycle_colouring,
    distinguishing_index,
    distinguishing_index_with_witness,
    hamiltonian_colouring,
    hamiltonian_path,
    is_distinguishing,
    scan_conjecture,
    search_colouring,
)
from .layered import (
    DecorationShortageError,
    NotColourableError,
    VerificationError,
    colour_regular,
)
from .catalog import connected_regular_graphs, connected_regular_upto, regular_graphs

__version__ = "0.1.0"
