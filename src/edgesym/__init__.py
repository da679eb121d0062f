"""edgesym: symmetry-breaking edge colourings for finite graphs.

The package root re-exports the documented library API and the types and
errors it takes or raises. Everything else is imported from its module:
  graph          -- Graph type, graph6 I/O, standard generators
  aut            -- constrained automorphism search, orbits, group order
  colouring      -- EdgeColouring over {red, green, blue}
  distinguishing -- exact distinguishing index, witness searches, corpus scan
  layered        -- constructive 3-colour procedure for regular graphs
  catalog        -- exhaustive small regular-graph catalogues
  cli            -- command-line interface
"""

from .graph import Graph, parse_graph6, petersen, serialize_graph6
from .aut import AutConstraint, ConstraintError, SizeGuardError, find_automorphism
from .colouring import EdgeColouring
from .distinguishing import (
    NOT_DISTINGUISHABLE,
    BudgetExceededError,
    MaxColoursExceededError,
    distinguishing_index,
    is_distinguishing,
)
from .layered import NotColourableError, VerificationError, colour_regular

__version__ = "0.1.0"
