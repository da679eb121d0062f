"""README states the bounds and the query fields the code has."""

import dataclasses
import inspect
import re
from pathlib import Path

from edgesym import aut, graph, layered

README = Path(__file__).resolve().parents[1] / "README.md"


def _size_limits() -> dict[int, str]:
    """The table's rows as {n bound: where it applies}."""
    section = README.read_text().split("\n## Size limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| n ≤ ")]
    return {int(bound.removeprefix(" n ≤ ")): where for bound, where in rows}


def test_readme_size_limits_match_the_code():
    limits = _size_limits()
    assert sorted(limits) == sorted([graph._G6_MAX_N, aut._MAX_SEARCH_N])
    assert "graph6" in limits[graph._G6_MAX_N]
    assert "SizeGuardError" in limits[aut._MAX_SEARCH_N]


def test_readme_constraint_fields_match_the_code():
    # "`AutConstraint` has four fields: `pinned` (...), ... and `nontrivial_on` (...)."
    sentence = README.read_text().split("`AutConstraint` has ", 1)[1].split(").", 1)[0]
    count, listed = sentence.split(" fields: ", 1)
    named = re.findall(r"`(\w+)` \(", listed)
    assert named == [f.name for f in dataclasses.fields(aut.AutConstraint)]
    assert count == ("one", "two", "three", "four", "five", "six")[len(named) - 1]


def test_readme_stage_signatures_match_the_code():
    # "The stage functions of `edgesym.layered` take the step state alone:
    # `colour_horizontal(state, i, verify=False, budget=DEFAULT_BUDGET)`, ...
    # and `check_step_properties(state, i)`, where ..."
    text = " ".join(README.read_text().split())
    sentence = text.split("The stage functions of `edgesym.layered` take the step state alone: ",
                          1)[1].split(", where ", 1)[0]
    calls = re.findall(r"`(\w+)\(([^`]*)\)`", sentence)
    assert len(calls) == 6
    for name, params in calls:
        written = [p.split("=") for p in params.split(", ")]
        parameters = inspect.signature(getattr(layered, name)).parameters
        assert [w[0] for w in written] == list(parameters), name
        for w, p in zip(written, parameters.values()):
            default = eval(w[1], vars(layered)) if len(w) == 2 else inspect.Parameter.empty
            assert p.default == default, (name, p.name)
