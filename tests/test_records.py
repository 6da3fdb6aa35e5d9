"""The value records: construction, repr, equality, hash and immutability.

``Graph``, ``GammaVector`` and ``FamilySpec`` are named tuples, so a
record equals, hashes and orders as the tuple of its fields, and its
repr is ``Name(field=value, ...)``; the repr strings below were recorded
before the records became named tuples, so that text is pinned across
the change.  ``GammaVector`` derives ``first_negative`` and ``passed``
from its entries, so neither is a field or part of its repr.
"""

from __future__ import annotations

import pytest

from nestohedra import (
    FamilySpec,
    GammaVector,
    Graph,
    path_graph,
    star_graph,
)

# (build one record, build an unequal one, a field name, the repr)
FROZEN = {
    "Graph": (
        lambda: path_graph(3),
        lambda: star_graph(2),
        "adj",
        "Graph(adj=(2, 5, 2))",
    ),
    "GammaVector": (
        lambda: GammaVector(2, (1, 2)),
        lambda: GammaVector(2, (1, -2)),
        "gammas",
        "GammaVector(n=2, gammas=(1, 2))",
    ),
    "FamilySpec": (
        lambda: FamilySpec("demo", 1, max, min, pow),
        lambda: FamilySpec(id="demo", offset=1, member=max, graph_at=max, nodes_at=pow),
        "offset",
        "FamilySpec(id='demo', offset=1, "
        "member=<built-in function max>, graph_at=<built-in function min>, "
        "nodes_at=<built-in function pow>)",
    ),
}


@pytest.mark.parametrize("name", FROZEN)
def test_frozen_records_are_values(name: str) -> None:
    make, make_other, field, text = FROZEN[name]
    a, b, other = make(), make(), make_other()
    assert a is not b
    assert repr(a) == text
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert a != other
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(other, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert a == b


def test_graphs_order_by_their_masks() -> None:
    # A graph is the 1-tuple of its masks, so graphs sort as their mask
    # tuples do: (0b010, ...) before (0b110, ...).
    low, high = path_graph(3), star_graph(2)
    graphs = [high, low, path_graph(3)]
    assert sorted(graphs) == sorted(graphs, key=lambda g: g.adj) == [low, low, high]
    assert min([high, low]) is low
    assert path_graph(3) < star_graph(2)
    assert Graph(low.adj) == low and hash(Graph(low.adj)) == hash(low)
    assert low == (low.adj,) and low != low.adj


def test_gamma_vectors_iterate_as_their_fields() -> None:
    gv = GammaVector(2, (1, 2))
    assert list(gv) == [2, (1, 2)]
    assert tuple(gv) == (gv.n, gv.gammas)


def test_gamma_vectors_report_their_first_negative_entry() -> None:
    make, make_other, _, _ = FROZEN["GammaVector"]
    nonnegative, negative = make(), make_other()
    assert nonnegative.first_negative is None and nonnegative.passed
    assert negative.first_negative == (1, -2) and not negative.passed
    assert GammaVector(4, (1, 0, -1)).first_negative == (2, -1)
    assert GammaVector(4, (-1, -3, -5)).first_negative == (0, -1)
    with pytest.raises(AttributeError):
        negative.first_negative = None
    with pytest.raises(AttributeError):
        negative.passed = True


def test_gamma_vectors_validate_and_keep_a_tuple() -> None:
    assert GammaVector(2, [1, 2]).gammas == (1, 2)
    assert GammaVector(n=3, gammas=(1, 4)) == GammaVector(3, [1, 4])
    with pytest.raises(ValueError, match="needs 2 gamma entries, got 1"):
        GammaVector(2, (1,))
    with pytest.raises(ValueError, match="negative degree"):
        GammaVector(-1, ())

