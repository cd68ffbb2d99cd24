"""JSON document round trips and schema validation."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from stabletrop import documents
from stabletrop.cycles import ambient_cycle, cycle, cycles_equal, zero_cycle
from stabletrop.errors import ParseError, ValidationError
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import polytope, standard_simplex, tropical_hypersurface


def ray(n, direction, mult=1):
    return (Polyhedron.cone_from_rays(n, [direction]), mult)


def tropical_line():
    return cycle(2, [ray(2, (1, 0)), ray(2, (0, 1)), ray(2, (-1, -1))])


def polytope_to_document(p):
    return {
        "ambient_dim": p.ambient_dim,
        "vertices": [[documents.number_text(a) for a in v] for v in sorted(p.vertices)],
    }


def matrix_to_document(rows):
    return {"rows": [list(r) for r in rows]}


def test_tropical_line_document_is_frozen():
    doc = documents.cycle_to_document(tropical_line())
    assert doc == {
        "ambient_dim": 2,
        "rays": [[-1, -1], [0, 1], [1, 0]],
        "lineality": [],
        "cones": [
            {"rays": [0], "mult": "1"},
            {"rays": [1], "mult": "1"},
            {"rays": [2], "mult": "1"},
        ],
    }


def test_cycle_document_round_trip():
    t = tropical_line()
    doc = documents.cycle_to_document(t)
    assert cycles_equal(documents.document_to_cycle(doc), t)
    # canonical text is a fixed point of parse + serialize
    text = documents.dumps(doc)
    again = documents.document_to_cycle(documents.loads(text))
    assert documents.dumps(documents.cycle_to_document(again)) == text


def test_line_cells_use_opposite_ray_pairs():
    t = cycle(
        2,
        [
            (Polyhedron.from_vrep(2, points=[(0, 0)], lin=[(1, 0)]), 2),
            (Polyhedron.from_vrep(2, points=[(0, 0)], lin=[(0, 1)]), 3),
        ],
    )
    doc = documents.cycle_to_document(t)
    assert doc["lineality"] == []
    assert doc["rays"] == [[-1, 0], [0, -1], [0, 1], [1, 0]]
    assert {tuple(c["rays"]): c["mult"] for c in doc["cones"]} == {
        (0, 3): "2",
        (1, 2): "3",
    }
    assert cycles_equal(documents.document_to_cycle(doc), t)


def test_shared_lineality_is_factored_out():
    h = cycle(
        3,
        [(Polyhedron.from_hrep(3, [], [((1, 1, 1), 0)]), 1)],
    )
    doc = documents.cycle_to_document(h)
    assert doc["rays"] == []
    assert len(doc["lineality"]) == 2
    assert doc["cones"] == [{"rays": [], "mult": "1"}]
    assert cycles_equal(documents.document_to_cycle(doc), h)


def test_zero_ambient_and_point_documents():
    zdoc = documents.cycle_to_document(zero_cycle(3))
    assert zdoc["cones"] == [] and documents.document_to_cycle(zdoc).is_zero
    adoc = documents.cycle_to_document(ambient_cycle(2, Fraction(1, 2)))
    assert adoc["cones"] == [{"rays": [], "mult": "1/2"}]
    assert cycles_equal(documents.document_to_cycle(adoc), ambient_cycle(2, Fraction(1, 2)))
    origin = cycle(2, [(Polyhedron.point((0, 0)), 1)])
    odoc = documents.cycle_to_document(origin)
    assert odoc == {
        "ambient_dim": 2,
        "rays": [],
        "lineality": [],
        "cones": [{"rays": [], "mult": "1"}],
    }


def test_translated_cycle_has_no_document():
    shifted = cycle(2, [(Polyhedron.cone_from_rays(2, [(1, 0)]).translate((0, 1)), 1)])
    with pytest.raises(ValidationError):
        documents.cycle_to_document(shifted)


@pytest.mark.parametrize(
    "mangle,message",
    [
        (lambda d: d.update(rays=[[2, 0]]) or d, "primitive"),
        (lambda d: d.update(rays=[[1, 0], [1, 0]]) or d, "distinct"),
        (lambda d: d.update(rays=[[0, 0]]) or d, "nonzero"),
        (lambda d: d.update(cones=[{"rays": [5], "mult": "1"}]) or d, "range"),
        (lambda d: d.update(cones=[{"rays": [0], "mult": "0"}]) or d, "nonzero"),
        (lambda d: d.update(cones=[{"rays": [0, 0], "mult": "1"}]) or d, "distinct"),
        (
            lambda d: d.update(
                cones=[{"rays": [0], "mult": "1"}, {"rays": [0], "mult": "2"}]
            )
            or d,
            "duplicate",
        ),
        (lambda d: d.update(ambient_dim=0) or d, "positive"),
        (lambda d: d.update(extra=1) or d, "unknown"),
        (lambda d: d.update(cones=[{"rays": [0], "mult": "1/0"}]) or d, "p/q"),
    ],
)
def test_cycle_document_rejects_malformed(mangle, message):
    doc = {"ambient_dim": 2, "rays": [[1, 0]], "lineality": [], "cones": []}
    with pytest.raises(ParseError, match=message):
        documents.document_to_cycle(mangle(doc))


def test_mixed_dimension_document_is_rejected():
    doc = {
        "ambient_dim": 2,
        "rays": [[1, 0], [0, 1]],
        "lineality": [],
        "cones": [{"rays": [0], "mult": "1"}, {"rays": [0, 1], "mult": "1"}],
    }
    with pytest.raises(ParseError, match="weighted fan"):
        documents.document_to_cycle(doc)


def test_loads_rejects_floats_and_bad_json():
    with pytest.raises(ParseError, match="floating point"):
        documents.loads('{"ambient_dim": 2, "rays": [[1.5, 0]]}')
    with pytest.raises(ParseError, match="invalid JSON"):
        documents.loads("{not json")


def test_polytope_document_round_trip():
    p = polytope(2, [(0, 0), (1, 0), (0, 1), (Fraction(1, 2), Fraction(1, 2))])
    doc = polytope_to_document(p)
    assert doc == {
        "ambient_dim": 2,
        "vertices": [["0", "0"], ["0", "1"], ["1", "0"]],
    }
    q = documents.document_to_polytope(doc)
    assert q.vertices == p.vertices


def test_polytope_document_accepts_integers_and_strings():
    q = documents.document_to_polytope(
        {"ambient_dim": 1, "vertices": [[0], ["3/2"]]}
    )
    assert q.vertices == ((Fraction(0),), (Fraction(3, 2),))
    with pytest.raises(ParseError, match="vertices"):
        documents.document_to_polytope({"ambient_dim": 1, "vertices": []})
    with pytest.raises(ParseError, match="coordinates"):
        documents.document_to_polytope({"ambient_dim": 2, "vertices": [[0]]})


def test_matrix_document():
    rows = documents.document_to_matrix({"rows": [[1, 0, 2], [0, -1, 3]]})
    assert rows == ((1, 0, 2), (0, -1, 3))
    assert matrix_to_document(rows) == {"rows": [[1, 0, 2], [0, -1, 3]]}
    with pytest.raises(ParseError, match="same length"):
        documents.document_to_matrix({"rows": [[1], [1, 2]]})
    with pytest.raises(ParseError, match="integers"):
        documents.document_to_matrix({"rows": [["1"]]})


@given(
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
        ),
        min_size=1,
        max_size=5,
    )
)
def test_hypersurface_documents_round_trip(points):
    t = tropical_hypersurface(polytope(3, points))
    doc = documents.cycle_to_document(t)
    assert cycles_equal(documents.document_to_cycle(doc), t)
    assert documents.cycle_to_document(documents.document_to_cycle(doc)) == doc


def test_simplex_hypersurface_document_parses_back():
    t = tropical_hypersurface(standard_simplex(3))
    doc = documents.cycle_to_document(t)
    assert doc["ambient_dim"] == 3 and len(doc["cones"]) == 6
    assert cycles_equal(documents.document_to_cycle(doc), t)
