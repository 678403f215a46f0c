"""Argument refusals of the public API.

Every integer argument of the library is read by `codes._integer` and
every typed one by `codes._expect`, so a wrong argument is refused by
name with a TypeError or a ValueError, never by an AttributeError from
inside a layer.
"""

import pytest

import vassiliev
from vassiliev import (
    ChordDiagram,
    chord_diagram_of,
    conway,
    degree_coefficients,
    embedding_independence_check,
    enumerate_placements,
    expectation_series,
    extend_invariant,
    finite_type_check,
    hump_normalize,
    linking_matrix_total,
    linking_number,
    load_fixture,
    morse_embed,
    parse_gauss,
    parse_pd,
    sample_singular_diagrams,
    satisfies_4T,
    v2,
    vassiliev_eval,
    weight,
    weight_system,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"


# One row per public function that takes a library object or code text:
# a call with one wrong-typed argument, and the refusal, which names it.
WRONG_ARGUMENT = {
    "parse_gauss": (lambda: parse_gauss(5), "parse_gauss expects a str as text, not int"),
    "parse_pd": (lambda: parse_pd(None), "parse_pd expects a str as text, not NoneType"),
    "sample_singular_diagrams": (lambda: sample_singular_diagrams(None, 0, 1),
                                 "sample_singular_diagrams expects a Random as rng, not NoneType"),
    "linking_matrix_total": (lambda: linking_matrix_total([]),
                             "linking_matrix_total expects a SingularDiagram as diagram, not list"),
    "conway": (lambda: conway(TREFOIL), "conway expects a SingularDiagram as diagram, not str"),
    "v2": (lambda: v2(TREFOIL), "v2 expects a SingularDiagram as diagram, not str"),
    "extend_invariant": (lambda: extend_invariant(conway, 1, -1, 0)(None),
                         "extend_invariant expects a SingularDiagram as diagram, not NoneType"),
    "vassiliev_eval": (lambda: vassiliev_eval(conway, TREFOIL),
                       "extend_invariant expects a SingularDiagram as diagram, not str"),
    "finite_type_check": (lambda: finite_type_check(v2, 2, [TREFOIL]),
                          "finite_type_check expects a SingularDiagram as an item of diagrams, not str"),
    "embedding_independence_check": (
        lambda: embedding_independence_check(v2, 2, TREFOIL, []),
        "embedding_independence_check expects a SingularDiagram as diagram, not str"),
    "chord_diagram_of": (lambda: chord_diagram_of(ChordDiagram(())),
                         "chord_diagram_of expects a SingularDiagram as diagram, not ChordDiagram"),
    "weight": (lambda: weight("su2", ChordDiagram(())), "weight expects a LieAlgebraData as algebra, not str"),
    "weight_system": (lambda: weight_system("su2", 2),
                      "weight_system expects a LieAlgebraData as algebra, not str"),
    # refused at every degree, also at 0 and 1, which have no relation to check
    "satisfies_4T": (lambda: satisfies_4T("x", 1), "satisfies_4T expects a Callable as weight_fn, not str"),
    "degree_coefficients": (lambda: degree_coefficients(load_fixture("round_circle"), 1),
                            "degree_coefficients expects a MorseKnot as mk, not list"),
    "enumerate_placements": (lambda: enumerate_placements(TREFOIL, 1),
                             "enumerate_placements expects a MorseKnot as mk, not str"),
    "linking_number": (lambda: linking_number(load_fixture("hopf")),
                       "linking_number expects a MorseKnot as mk, not list"),
    "hump_normalize": (lambda: hump_normalize({}, None),
                       "hump_normalize expects a CoefficientTable as raw, not dict"),
    # refused before any quadrature: a two-component curve has no table
    "expectation_series": (lambda: expectation_series(morse_embed(load_fixture("hopf")), "su2", 2, 1.0),
                           "expectation_series expects a LieAlgebraData as algebra, not str"),
}

# Public names with no row, by why.
EXEMPT = {
    # classes, exceptions and constants
    "ChordDiagram", "ChordPlacement", "CoefficientTable", "ExpectationSeries", "IntegerLaurentPoly",
    "IntegralResult", "LieAlgebraData", "MorseKnot", "QuadratureSpec", "SingularDiagram", "Slab",
    "Strand", "DiagramError", "EmbeddingError", "ParseError", "ALL_FIXTURE_NAMES",
    # builders from numbers, braid words or a fixture name, refused under their own tests
    "braid_closure", "enumerate_diagrams", "four_term_relations",
    "raw_matchings", "gl_fundamental", "su2_fundamental", "plat", "round_circle",
    "two_circles", "load_fixture",
    # morse's curve readers, which refuse with EmbeddingError under their own tests
    "curve_from_json", "curve_to_json", "morse_embed",
}


def test_every_entry_point_refuses_a_wrong_argument_by_name():
    # a new public name fails here until it gets a row or an exemption
    assert not WRONG_ARGUMENT.keys() & EXEMPT
    assert set(vassiliev.__all__) == WRONG_ARGUMENT.keys() | EXEMPT
    for name, (call, message) in WRONG_ARGUMENT.items():
        # an AttributeError from inside a layer is neither, and fails the test
        with pytest.raises((TypeError, ValueError)) as err:
            call()
        assert str(err.value) == message, name
