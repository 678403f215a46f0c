"""Finite-type knot invariants three ways.

Skein invariants of singular diagrams, Lie-algebra weight systems on
chord diagrams, and numerical Kontsevich integrals on Morse embeddings.
"""

import importlib

from .laurent import IntegerLaurentPoly
from .codes import (
    DiagramError,
    ParseError,
    SingularDiagram,
    braid_closure,
    linking_matrix_total,
    parse_gauss,
    parse_pd,
    sample_singular_diagrams,
)
from .skein import (
    conway,
    embedding_independence_check,
    extend_invariant,
    finite_type_check,
    v2,
    vassiliev_eval,
)
from .chords import (
    ChordDiagram,
    chord_diagram_of,
    enumerate_diagrams,
    four_term_relations,
    raw_matchings,
    satisfies_4T,
)
from .lie import (
    LieAlgebraData,
    gl_fundamental,
    su2_fundamental,
    weight,
    weight_system,
)

# The numerical side imports numpy, so it loads on first use: a process
# that touches only codes, skein, chords or lie never imports numpy.
_LAZY = {
    **dict.fromkeys((
        "EmbeddingError", "MorseKnot", "Slab", "Strand", "curve_from_json",
        "curve_to_json", "morse_embed",
    ), "morse"),
    **dict.fromkeys((
        "ChordPlacement", "CoefficientTable", "ExpectationSeries", "IntegralResult",
        "PropagatorRule", "QuadratureSpec", "degree_coefficients", "enumerate_placements",
        "expectation_series", "hump_normalize", "linking_number", "wick_propagator",
    ), "kontsevich"),
    **dict.fromkeys((
        "ALL_FIXTURE_NAMES", "load_fixture", "plat", "round_circle", "two_circles",
    ), "fixtures"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "IntegerLaurentPoly",
    "DiagramError",
    "ParseError",
    "SingularDiagram",
    "braid_closure",
    "linking_matrix_total",
    "parse_gauss",
    "parse_pd",
    "sample_singular_diagrams",
    "conway",
    "embedding_independence_check",
    "extend_invariant",
    "finite_type_check",
    "v2",
    "vassiliev_eval",
    "ChordDiagram",
    "chord_diagram_of",
    "enumerate_diagrams",
    "four_term_relations",
    "raw_matchings",
    "satisfies_4T",
    "LieAlgebraData",
    "gl_fundamental",
    "su2_fundamental",
    "weight",
    "weight_system",
    *_LAZY,
]
