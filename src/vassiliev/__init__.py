"""Finite-type knot invariants three ways.

Skein invariants of singular diagrams, Lie-algebra weight systems on
chord diagrams, and numerical Kontsevich integrals on Morse embeddings.
"""

import importlib

# Every layer loads on first use of one of its names, or of the layer
# itself (`vassiliev.codes`), so `import vassiliev` compiles this file
# only, and a process that never integrates never imports numpy.
_LAZY = {
    "IntegerLaurentPoly": "laurent",
    **dict.fromkeys((
        "DiagramError", "ParseError", "SingularDiagram", "braid_closure",
        "linking_matrix_total", "parse_gauss", "parse_pd", "sample_singular_diagrams",
    ), "codes"),
    **dict.fromkeys((
        "conway", "embedding_independence_check", "extend_invariant", "finite_type_check",
        "v2", "vassiliev_eval",
    ), "skein"),
    **dict.fromkeys((
        "ChordDiagram", "chord_diagram_of", "enumerate_diagrams", "four_term_relations",
        "raw_matchings", "satisfies_4T",
    ), "chords"),
    **dict.fromkeys((
        "LieAlgebraData", "gl_fundamental", "su2_fundamental", "weight", "weight_system",
    ), "lie"),
    **dict.fromkeys((
        "EmbeddingError", "MorseKnot", "Slab", "Strand", "curve_from_json",
        "curve_to_json", "morse_embed",
    ), "morse"),
    **dict.fromkeys((
        "ChordPlacement", "CoefficientTable", "ExpectationSeries", "IntegralResult",
        "QuadratureSpec", "degree_coefficients", "enumerate_placements", "expectation_series",
        "hump_normalize", "linking_number",
    ), "kontsevich"),
    **dict.fromkeys((
        "ALL_FIXTURE_NAMES", "load_fixture", "plat", "round_circle", "two_circles",
    ), "fixtures"),
}
_LAYERS = frozenset(_LAZY.values())


def __getattr__(name):
    if name in _LAYERS:  # importing a submodule binds it here
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | _LAYERS)


__all__ = list(_LAZY)
