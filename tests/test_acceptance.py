"""Acceptance suite: the twelve criteria the package must meet.

Each test prints one PASS/FAIL line (visible under pytest -s or in the
captured-output section on failure) and enforces its time budget.  The
numeric tolerances are pinned here and nowhere looser.
"""

import functools
import math
import random
import time
from contextlib import contextmanager

from oracles import OracleQuad, UBasis, assert_series_close, oracle_placements
from vassiliev.chords import ChordDiagram, enumerate_diagrams, satisfies_4T
from vassiliev.codes import braid_closure, linking_matrix_total, parse_gauss, sample_singular_diagrams
from vassiliev.fixtures import PLAT_FIXTURES, load_fixture
from vassiliev.kontsevich import (
    QuadratureSpec,
    degree_coefficients,
    hump_normalize,
    linking_number,
)
from vassiliev.laurent import IntegerLaurentPoly
from vassiliev.lie import gl_fundamental, su2_fundamental, weight, weight_system
from vassiliev.morse import morse_embed
from vassiliev.skein import (
    conway,
    embedding_independence_check,
    finite_type_check,
    v2,
    vassiliev_eval,
)

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT = "O1+U2+O3-U4-O2+U1+O4-U3-"
PARALLEL = ChordDiagram(((0, 1), (2, 3)))
CROSSED = ChordDiagram(((0, 2), (1, 3)))


@contextmanager
def criterion(label, budget):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    ok = elapsed <= budget
    print(f"{label}: {'PASS' if ok else 'FAIL (over budget)'} "
          f"({elapsed:.2f}s, budget {budget:g}s)")
    assert ok, f"{label} exceeded the {budget}s budget"


@functools.lru_cache(maxsize=None)
def embedded(name):
    return morse_embed(load_fixture(name))


@functools.lru_cache(maxsize=None)
def corrected_table(name, steps):
    quad = QuadratureSpec(steps=steps)
    mk = embedded(name)
    return hump_normalize(degree_coefficients(mk, 2, quad), mk)


@functools.lru_cache(maxsize=None)
def linking_result(name, steps):
    return linking_number(embedded(name), QuadratureSpec(steps=steps))


def test_ac1_skein_oracle():
    with criterion("AC1 skein oracle values", 1.0):
        one = IntegerLaurentPoly.one()
        z = IntegerLaurentPoly.z()
        z2 = z * z
        assert conway(braid_closure([], 1)) == one
        assert conway(parse_gauss(TREFOIL)) == one + z2
        assert conway(parse_gauss(FIGURE_EIGHT)) == one - z2
        assert conway(braid_closure([1, 1])) in (z, -z)
        assert conway(braid_closure([1, 1])) == z  # positive Hopf, our convention


def test_ac2_exchange_identity():
    with criterion("AC2 exchange identity on 100 one-node diagrams", 30.0):
        rng = random.Random(2026)
        for d in sample_singular_diagrams(rng, 1, 100, max_crossings=8):
            nid = d.node_ids[0]
            lhs = vassiliev_eval(conway, d)
            rhs = conway(d.resolve_node(nid, "positive")) - conway(
                d.resolve_node(nid, "negative")
            )
            assert lhs == rhs


def test_ac3_finite_type():
    with criterion("AC3 v2 vanishes beyond order 2", 60.0):
        rng = random.Random(314)
        diagrams = sample_singular_diagrams(
            rng, 3, 60, max_crossings=8, one_component=True
        )
        ok, failures = finite_type_check(v2, 2, diagrams)
        assert ok, failures[:3]


def test_ac4_embedding_independence():
    with criterion("AC4 v2 switch-invariance on 50 two-node fixtures", 30.0):
        rng = random.Random(1729)
        fixtures = sample_singular_diagrams(
            rng, 2, 50, max_crossings=8, one_component=True
        )
        for d in fixtures:
            switches = [[sid] for sid in d.crossing_ids]
            ok, max_dev, _ = embedding_independence_check(v2, 2, d, switches)
            assert ok and max_dev == 0


def test_ac5_matching_counts():
    with criterion("AC5 raw matching counts (2m-1)!!", 10.0):
        for m in range(7):
            _, raw = enumerate_diagrams(m)
            assert raw == math.prod(range(1, 2 * m, 2))


def test_ac6_lie_axioms():
    with criterion("AC6 Lie-algebra axioms at 1e-12", 30.0):
        assert UBasis(su2_fundamental()).check(tol=1e-12)
        for n in range(1, 5):
            assert UBasis(gl_fundamental(n)).check(tol=1e-12)


def test_ac7_four_term():
    with criterion("AC7 4T for all weight systems, degrees 2 and 3", 60.0):
        algebras = [su2_fundamental()] + [gl_fundamental(n) for n in range(1, 5)]
        for algebra in algebras:
            for m in (2, 3):
                ok, counterexample = satisfies_4T(lambda d: weight(algebra, d), m)
                assert ok, (algebra.name, m, counterexample)
        su2 = weight_system(su2_fundamental(), 2)
        assert abs(su2[PARALLEL] - 9 / 8) < 1e-12
        assert abs(su2[CROSSED] - (-3 / 8)) < 1e-12


def test_ac8_propagator_rules():
    with criterion("AC8 light-cone chord weight: hopf linking equals the per-placement oracle", 1.0):
        # Each chord weighs kappa (dz_a - dz_b) / (z_a - z_b), negated per
        # downward end, with both ends at one height on two distinct strands.
        hopf, q = embedded("hopf"), QuadratureSpec(steps=200)
        comp = [s.component for s in hopf.strands]
        chords = [
            (slabs, pairs, down)
            for slabs, pairs, down in oracle_placements(hopf, 1)
            if comp[pairs[0][0]] != comp[pairs[0][1]]
        ]
        assert chords
        quad = OracleQuad(hopf, q)
        want = sum(quad.value(*chord) for chord in chords)
        assert_series_close(linking_number(hopf, q), want)


def test_ac9_linking_numbers():
    with criterion("AC9 degree-1 linking integrals", 120.0):
        for name, expected in (("hopf", None), ("torus_2_4", None), ("split", 0)):
            if expected is None:
                shadow = PLAT_FIXTURES[name]()[1]
                expected = linking_matrix_total(shadow)
            res = linking_result(name, 2000)
            assert abs(res.value - expected) < 1e-3, (name, res.value, expected)
        assert abs(linking_result("hopf", 2000).value - (-1)) < 1e-3
        assert abs(linking_result("torus_2_4", 2000).value - (-2)) < 1e-3


def test_ac10_hump_self_correction():
    with criterion("AC10 hump self-correction", 300.0):
        hump = corrected_table("hump", 2000).value(CROSSED)
        circle = corrected_table("round_circle", 2000).value(CROSSED)
        assert abs(hump - circle) <= 2e-3, (hump, circle)


def test_ac11_v2_cross_validation():
    with criterion("AC11 corrected integral vs skein v2", 1800.0):
        circle = corrected_table("round_circle", 2000).value(CROSSED)
        trefoil = corrected_table("trefoil_2max", 2000).value(CROSSED)
        fig8 = corrected_table("figure_eight", 2000).value(CROSSED)
        assert v2(parse_gauss(TREFOIL)) == 1
        assert v2(parse_gauss(FIGURE_EIGHT)) == -1
        assert abs((trefoil - circle) - 1) < 5e-2, trefoil - circle
        assert abs((fig8 - circle) - (-1)) < 5e-2, fig8 - circle


def test_ac12_quadrature_convergence():
    with criterion("AC12 halved steps stay within reported error", 600.0):
        for name in ("hopf", "torus_2_4", "split"):
            full = linking_result(name, 2000)
            half = linking_result(name, 1000)
            assert abs(full.value - half.value) < full.error, name
        for name in ("hump", "round_circle", "trefoil_2max", "figure_eight"):
            full = corrected_table(name, 2000)
            half = corrected_table(name, 1000)
            for diagram in (CROSSED,):
                delta = abs(full.value(diagram) - half.value(diagram))
                err = full.error(diagram)
                if full.coefficient(diagram) is None:
                    continue  # class absent (round circle): nothing to compare
                assert delta < err, (name, str(diagram), delta, err)
