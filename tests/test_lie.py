from fractions import Fraction

import numpy as np
import pytest

from oracles import UBasis, commutator_4T_witness
from vassiliev.chords import ChordDiagram, enumerate_diagrams, satisfies_4T
from vassiliev.lie import (
    LieAlgebraData,
    _weight_of_partner,
    gl_fundamental,
    su2_fundamental,
    weight,
    weight_system,
)

EMPTY = ChordDiagram([])
ONE = ChordDiagram([(0, 1)])
PARALLEL = ChordDiagram([(0, 1), (2, 3)])
CROSSED = ChordDiagram([(0, 2), (1, 3)])


def test_su2_axioms():
    alg = UBasis(su2_fundamental())
    assert alg.check(tol=1e-12)
    assert alg.dim == 3
    # structure constants are the Levi-Civita tensor
    f = alg.structure_constants
    assert abs(f[0, 1, 2] - 1) < 1e-12
    assert abs(f[1, 0, 2] + 1) < 1e-12
    assert abs(f[0, 0, 1]) < 1e-15


def test_gl_axioms():
    for n in (1, 2, 3, 4):
        alg = UBasis(gl_fundamental(n))
        assert alg.dim == n * n
        assert alg.check(tol=1e-12)


def test_witness_rejects_corrupted_generators():
    alg = UBasis(su2_fundamental())
    bad = alg.generators.copy()
    bad[0] = bad[0] + 0.01 * np.eye(2)
    corrupted = UBasis(LieAlgebraData("corrupted", 2, traceless=True))
    corrupted.generators = bad
    corrupted.structure_constants = alg.structure_constants
    assert corrupted.dim == 3 and corrupted.N == 2
    ok, residual = commutator_4T_witness(corrupted, tol=1e-12)
    assert not ok and residual > 1e-3
    with pytest.raises(ValueError):
        corrupted.check(tol=1e-12)


def test_constructor_rejects_sizes_without_a_representation():
    cases = [
        (lambda: LieAlgebraData("gl0", 0, False), "gl0: no fundamental representation of size 0"),
        (lambda: LieAlgebraData("su1", 1, True), "su1: no fundamental representation of size 1"),
        (lambda: gl_fundamental(0), "gl0: no fundamental representation of size 0"),
        # the size is an integer, never truncated or parsed
        (lambda: gl_fundamental(1.5), "gl1.5: matrix size 1.5 is not an integer"),
        (lambda: LieAlgebraData("su2", "2", True), "su2: matrix size '2' is not an integer"),
    ]
    for call, fragment in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert fragment in str(err.value)


def test_weight_refuses_what_is_not_a_chord_diagram():
    for diagram, name in (([(0, 1)], "list"), (((0, 1),), "tuple"), (None, "NoneType")):
        with pytest.raises(TypeError, match=f"weight expects a ChordDiagram as diagram, not {name}$"):
            weight(su2_fundamental(), diagram)


def test_su2_pinned_weights():
    alg = su2_fundamental()
    assert weight(alg, EMPTY) == 2
    assert weight(alg, ONE) == Fraction(3, 2)
    assert weight(alg, PARALLEL) == Fraction(9, 8)
    assert weight(alg, CROSSED) == Fraction(-3, 8)


def _weight_of_pairing(T, partner):
    # Oracle: the trace of the generator product T (dim, N, N), contracted
    # in complex floats with one open tensor axis per open chord.
    state = np.eye(T.shape[1], dtype=complex)
    open_axes = []
    for p in range(len(partner)):
        q = partner[p]
        if q > p:
            state = np.einsum("...ij,ajk->a...ik", state, T)
            open_axes.insert(0, p)
        else:
            ax = open_axes.index(q)
            open_axes.pop(ax)
            state = np.moveaxis(state, ax, 0)
            state = np.einsum("a...ij,ajk->...ik", state, T)
    return complex(np.trace(state))


@pytest.mark.parametrize("alg",
                         [su2_fundamental()]
                         + [LieAlgebraData(f"su{n}", n, traceless=True) for n in (3, 4)]
                         + [gl_fundamental(n) for n in (1, 2, 3)],
                         ids=lambda a: a.name)
def test_exact_weights_match_the_einsum_oracle(alg):
    T = UBasis(alg).generators
    for m in range(5):
        for d in enumerate_diagrams(m)[0]:
            got = weight(alg, d)
            assert isinstance(got, Fraction)
            assert abs(_weight_of_pairing(T, d.partner) - got) < 1e-12, (alg.name, d)


def _gl_loop_count(partner, _arcs_cache={}):
    # independent oracle: with the u(N) basis each chord contracts to
    # half a strand swap, so the weight is (1/2)^m N^(number of arc
    # classes after the chord identifications x_{p-1}=x_q, x_{q-1}=x_p
    n = len(partner)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    for p in range(n):
        q = partner[p]
        if q > p:
            union((p - 1) % n, q)
            union((q - 1) % n, p)
    return len({find(x) for x in range(n)})


def test_gl_weights_match_loop_model():
    for N in (2, 3):
        alg = gl_fundamental(N)
        for m in (1, 2, 3):
            diagrams, _ = enumerate_diagrams(m)
            for d in diagrams:
                expected = Fraction(N ** _gl_loop_count(d.partner), 2**m)
                assert weight(alg, d) == expected, (N, d)


def test_weight_rotation_invariance():
    alg = su2_fundamental()
    pairs = [(0, 3), (1, 5), (2, 4)]
    n = 6
    base = None
    for r in range(n):
        rotated = [((a + r) % n, (b + r) % n) for a, b in pairs]
        partner = [None] * n
        for a, b in rotated:
            partner[a], partner[b] = b, a
        val = _weight_of_partner(alg, tuple(partner))
        if base is None:
            base = val
        assert val == base


def test_weights_above_degree_four_are_exact():
    alg = su2_fundamental()
    T = UBasis(alg).generators
    for d in (ChordDiagram([(i, i + 5) for i in range(5)]),
              ChordDiagram([(i, i + 6) for i in range(6)])):
        got = weight(alg, d)
        assert isinstance(got, Fraction)
        assert abs(_weight_of_pairing(T, d.partner) - got) < 1e-12


def test_weight_systems_satisfy_4T():
    for alg in (su2_fundamental(), gl_fundamental(2), gl_fundamental(3)):
        for m in (2, 3, 4, 5, 6):
            table = weight_system(alg, m)
            ok, counter = satisfies_4T(lambda d: table[d], m)
            assert ok, (alg.name, m, counter)
