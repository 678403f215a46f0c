import dataclasses
import itertools
import time

import numpy as np
import pytest

from vassiliev import kontsevich
from vassiliev.chords import ChordDiagram
from vassiliev.fixtures import ALL_FIXTURE_NAMES, load_fixture, plat, two_circles
from vassiliev.kontsevich import (
    KAPPA,
    CoefficientTable,
    QuadratureSpec,
    degree_coefficients,
    enumerate_placements,
    expectation_series,
    hump_normalize,
    linking_number,
    wick_propagator,
)
from vassiliev.lie import su2_fundamental, weight
from vassiliev.morse import morse_embed

Q = QuadratureSpec()
CROSSED = ChordDiagram(((0, 2), (1, 3)))
PARALLEL = ChordDiagram(((0, 1), (2, 3)))
SINGLE = ChordDiagram(((0, 1),))


def embed(name):
    return morse_embed(load_fixture(name))


# -- slow oracle: one Python call per placement, nested cumsums per block ----


def oracle_placements(mk, m):
    """(slabs, pairs, downward endpoints) of every degree-m placement, in
    enumeration order."""
    pools = [sorted(itertools.combinations(sorted(slab.strand_ids), 2)) for slab in mk.slabs]
    for slabs in itertools.combinations_with_replacement(range(len(mk.slabs)), m):
        for pairs in itertools.product(*(pools[s] for s in slabs)):
            yield slabs, pairs, sum(not mk.strands[s].goes_up for pair in pairs for s in pair)


def oracle_diagram(mk, pairs):
    """Induced chord diagram: endpoints around the loop, strands in
    traversal order, levels ascending on upward strands."""
    on_strand = {}
    for level, (a, b) in enumerate(pairs):
        on_strand.setdefault(a, []).append(level)
        on_strand.setdefault(b, []).append(level)
    circle = []
    for s in mk.component_cycles[0]:
        levels = sorted(on_strand.get(s, ()))
        if not mk.strands[s].goes_up:
            levels.reverse()
        circle.extend(levels)
    pos = {}
    for p, level in enumerate(circle):
        pos.setdefault(level, []).append(p)
    return ChordDiagram([tuple(pos[level]) for level in range(len(pairs))])


class OracleQuad:
    """Per-placement quadrature: each within-slab run of chords is an
    ordered integral by nested suffix cumsums, one chord at a time."""

    def __init__(self, mk, quadrature):
        self.mk = mk
        self.settings = [
            (eps, steps)
            for steps in (quadrature.steps, quadrature.steps // 2)
            for eps in quadrature.epsilons()
        ]
        self._fs = {}
        self._blocks = {}

    def f(self, slab_idx, pair, eps, steps):
        key = (slab_idx, pair, eps, steps)
        if key not in self._fs:
            slab = self.mk.slabs[slab_idx]
            a, b = slab.t_lo + eps * slab.height, slab.t_hi - eps * slab.height
            step = (b - a) / steps
            t = a + (np.arange(steps) + 0.5) * step
            (za, dza), (zb, dzb) = self.mk.strands[pair[0]].at(t), self.mk.strands[pair[1]].at(t)
            self._fs[key] = (dza - dzb) / (za - zb), step
        return self._fs[key]

    def block(self, slab_idx, pairs):
        key = (slab_idx, pairs)
        if key not in self._blocks:
            got = []
            for eps, steps in self.settings:
                rows = [self.f(slab_idx, p, eps, steps) for p in pairs]
                step = rows[0][1]
                R = 1.0
                for f, _ in rows[:0:-1]:
                    g = f * R
                    R = step * (np.cumsum(g[::-1])[::-1] - 0.5 * g)
                got.append(step * np.sum(rows[0][0] * R))
            self._blocks[key] = np.array(got)
        return self._blocks[key]

    def value(self, slabs, pairs, down):
        val = 1 + 0j
        for slab, run in itertools.groupby(zip(slabs, pairs), key=lambda sp: sp[0]):
            val = val * self.block(slab, tuple(pair for _, pair in run))
        return (-1) ** down * val * KAPPA ** len(slabs)


def assert_series_close(result, want):
    got = np.array(result.per_epsilon + result.per_epsilon_half)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(steps=8)
    with pytest.raises(ValueError):
        QuadratureSpec(eps_rel=0.2)
    # the tail fit reads three insets; their number is not a setting
    with pytest.raises(TypeError):
        QuadratureSpec(levels=4)
    assert QuadratureSpec.levels == 3
    assert dataclasses.asdict(QuadratureSpec()).keys() == {"steps", "eps_rel"}
    assert QuadratureSpec().halved() == QuadratureSpec(steps=1000)
    assert QuadratureSpec().epsilons() == (1e-3, 5e-4, 2.5e-4)


def test_wick_propagator_rules():
    assert wick_propagator(("+", "+")).is_zero
    assert wick_propagator(("0", "0")).is_zero
    for pair in (("+", "0"), ("0", "+"), ("plus", "zero")):
        rule = wick_propagator(pair)
        assert not rule.is_zero
        assert rule.delta_color
        assert rule.delta_time
        assert rule.pole == "1/(z-w)"
    assert str(wick_propagator(("+", "+"))) == "<A+ A+> = 0"
    assert str(wick_propagator(("+", "0"))) == "<A+ A0> = kappa delta^ab delta(t-s) 1/(z-w)"
    with pytest.raises(ValueError):
        wick_propagator(("+", "x"))
    with pytest.raises(ValueError):
        wick_propagator("bad")


def test_epsilon_tail_classifier_outcomes():
    floor = 1e-9
    # (value, error, converged, log_divergent) by the ratio of differences
    cases = [
        ((1.0, 1.0, 1.0), (1.0, floor, True, False)),  # flat
        ((1.0, 1.0, 1.5), (1.5, 0.5 + floor, False, False)),  # a late jump
        ((1.5, 1.25, 1.125), (1.0, 0.1375 + floor, True, False)),  # geometric, ratio 1/2
        ((0.0, 1.0, 2.0), (2.0, 2.0 + floor, False, True)),  # ratio 1: log drift
        ((0.0, 1.0, 3.0), (3.0, 4.0 + floor, False, False)),  # ratio 2: no limit
    ]
    for vals, (value, error, converged, log_divergent) in cases:
        got = kontsevich._fit_epsilon_tail(vals, floor)
        assert got[0] == value, vals
        assert got[1] == pytest.approx(error, rel=1e-15), vals
        assert got[2:] == (converged, log_divergent), vals


def test_circle_placements():
    mk = embed("round_circle")
    pl1 = enumerate_placements(mk, 1)
    assert len(pl1) == 1
    assert pl1[0].down_endpoints == 1
    assert pl1[0].diagram == SINGLE
    pl2 = enumerate_placements(mk, 2)
    assert pl2
    assert all(p.diagram == PARALLEL for p in pl2)
    with pytest.raises(ValueError):
        enumerate_placements(mk, 0)


def test_induced_diagrams_refuse_degrees_past_their_int64_code():
    # A matching of 2m points is one int64 in base 2m, exact up to m = 7.
    mk = embed("round_circle")
    assert len(enumerate_placements(mk, 7)) == 1
    with pytest.raises(ValueError, match="up to degree 7"):
        enumerate_placements(mk, 8)


def test_two_circle_cross_placements():
    mk = morse_embed(two_circles(3.0))
    cross = [p for p in enumerate_placements(mk, 1) if p.cross_component]
    assert len(cross) == 4


def test_circle_coefficients_vanish():
    mk = embed("round_circle")
    for m in (1, 2):
        table = degree_coefficients(mk, m, Q)
        for d, c in table.items():
            assert abs(c.value) < 2e-3
            assert c.converged
    assert degree_coefficients(mk, 2, Q).value(CROSSED) == 0j


def test_degree_zero_table():
    table = degree_coefficients(embed("round_circle"), 0, Q)
    assert table.value(ChordDiagram(())) == 1
    assert table.error(ChordDiagram(())) == 0.0
    c = table.coefficient(ChordDiagram(()))
    assert len(c.per_epsilon) == len(c.per_epsilon_half) == QuadratureSpec.levels


def test_degree_bounds_and_components():
    with pytest.raises(ValueError):
        degree_coefficients(embed("round_circle"), 4, Q)
    with pytest.raises(ValueError):
        degree_coefficients(embed("hopf"), 2, Q)
    with pytest.raises(TypeError):
        degree_coefficients(load_fixture("round_circle"), 2, Q)


def twelve_lane_knot():
    """A one-component 12-lane plat with 4,313,558 degree-3 placements."""
    pairs = tuple((i, i + 1) for i in range(0, 12, 2))
    components, _, _ = plat(tuple(i % 11 + 1 for i in range(12)), 12, pairs, pairs)
    return morse_embed(components)


def test_refusals_name_what_is_wrong():
    mk, circle, hopf = twelve_lane_knot(), embed("round_circle"), embed("hopf")
    huge = QuadratureSpec(steps=10**8)
    too_many = f"4,313,558 degree-3 placements exceed the bound {kontsevich.MAX_PLACEMENTS:,}"
    too_fine = f"100,000,000 pair-steps exceeds the bound {kontsevich.MAX_GRID:,}"
    cases = [
        (lambda: degree_coefficients(mk, 3, Q), ValueError, too_many),
        (lambda: enumerate_placements(mk, 3), ValueError, too_many),
        (lambda: degree_coefficients(circle, 1, huge), ValueError, too_fine),
        (lambda: linking_number(hopf, huge), ValueError, "pair-steps exceeds the bound"),
        (lambda: hump_normalize("x", circle), TypeError, "expects a CoefficientTable"),
    ]
    start = time.perf_counter()
    for call, error, fragment in cases:
        with pytest.raises(error) as err:
            call()
        assert fragment in str(err.value)
    # refused from pool sizes alone, before any placement or block is built
    assert time.perf_counter() - start < 1.0


def test_placement_count_and_grid_bounds_are_exact(monkeypatch):
    for name in ALL_FIXTURE_NAMES:
        pools = kontsevich._pair_pools(embed(name))
        for m in (1, 2, 3):
            kontsevich._check_budget(pools, m, 16_000)
    # the count h_m of the pool sizes is the length of the enumeration
    for name in ("trefoil_3max", "hopf"):
        mk = embed(name)
        for m in (1, 2, 3):
            n = len(enumerate_placements(mk, m))
            with monkeypatch.context() as patch:
                patch.setattr(kontsevich, "MAX_PLACEMENTS", n)
                assert len(enumerate_placements(mk, m)) == n
                patch.setattr(kontsevich, "MAX_PLACEMENTS", n - 1)
                with pytest.raises(ValueError, match=f"^{n:,} degree-{m} placements"):
                    enumerate_placements(mk, m)
    pools = kontsevich._pair_pools(embed("trefoil_3max"))  # 29 pairs
    kontsevich._check_budget(pools, 1, kontsevich.MAX_GRID // 29)
    with pytest.raises(ValueError, match="pair-steps"):
        kontsevich._check_budget(pools, 1, kontsevich.MAX_GRID // 29 + 1)


def test_circle_self_chord_integral():
    # the round circle has one degree-1 placement, so its one coefficient is that chord
    mk = embed("round_circle")
    assert len(enumerate_placements(mk, 1)) == 1
    ((_, res),) = degree_coefficients(mk, 1, Q).items()
    assert abs(res.value) < 1e-6
    assert res.converged
    assert np.isfinite(res.error)


def test_linking_numbers_match_combinatorial():
    assert abs(linking_number(embed("hopf"), Q).value - (-1)) < 1e-3
    assert abs(linking_number(embed("torus_2_4"), Q).value - (-2)) < 1e-3
    assert abs(linking_number(embed("split"), Q).value) < 1e-3


def test_linking_decays_with_separation():
    vals = [abs(linking_number(morse_embed(two_circles(d)), Q).value)
            for d in (3.0, 6.0, 12.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 1e-4


def test_linking_of_stacked_circles_is_zero():
    # no slab holds both components, so there is no cross placement
    circle = load_fixture("round_circle")[0]
    mk = morse_embed([circle, [(z, t + 10) for z, t in circle]])
    res = linking_number(mk, Q)
    assert res.value == 0 and res.converged


def test_linking_requires_two_components():
    with pytest.raises(ValueError):
        linking_number(embed("round_circle"), Q)


def test_hump_self_correction_is_exact():
    mk = embed("hump")
    for m in (2, 3):
        corrected = hump_normalize(degree_coefficients(mk, m, Q), mk)
        for d, c in corrected.items():
            assert abs(c.value) < 1e-9


def test_corrected_crossed_coefficients():
    mk2 = embed("trefoil_2max")
    c2 = hump_normalize(degree_coefficients(mk2, 2, Q), mk2).value(CROSSED)
    assert abs(c2 - 1) < 5e-2

    mk8 = embed("figure_eight")
    c8 = hump_normalize(degree_coefficients(mk8, 2, Q), mk8).value(CROSSED)
    assert abs(c8 - (-1)) < 5e-2


def test_crossed_coefficient_embedding_independent():
    mk2 = embed("trefoil_2max")
    mk3 = embed("trefoil_3max")
    c2 = hump_normalize(degree_coefficients(mk2, 2, Q), mk2).value(CROSSED)
    c3 = hump_normalize(degree_coefficients(mk3, 2, Q), mk3).value(CROSSED)
    assert abs(c2 - c3) < 5e-2


def test_halved_steps_stay_within_error():
    mk = embed("trefoil_2max")
    full = hump_normalize(degree_coefficients(mk, 2, Q), mk).coefficient(CROSSED)
    half = hump_normalize(
        degree_coefficients(mk, 2, Q.halved()), mk
    ).coefficient(CROSSED)
    assert abs(full.value - half.value) < full.error

    hopf = embed("hopf")
    lf = linking_number(hopf, Q)
    lh = linking_number(hopf, Q.halved())
    assert abs(lf.value - lh.value) < lf.error


def test_half_steps_repeat_the_full_steps_of_a_halved_spec():
    # per_epsilon_half at 2s steps and per_epsilon at s steps are the same
    # settings, so they must agree bit for bit
    def bits(values):
        return np.array(values, dtype=complex).tobytes()

    trefoil, hopf = embed("trefoil_3max"), embed("hopf")
    double, single = QuadratureSpec(steps=200), QuadratureSpec(steps=100)
    for m in (1, 2):
        a = degree_coefficients(trefoil, m, double).items()
        b = degree_coefficients(trefoil, m, single).items()
        assert [d for d, _ in a] == [d for d, _ in b]
        for (_, ca), (_, cb) in zip(a, b):
            assert bits(ca.per_epsilon_half) == bits(cb.per_epsilon)
    a, b = linking_number(hopf, double), linking_number(hopf, single)
    assert bits(a.per_epsilon_half) == bits(b.per_epsilon)


def test_deterministic_reproducibility():
    mk = embed("trefoil_2max")
    a = degree_coefficients(mk, 2, Q)
    b = degree_coefficients(mk, 2, Q)
    for (da, ca), (db, cb) in zip(a.items(), b.items()):
        assert da == db
        assert ca.value == cb.value
        assert ca.per_epsilon == cb.per_epsilon


def test_normalize_identity_for_one_maximum():
    mk = embed("round_circle")
    raw = degree_coefficients(mk, 2, Q)
    assert hump_normalize(raw, mk) is raw


def test_normalize_twice_leaves_raw_table_unchanged():
    mk = embed("trefoil_3max")
    raw = degree_coefficients(mk, 2, Q)
    before = raw.items()
    first = hump_normalize(raw, mk)
    second = hump_normalize(raw, mk)
    assert raw.items() == before
    assert first.items() == second.items()


def test_one_hump_reference_serves_every_degree():
    # the hump series is built once per spec, to degree 3; its lower
    # entries are those of a series built to the lower degree
    def bits(c):
        return np.array([c.value, c.error, *c.per_epsilon, *c.per_epsilon_half]).tobytes()

    spec = QuadratureSpec(steps=64)
    mk = embed("trefoil_2max")
    kontsevich._hump_reference_series.cache_clear()
    tables = {m: hump_normalize(degree_coefficients(mk, m, spec), mk) for m in (1, 2, 3)}
    assert kontsevich._hump_reference_series.cache_info().misses == 1
    raw = degree_coefficients(mk, 2, spec)
    hump2 = kontsevich._raw_series(embed("hump"), 2, spec)
    want = CoefficientTable(kontsevich._series_div(raw._series, hump2, 2), spec, mk.n_maxima)
    got = tables[2].items()
    assert [d for d, _ in got] == [d for d, _ in want.items()]
    assert [bits(c) for _, c in got] == [bits(c) for _, c in want.items()]


def test_normalize_rejects_mismatched_embedding():
    raw = degree_coefficients(embed("trefoil_2max"), 2, Q)
    with pytest.raises(ValueError):
        hump_normalize(raw, embed("round_circle"))


def test_degree_one_regressions():
    # Half the shadow writhe appears as the real part of the raw
    # single-chord coefficient; framing-sensitive, pinned as a
    # regression for this fixture, not claimed as an invariant.
    mk = embed("trefoil_2max")
    c = degree_coefficients(mk, 1, Q).coefficient(SINGLE)
    assert abs(c.value.real - 1.5) < 1e-3

    hump = embed("hump")
    ch = degree_coefficients(hump, 1, Q).coefficient(SINGLE)
    assert abs(ch.value.real) < 1e-3
    assert np.isfinite(ch.error)


def test_hump_raw_crossed_regression():
    mk = embed("hump")
    raw = degree_coefficients(mk, 2, Q).value(CROSSED)
    assert abs(raw - 0.0389) < 2e-2


def test_log_divergence_is_flagged():
    mk = embed("trefoil_3max")
    # eps_rel 5e-4 fits the three finest widths of a four-width ladder from 1e-3
    c = degree_coefficients(mk, 1, QuadratureSpec(eps_rel=5e-4)).coefficient(SINGLE)
    assert c.log_divergent
    assert not c.converged


def test_expectation_series_su2():
    su2 = su2_fundamental()
    circle = embed("round_circle")
    series = expectation_series(circle, su2, 2, 10.0, Q)
    assert series.partial_sums[0] == 2
    assert abs(series.partial_sums[2] - 2) < 2e-3
    assert len(series.terms) == 3

    trefoil = embed("trefoil_2max")
    st = expectation_series(trefoil, su2, 2, 10.0, Q)
    assert np.isfinite(abs(st.partial_sums[2]))
    with pytest.raises(ValueError):
        expectation_series(circle, su2, 1, 0.0, Q)


def test_expectation_terms_match_per_degree_tables():
    su2 = su2_fundamental()
    mk = embed("trefoil_2max")
    k = 10.0
    series = expectation_series(mk, su2, 2, k, Q)
    for m in (1, 2):
        table = hump_normalize(degree_coefficients(mk, m, Q), mk)
        pairing = 0j
        for d, c in table.items():
            pairing += weight(su2, d) * c.value
        assert series.terms[m] == pairing / k**m


def test_table_json_form():
    mk = embed("trefoil_2max")
    table = degree_coefficients(mk, 2, Q)
    data = table.to_json_dict()
    assert data["degree"] == 2
    assert data["quadrature"]["steps"] == Q.steps
    assert len(data["coefficients"]) == len(table)
    for row in data["coefficients"]:
        assert np.isfinite(row["error"])


def test_slab_blocks_match_per_placement_oracle():
    q = QuadratureSpec(steps=200)
    mk = embed("trefoil_3max")
    quad = OracleQuad(mk, q)
    for m in (1, 2, 3):
        want = {}
        for slabs, pairs, down in oracle_placements(mk, m):
            d = oracle_diagram(mk, pairs)
            want[d] = want.get(d, 0) + quad.value(slabs, pairs, down)
        table = degree_coefficients(mk, m, q)
        assert set(table.diagrams()) == set(want)
        for d, c in table.items():
            assert_series_close(c, want[d])

    hopf = embed("hopf")
    quad = OracleQuad(hopf, q)
    want = sum(
        quad.value(slabs, pairs, down)
        for slabs, pairs, down in oracle_placements(hopf, 1)
        if hopf.strands[pairs[0][0]].component != hopf.strands[pairs[0][1]].component
    )
    assert_series_close(linking_number(hopf, q), want)


def test_enumerated_diagrams_match_unmemoized_induction():
    for name in ("trefoil_3max", "figure_eight"):
        mk = embed(name)
        got = [(p.slabs, p.pairs, p.down_endpoints, p.diagram) for p in enumerate_placements(mk, 3)]
        want = [
            (slabs, pairs, down, oracle_diagram(mk, pairs))
            for slabs, pairs, down in oracle_placements(mk, 3)
        ]
        assert got == want


def test_raw_table_invariant_under_rigid_motion_and_scaling():
    curve = load_fixture("trefoil_2max")
    turn, shift = np.exp(0.7j), 0.3 - 1.1j
    moved = [[(turn * z + shift, t + 2.5) for z, t in comp] for comp in curve]
    scaled = [[(3 * z, 3 * t) for z, t in comp] for comp in curve]
    base = degree_coefficients(morse_embed(curve), 2, Q)
    for other in (moved, scaled):
        table = degree_coefficients(morse_embed(other), 2, Q)
        assert table.diagrams() == base.diagrams()
        for (_, c), (_, want) in zip(table.items(), base.items()):
            for a, b in zip((c.value, *c.per_epsilon), (want.value, *want.per_epsilon)):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(b))
