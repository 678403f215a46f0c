import dataclasses
import functools
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    OracleQuad,
    assert_series_close,
    nested_tail_blocks,
    oracle_placements,
    signed_resolution_sum,
)
from strategies import PROPERTIES, rigid_motions

from vassiliev import kontsevich
from vassiliev.chords import ChordDiagram, chord_diagram_of
from vassiliev.codes import braid_closure
from vassiliev.fixtures import ALL_FIXTURE_NAMES, load_fixture, plat, round_circle, two_circles
from vassiliev.kontsevich import (
    CoefficientTable,
    QuadratureSpec,
    degree_coefficients,
    enumerate_placements,
    expectation_series,
    hump_normalize,
    linking_number,
)
from vassiliev.lie import su2_fundamental, weight
from vassiliev.morse import EmbeddingError, morse_embed

Q = QuadratureSpec()
CROSSED = ChordDiagram(((0, 2), (1, 3)))
PARALLEL = ChordDiagram(((0, 1), (2, 3)))
SINGLE = ChordDiagram(((0, 1),))


def embed(name):
    return morse_embed(load_fixture(name))


# -- slow oracle: the diagram one placement induces, chord by chord ----------


def oracle_diagram(mk, pairs):
    """Induced chord diagram: endpoints around the loop, strands by
    index, which is traversal order, levels ascending on upward strands."""
    on_strand = {}
    for level, (a, b) in enumerate(pairs):
        on_strand.setdefault(a, []).append(level)
        on_strand.setdefault(b, []).append(level)
    circle = []
    for s in range(len(mk.strands)):
        levels = sorted(on_strand.get(s, ()))
        if not mk.strands[s].goes_up:
            levels.reverse()
        circle.extend(levels)
    pos = {}
    for p, level in enumerate(circle):
        pos.setdefault(level, []).append(p)
    return ChordDiagram([tuple(pos[level]) for level in range(len(pairs))])


def test_quadrature_validation():
    with pytest.raises(ValueError):
        QuadratureSpec(steps=8)
    # the floor: below 30 steps the grid refuses some shipped curves
    with pytest.raises(ValueError, match="steps must be at least 32"):
        QuadratureSpec(steps=31)
    assert QuadratureSpec(steps=32).steps == QuadratureSpec.MIN_STEPS == 32
    # the tail fit reads three fixed insets; neither they nor their number are settings
    for setting in ({"levels": 4}, {"eps_rel": 5e-4}):
        with pytest.raises(TypeError):
            QuadratureSpec(**setting)
    assert QuadratureSpec.levels == len(kontsevich.INSETS) == 3
    assert kontsevich.INSETS == (1e-3, 5e-4, 2.5e-4)
    assert dataclasses.asdict(QuadratureSpec()) == {"steps": 2000}


@pytest.mark.parametrize("steps, error", [
    (100, None),
    (np.int64(100), None),
    (100.0, "steps 100.0 is not an integer"),
    (100.5, "steps 100.5 is not an integer"),  # its grid overshot each slab by half a step
    (True, "steps must be at least 32"),
], ids=repr)
def test_quadrature_steps_must_be_an_integer(steps, error):
    if error is None:
        spec = QuadratureSpec(steps=steps)
        assert type(spec.steps) is int and spec.steps == 100
        assert spec == QuadratureSpec(steps=100)
    else:
        with pytest.raises(ValueError, match=error):
            QuadratureSpec(steps=steps)


@pytest.mark.parametrize("name", ALL_FIXTURE_NAMES)
def test_every_fixture_integrates_at_the_floor(name):
    # the floor is a grid on which no shipped curve's strands seem to meet
    mk, floor = embed(name), QuadratureSpec(steps=32)
    if mk.n_components > 1:
        values = [linking_number(mk, floor).value]
    else:
        values = [c.value for _, c in degree_coefficients(mk, 1, floor).items()]
    assert np.isfinite(values).all()


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


def table_placements(mk, m):
    """Strand ends and induced diagrams of the degree-m placements, as
    the tables read them."""
    ends = np.array([p.pairs for p in enumerate_placements(mk, m)]).reshape(-1, m, 2)
    diagrams, index = kontsevich._induced_diagrams(mk, ends)
    return ends, [diagrams[i] for i in index]


def test_circle_placements():
    mk = embed("round_circle")
    assert len(enumerate_placements(mk, 1)) == 1
    ends, induced = table_placements(mk, 1)
    assert ends.tolist() == [[[0, 1]]]
    assert induced == [SINGLE]
    ends, induced = table_placements(mk, 2)
    assert len(ends) == len(enumerate_placements(mk, 2)) > 0
    assert induced == [PARALLEL] * len(ends)
    with pytest.raises(ValueError):
        enumerate_placements(mk, 0)


def test_high_degree_placements_on_a_round_circle():
    # one slab with one pair: a single placement at any degree
    mk = embed("round_circle")
    for m in (64, 1000):
        (placement,) = enumerate_placements(mk, m)
        assert placement.pairs == ((0, 1),) * m


def test_induced_diagrams_refuse_degrees_past_their_int64_code():
    # A matching of 2m points is one int64 in base 2m, exact up to m = 7.
    mk = embed("round_circle")
    assert len(table_placements(mk, 7)[0]) == 1
    with pytest.raises(ValueError, match="up to degree 7"):
        table_placements(mk, 8)


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


def twelve_lane_knot():
    """A one-component 12-lane plat with 4,313,558 degree-3 placements."""
    pairs = tuple((i, i + 1) for i in range(0, 12, 2))
    components = plat(tuple(i % 11 + 1 for i in range(12)), 12, pairs, pairs)[0]
    return morse_embed(components)


def test_refusals_name_what_is_wrong():
    mk, circle, hopf = twelve_lane_knot(), embed("round_circle"), embed("hopf")
    trefoil = embed("trefoil_3max")
    table = degree_coefficients(circle, 1, QuadratureSpec(steps=32))
    huge = QuadratureSpec(steps=10**8)
    too_many = f"4,313,558 degree-3 placements exceed the bound {kontsevich.MAX_PLACEMENTS:,}"
    too_fine = f"100,000,000 pair-steps exceeds the bound {kontsevich.MAX_GRID:,}"
    cases = [
        (lambda: degree_coefficients(mk, 3, Q), ValueError, too_many),
        (lambda: enumerate_placements(mk, 3), ValueError, too_many),
        (lambda: degree_coefficients(circle, 1, huge), ValueError, too_fine),
        (lambda: linking_number(hopf, huge), ValueError, "pair-steps exceeds the bound"),
        (lambda: hump_normalize("x", circle), TypeError, "expects a CoefficientTable"),
        (lambda: degree_coefficients(circle, 2.0), ValueError, "degree 2.0 is not an integer"),
        (lambda: enumerate_placements(circle, 1.5), ValueError,
         "placement degree 1.5 is not an integer"),
        # the count stops at the first degree past the bound, and a degree past it is not counted
        (lambda: enumerate_placements(trefoil, 1000), ValueError,
         f"2,367,231 degree-5 placements exceed the bound {kontsevich.MAX_PLACEMENTS:,}, "
         "and degree 1,000 has no fewer"),
        (lambda: enumerate_placements(trefoil, 4000), ValueError, "and degree 4,000 has no fewer"),
        (lambda: enumerate_placements(trefoil, 100_000), ValueError, "and degree 100,000 has no fewer"),
        (lambda: enumerate_placements(circle, kontsevich.MAX_PLACEMENTS + 1), ValueError,
         f"degree 200,001 exceeds the bound {kontsevich.MAX_PLACEMENTS:,}"),
        (lambda: kontsevich._ordered_blocks(np.ones((2, 16)) / 16, 4), ValueError,
         "ordered blocks stop at MAX_DEGREE = 3, not 4"),
        (lambda: degree_coefficients(circle, 2, 2000), TypeError,
         "degree_coefficients expects a QuadratureSpec as quadrature, not int"),
        (lambda: linking_number(hopf, 2000), TypeError,
         "linking_number expects a QuadratureSpec as quadrature, not int"),
        (lambda: expectation_series(circle, su2_fundamental(), 2, 1.0, 2000), TypeError,
         "degree_coefficients expects a QuadratureSpec as quadrature, not int"),
        (lambda: expectation_series(circle, su2_fundamental(), 2, "k"), TypeError,
         "expectation_series expects a Number as k, not str"),
        # a k that is not finite made nan partial sums, or dropped every term past degree 0
        (lambda: expectation_series(circle, su2_fundamental(), 1, float("nan")), ValueError,
         "k must be finite, not nan"),
        (lambda: expectation_series(circle, su2_fundamental(), 1, float("inf")), ValueError,
         "k must be finite, not inf"),
        (lambda: expectation_series(circle, su2_fundamental(), 1, complex(1, float("-inf"))), ValueError,
         "k must be finite, not (1-infj)"),
        # a k whose powers leave the floats raised a bare OverflowError or ZeroDivisionError
        (lambda: expectation_series(circle, su2_fundamental(), 2, 1e200), ValueError,
         "k**2 leaves the floats: k's powers to degree 2 must be finite and nonzero"),
        (lambda: expectation_series(circle, su2_fundamental(), 2, 1e200 + 0j), ValueError,
         "k**2 leaves the floats"),
        (lambda: expectation_series(circle, su2_fundamental(), 2, 1e-200), ValueError,
         "k**2 leaves the floats"),
        (lambda: expectation_series(circle, su2_fundamental(), 2, 10**400), ValueError,
         "k must be finite; this k overflows a float"),
        (lambda: linking_number([1, 2]), TypeError, "linking_number expects a MorseKnot as mk, not list"),
        (lambda: degree_coefficients(load_fixture("round_circle"), 2), TypeError,
         "degree_coefficients expects a MorseKnot as mk, not list"),
        (lambda: enumerate_placements([1, 2], 1), TypeError,
         "enumerate_placements expects a MorseKnot as mk, not list"),
        (lambda: hump_normalize(table, [1]), TypeError, "hump_normalize expects a MorseKnot as mk, not list"),
        (lambda: hump_normalize(table, None), TypeError,
         "hump_normalize expects a MorseKnot as mk, not NoneType"),
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
        pools = [slab.pairs for slab in embed(name).slabs]
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
    pools = [slab.pairs for slab in embed("trefoil_3max").slabs]  # 29 pairs
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
    ((z, t),) = load_fixture("round_circle")
    mk = morse_embed([(z, t), (z, t + 10)])
    res = linking_number(mk, Q)
    assert res.value == 0 and res.converged


def test_linking_requires_two_components():
    with pytest.raises(ValueError):
        linking_number(embed("round_circle"), Q)


def self_crossing_loop():
    """A closed plane curve (Im z = 0) that crosses itself once, at z = 0, t = 0."""
    theta = 2 * np.pi * (np.arange(720) + 1 / np.pi) / 720
    z, t = np.sin(2 * theta) / 2, np.sin(theta) + 0.2 * np.sin(theta) ** 2
    return [(z.astype(complex), t)]


def test_strands_that_meet_are_refused():
    # The embedding check probes 25 heights per slab and misses these
    # meetings; a transversal meeting turns the separation of the two
    # strands by pi between adjacent quadrature nodes.
    for height in (0.1, 0.3, 0.5):
        mk = morse_embed(round_circle() + round_circle(center=1.0, height=height))
        with pytest.raises(EmbeddingError, match=r"strands \d+ and \d+ meet .* raise --steps"):
            linking_number(mk, Q)
    with pytest.raises(EmbeddingError, match="at 2000 steps"):
        degree_coefficients(morse_embed(self_crossing_loop()), 2, Q)


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
        degree_coefficients(mk, 2, QuadratureSpec(Q.steps // 2)), mk
    ).coefficient(CROSSED)
    assert abs(full.value - half.value) < full.error

    hopf = embed("hopf")
    lf = linking_number(hopf, Q)
    lh = linking_number(hopf, QuadratureSpec(Q.steps // 2))
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
    # three isolated chords: the framing anomaly drifts like log(eps)
    isolated = ChordDiagram(((0, 1), (2, 3), (4, 5)))
    for name in ("hump", "trefoil_2max"):
        c = degree_coefficients(embed(name), 3, Q).coefficient(isolated)
        assert c.log_divergent, name
        assert not c.converged, name


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


@pytest.mark.parametrize("name", ["trefoil_3max", "figure_eight"])
def test_slab_blocks_match_per_placement_oracle(name):
    q = QuadratureSpec(steps=200)
    mk = embed(name)
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


def test_fold_reads_exactly_the_placements_words():
    # the words the fold yields are the distinct pair sequences of the placements
    q = QuadratureSpec(32)
    for name in ALL_FIXTURE_NAMES:
        mk = embed(name)
        pools = [slab.pairs for slab in mk.slabs]
        for d, (ends, values) in enumerate(kontsevich._degree_values(mk, 3, q, pools), 1):
            words = [tuple(map(tuple, word)) for word in ends.tolist()]
            assert len(set(words)) == len(words) == values.shape[1], (name, d)
            assert set(words) == {p.pairs for p in enumerate_placements(mk, d)}, (name, d)


def slab_integrands(mk, quadrature):
    """(F, step) of every slab with pairs of mk at every quadrature setting."""
    quad = OracleQuad(mk, quadrature)
    for slab, pool in enumerate(s.pairs for s in mk.slabs):
        pairs = list(map(tuple, pool.tolist()))
        for eps, steps in quad.settings if pairs else ():
            rows = [quad.f(slab, pair, eps, steps) for pair in pairs]
            yield np.array([f for f, _ in rows]), rows[0][1]


def integrand_cases(source):
    """(F, step) cases: three seeded random complex F with `source` pairs
    on 300 steps, or every slab and setting of a fixture at the default spec."""
    if isinstance(source, str):
        return list(slab_integrands(embed(source), Q))
    rngs = (np.random.default_rng([source, seed]) for seed in range(3))
    return [(rng.normal(size=(source, 300)) + 1j * rng.normal(size=(source, 300)), 1 / 300)
            for rng in rngs]


SOURCES = [1, 2, 6, 15, "trefoil_3max"]  # the fixture's slabs have 1, 6, 15, 6 and 1 pairs


@pytest.mark.parametrize("source", SOURCES)
def test_ordered_blocks_match_nested_tails(source):
    for F, step in integrand_cases(source):
        for degree in (1, 2, 3):
            got = kontsevich._ordered_blocks(step * F, degree)
            want = nested_tail_blocks(F, step, degree)
            assert [b.shape for b in got] == [b.shape for b in want]
            for g, w in zip(got, want):
                assert np.all(np.abs(g - w) <= 1e-12 * np.abs(w).max())


def test_heads_and_tails_add_up_to_the_one_block():
    # Chen's shuffle identity at every node of the midpoint grid: the
    # integral below a node plus the integral above it is the whole slab
    for F, step in (case for source in SOURCES for case in integrand_cases(source)):
        H = step * (np.cumsum(F, axis=1) - 0.5 * F)
        R = step * (np.cumsum(F[:, ::-1], axis=1)[:, ::-1] - 0.5 * F)
        B1 = kontsevich._ordered_blocks(step * F, 1)[0]
        scale = step * np.abs(F).sum(axis=1, keepdims=True)
        assert np.all(np.abs(H + R - B1[:, None]) <= 1e-12 * scale)


def test_quadrature_leaves_no_blas_worker_spinning():
    # numpy runs a 1-row product as a matrix-vector call that OpenBLAS
    # hands to a worker thread, which keeps spinning after the call
    mk = embed("trefoil_2max")
    time.sleep(0.3)
    degree_coefficients(mk, 3, Q)
    cpu, wall = time.process_time(), time.perf_counter()
    time.sleep(0.05)
    assert time.process_time() - cpu < 0.2 * (time.perf_counter() - wall)


def test_enumerated_diagrams_match_unmemoized_induction():
    for name in ("trefoil_3max", "figure_eight"):
        mk = embed(name)
        _, induced = table_placements(mk, 3)
        got = [
            (p.slabs, p.pairs, diagram)
            for p, diagram in zip(enumerate_placements(mk, 3), induced, strict=True)
        ]
        want = [
            (slabs, pairs, oracle_diagram(mk, pairs))
            for slabs, pairs, _ in oracle_placements(mk, 3)
        ]
        assert got == want


@functools.cache
def fixture_linking(name):
    return linking_number(embed(name), Q).value


@settings(PROPERTIES, max_examples=30)
@given(rigid_motions())
def test_linking_number_is_rigid_and_odd_under_mirrors(motion):
    # Rotation, translation, height shift and positive scale keep the
    # linking number; conjugating z or negating t mirrors the link.
    rotation, shift, lift, scale = motion
    for name in ("hopf", "torus_2_4"):
        want = fixture_linking(name)
        moved = [(scale * (rotation * z + shift), scale * t + lift) for z, t in load_fixture(name)]
        assert abs(linking_number(morse_embed(moved), Q).value - want) <= 1e-9, name
        for mirror in ([(z.conj(), t) for z, t in moved], [(z, -t) for z, t in moved]):
            assert abs(linking_number(morse_embed(mirror), Q).value + want) <= 1e-9, name


def test_raw_table_invariant_under_rigid_motion_and_scaling():
    curve = load_fixture("trefoil_2max")
    turn, shift = np.exp(0.7j), 0.3 - 1.1j
    moved = [(turn * z + shift, t + 2.5) for z, t in curve]
    scaled = [[(f * z, f * t) for z, t in curve] for f in (3, 1e-100, 1e100)]
    base = degree_coefficients(morse_embed(curve), 2, Q)
    for other in (moved, *scaled):
        table = degree_coefficients(morse_embed(other), 2, Q)
        assert table.diagrams() == base.diagrams()
        for (_, c), (_, want) in zip(table.items(), base.items()):
            for a, b in zip((c.value, *c.per_epsilon), (want.value, *want.per_epsilon)):
                assert abs(a - b) <= 1e-8 * max(1.0, abs(b))


def test_raw_series_of_a_mirror_are_signed_conjugates():
    # Conjugating z mirrors a knot and keeps its strands, slabs and
    # placements.  Each chord's dz/(z - z') is conjugated and KAPPA is
    # imaginary, so a degree-d placement sum becomes (-1)**d times its conjugate.
    for name in ("round_circle", "hump", "trefoil_2max", "trefoil_3max", "figure_eight"):
        curve = load_fixture(name)
        mirror = [(z.conj(), t) for z, t in curve]
        mk, mk_bar = morse_embed(curve), morse_embed(mirror)
        raw, raw_bar = kontsevich._raw_series(mk, 3, Q), kontsevich._raw_series(mk_bar, 3, Q)
        for d, (sums, sums_bar) in enumerate(zip(raw, raw_bar, strict=True)):
            assert list(sums_bar) == list(sums), (name, d)
            for diagram, got in sums_bar.items():
                want = (-1) ** d * np.conj(sums[diagram])
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (name, diagram)
        table, table_bar = degree_coefficients(mk, 3, Q), degree_coefficients(mk_bar, 3, Q)
        assert table_bar.diagrams() == table.diagrams(), name
        for (diagram, c), (_, c_bar) in zip(table.items(), table_bar.items()):
            want = -c.value.conjugate()
            assert abs(c_bar.value - want) <= 1e-12 * abs(want), (name, diagram)
            assert (c_bar.error, c_bar.converged, c_bar.log_divergent) == (
                c.error, c.converged, c.log_divergent), (name, diagram)


def test_reversed_knot_reflects_every_diagram():
    # Reversing every component's samples reverses the knot circle and
    # keeps the strands: each chord's two strands both change direction,
    # so a placement keeps its value and induces the reflected diagram.
    def reflect(diagram):
        last = 2 * diagram.degree - 1
        return ChordDiagram((last - i, last - j) for i, j in diagram.pairs())

    for name in ("round_circle", "hump", "trefoil_2max", "trefoil_3max", "figure_eight"):
        curve = load_fixture(name)
        mk, mk_rev = morse_embed(curve), morse_embed([(z[::-1], t[::-1]) for z, t in curve])
        raw, raw_rev = kontsevich._raw_series(mk, 3, Q), kontsevich._raw_series(mk_rev, 3, Q)
        for d, (sums, sums_rev) in enumerate(zip(raw, raw_rev, strict=True)):
            assert set(sums_rev) == set(map(reflect, sums)), (name, d)
            for diagram, want in sums.items():
                got = sums_rev[reflect(diagram)]
                assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), (name, diagram)
        table, table_rev = degree_coefficients(mk, 3, Q), degree_coefficients(mk_rev, 3, Q)
        assert len(table_rev) == len(table), name
        for diagram, c in table.items():
            c_rev, scale = table_rev.coefficient(reflect(diagram)), max(1.0, abs(c.value))
            assert abs(c_rev.value - c.value) <= 1e-12 * scale, (name, diagram)
            assert abs(c_rev.error - c.error) <= 1e-12 * scale, (name, diagram)
            assert (c_rev.converged, c_rev.log_divergent) == (
                c.converged, c.log_divergent), (name, diagram)


# -- singular knots: the integral starts with the chord diagram --------------


def singular_knot_words(seed, m, count):
    """`count` seeded one-component braid words on 2-3 strands: m node
    letters and 2-6 crossings, shuffled."""
    rng = random.Random(seed)
    words = []
    while len(words) < count:
        n = rng.randint(2, 3)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 6))]
        word += [("node", rng.randint(1, n - 1)) for _ in range(m)]
        rng.shuffle(word)
        if braid_closure(word, n).n_components == 1:
            words.append((word, n))
    return words


@pytest.mark.parametrize("seed, m, count", [(2, 1, 3), (5, 2, 4), (5, 3, 4)])
def test_signed_resolution_sum_starts_with_the_chord_diagram(seed, m, count):
    # Z(K x) = Z(K+) - Z(K-) at each node: a knot with m double points
    # has Z = D + (degree > m), D its chord diagram.
    for word, n in singular_knot_words(seed, m, count):
        want = chord_diagram_of(braid_closure(word, n))
        for spec in (Q, QuadratureSpec(4000)):
            total = signed_resolution_sum(word, n, spec)
            assert total[0] == {ChordDiagram(()): 0}, word
            assert want in total[m], word
            for d in range(1, m + 1):
                for diagram, sums in total[d].items():
                    c = kontsevich._classify(sums)
                    exact = 1 if (d, diagram) == (m, want) else 0
                    assert abs(c.value - exact) <= c.error, (word, spec.steps, d, diagram)
