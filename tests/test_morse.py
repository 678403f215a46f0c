import json

import numpy as np
import pytest
from hypothesis import given

from oracles import check_embedding, not_a_knot_cubic
from strategies import PROPERTIES, spline_pieces
from vassiliev import morse
from vassiliev.morse import (
    EmbeddingError,
    Strand,
    curve_from_json,
    curve_to_json,
    morse_embed,
)
from vassiliev.fixtures import ALL_FIXTURE_NAMES, load_fixture, round_circle, two_circles
from vassiliev.kontsevich import DEFAULT_QUADRATURE


def test_round_circle_structure():
    mk = morse_embed(round_circle())
    assert mk.n_components == 1
    assert mk.n_maxima == 1
    assert len(mk.strands) == 2
    assert len(mk.slabs) == 1
    slab = mk.slabs[0]
    assert slab.t_lo == pytest.approx(-1.0, abs=1e-4)
    assert slab.t_hi == pytest.approx(1.0, abs=1e-4)
    assert set(slab.strand_ids) == {0, 1}


def test_round_circle_strand_values():
    # the unit circle splits into x = +sqrt(1-t^2) and x = -sqrt(1-t^2)
    mk = morse_embed(round_circle())
    seen = set()
    for s in mk.strands:
        x0, dx0 = s.at(0.0)
        seen.add(round(x0.real))
        assert abs(x0) == pytest.approx(1.0, abs=1e-5)
        assert abs(complex(dx0)) < 1e-3
        xh, dxh = s.at(0.5)
        assert abs(xh.real) == pytest.approx(np.sqrt(0.75), abs=1e-5)
        # dz/dt = -x tan(theta) side: magnitude tan(pi/6)
        assert abs(complex(dxh)) == pytest.approx(np.tan(np.pi / 6), abs=1e-3)
    assert seen == {-1, 1}


def test_split_circles_slabs():
    mk = morse_embed(two_circles(5.0))
    assert mk.n_components == 2
    assert mk.n_maxima == 2
    assert len(mk.slabs) == 3
    widths = [len(s.strand_ids) for s in mk.slabs]
    assert widths == [2, 4, 2]


def test_jitter_separates_equal_criticals():
    far = round_circle(center=6.0)
    mk = morse_embed(round_circle() + far)
    assert mk.n_components == 2
    assert any("jitter" in note for note in mk.notes)
    crit = sorted(mk.criticals)
    gaps = [b - a for a, b in zip(crit, crit[1:])]
    assert min(gaps) > 0


def test_equal_criticals_within_one_component_rejected():
    # Two maxima at t = 1 (theta = 0 and pi) on one knot: no shift of
    # the whole component separates them, so no jitter is tried.
    theta = 2 * np.pi * np.arange(400) / 400
    z = np.exp(1j * theta) * (1 + 0.3 * np.sin(theta))
    knot = list(zip(z, np.cos(2 * theta)))
    with pytest.raises(EmbeddingError, match="component 0 has two critical heights"):
        morse_embed([knot])
    with pytest.raises(EmbeddingError, match="component 1 has two critical heights"):
        morse_embed(round_circle(center=6.0) + [knot])


def test_overlapping_components_rejected():
    with pytest.raises(EmbeddingError):
        morse_embed(round_circle() + round_circle(center=1e-13))


def test_empty_curve_rejected():
    with pytest.raises(EmbeddingError, match="no components"):
        morse_embed([])


def test_plateau_rejected():
    samples = [(1 + 0j, 0.0), (1j, 1.0), (-1 + 0j, 1.0), (-1j, -1.0)]
    with pytest.raises(EmbeddingError):
        morse_embed([samples])


def test_too_few_samples_rejected():
    with pytest.raises(EmbeddingError):
        morse_embed([[(1 + 0j, 0.0), (1j, 1.0), (-1 + 0j, 0.5)]])


def test_complex_height_rejected():
    (samples,) = round_circle(n=16)
    samples[3] = (samples[3][0], samples[3][1] + 1e-3j)
    with pytest.raises(EmbeddingError, match="must be real"):
        morse_embed([samples])


def test_non_finite_samples_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        for field in range(3):
            (samples,) = round_circle(n=16)
            z, t = samples[5]
            samples[5] = [(bad, t), (complex(z.real, bad), t), (z, bad)][field]
            with pytest.raises(EmbeddingError, match="sample 5 of component 1 is not finite"):
                morse_embed(round_circle(center=6.0) + [samples])


_PAIRS = round_circle(n=16)[0]


@pytest.mark.parametrize(
    "samples",
    [
        _PAIRS[:5] + [_PAIRS[5] + (0.0,)] + _PAIRS[6:],
        [s + (0.0,) for s in _PAIRS],
        [(z,) for z, _ in _PAIRS],
        _PAIRS[:5] + [_PAIRS[5][:1]] + _PAIRS[6:],
        _PAIRS[:5] + [1.0] + _PAIRS[6:],
        _PAIRS[:5] + [("abc", 0.5)] + _PAIRS[6:],
        _PAIRS[:5] + [("1+2j", 0.5)] + _PAIRS[6:],
        _PAIRS[:5] + [(1j, "0.5")] + _PAIRS[6:],
        _PAIRS[:5] + [(None, 0.5)] + _PAIRS[6:],
    ],
    ids=["one 3-tuple", "3-tuples", "1-tuples", "one 1-tuple", "a number", "a string z",
         "a numeric string z", "a string t", "a None z"],
)
def test_samples_that_are_not_z_t_pairs_rejected(samples):
    with pytest.raises(EmbeddingError, match="samples of component 1 must be"):
        morse_embed(round_circle(center=6.0, n=16) + [samples])


def test_curve_json_roundtrip(tmp_path):
    comps = two_circles(3.0, n=12)
    data = curve_to_json(comps, name="pair")
    back = curve_from_json(data)
    assert len(back) == 2
    for orig, loaded in zip(comps, back):
        for (z0, t0), (z1, t1) in zip(orig, loaded):
            assert complex(z0) == pytest.approx(complex(z1))
            assert float(t0) == pytest.approx(float(t1))
    # string, bytes and file forms
    text = json.dumps(data)
    assert len(curve_from_json(text)) == 2
    assert len(curve_from_json(("\n" + text).encode())) == 2
    p = tmp_path / "pair.json"
    p.write_text(text)
    assert len(curve_from_json(str(p))) == 2


def test_strands_cover_component_cyclically():
    mk = morse_embed(round_circle())
    for cycle in mk.component_cycles:
        assert len(cycle) >= 2
        assert len(cycle) % 2 == 0
    ups = sum(1 for s in mk.strands if s.goes_up)
    assert ups == len(mk.strands) // 2


def test_two_sample_strands_are_chords():
    # a kink near the top cuts two strands of only 2 samples each
    (samples,) = round_circle(n=40)
    z = np.array([s[0] for s in samples])
    t = np.array([s[1] for s in samples])
    t[10] += 0.3
    t[11] -= 0.2
    mk = morse_embed([list(zip(z, t))])
    assert mk.n_maxima == 2
    for a, b in ((10, 11), (11, 12)):
        (s,) = [s for s in mk.strands if {s.t_lo, s.t_hi} == {t[a], t[b]}]
        slope = (z[b] - z[a]) / (t[b] - t[a])
        assert complex(s.at(t[a])[0]) == pytest.approx(z[a], rel=1e-12)
        assert complex(s.at(t[b])[0]) == pytest.approx(z[b], rel=1e-12)
        for tau in (t[a], (t[a] + t[b]) / 2, t[b]):
            assert complex(s.at(tau)[1]) == pytest.approx(slope, rel=1e-12)


def test_strand_reproduces_a_cubic():
    # a not-a-knot spline through samples of one cubic is that cubic
    rng = np.random.default_rng(7)
    t = np.sort(rng.uniform(-1.0, 2.0, 30))
    coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
    s = Strand(0, 0, True, t, np.polyval(coeffs, t))
    tau = np.linspace(t[0], t[-1], 500)
    z, dz = s.at(tau)
    want_z = np.polyval(coeffs, tau)
    want_dz = np.polyval(np.polyder(coeffs), tau)
    assert np.max(np.abs(z - want_z)) <= 1e-12 * np.max(np.abs(want_z))
    assert np.max(np.abs(dz - want_dz)) <= 1e-10 * np.max(np.abs(want_dz))


def test_strand_matches_scipy_cubic_spline():
    interpolate = pytest.importorskip("scipy.interpolate")
    rng = np.random.default_rng(11)
    for n in (2, 3, 4, 5, 10, 50, 400):
        t = np.sort(rng.uniform(-1.0, 1.0, n))
        zs = rng.normal(size=n) + 1j * rng.normal(size=n)
        s = Strand(0, 0, True, t, zs)
        spline = interpolate.CubicSpline(t, zs)
        tau = np.concatenate([t, rng.uniform(t[0], t[-1], 200)])
        z, dz = s.at(tau)
        for got, want in ((z, spline(tau)), (dz, spline.derivative()(tau))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


@pytest.mark.parametrize(
    "t, z",
    [
        ([0.0, 1.0, 1.0, 2.0, 3.0], [0, 1, 2, 3, 4]),
        ([0.0, 1.0, 1.0], [0, 1, 2]),
        ([0.0, np.nan, 2.0], [0, 1, 2]),
        ([0.0, np.inf, 2.0], [0, 1, 2]),
        ([0.0, 1.0, 2.0], [0, complex(1, np.nan), 2]),
        ([0.0], [1]),
        ([0.0, 1.0, 2.0], [0, 1]),
    ],
    ids=["a repeated height", "a repeated height, 3 samples", "a NaN height", "an inf height",
         "a NaN z", "one sample", "fewer values than heights"],
)
def test_strand_refuses_bad_samples(t, z):
    with pytest.raises(EmbeddingError, match="strand needs"):
        Strand(0, 0, True, t, z)


def _bits(x):
    return np.asarray(x).tobytes()


def _loop_cubics(ts, zs):
    """The batched builder's output, one piece at a time through the
    loop oracle."""
    return [(np.array(t), not_a_knot_cubic(t, z)) for t, z in zip(ts, zs)]


def test_embedding_matches_the_loop_oracles(monkeypatch):
    # Library: two array conversions per component, the spline rows and
    # coefficients of every strand at once, one minimum over all slabs.
    # Oracle: per-sample complex() and float(), each strand's rows one
    # float at a time, a loop over slabs and strand pairs.
    got = {name: morse_embed(load_fixture(name)) for name in ALL_FIXTURE_NAMES}
    monkeypatch.setattr(morse, "_not_a_knot_cubics", _loop_cubics)
    monkeypatch.setattr(morse, "_check_embedding", check_embedding)
    for name, mk in got.items():
        curve = [[(complex(z), float(t)) for z, t in comp] for comp in load_fixture(name)]
        want = morse_embed(curve)
        assert _bits(mk.embedding_margin) == _bits(want.embedding_margin), name
        assert len(mk.strands) == len(want.strands), name
        for s, w in zip(mk.strands, want.strands):
            assert _bits(s._t) == _bits(w._t), (name, s)
            assert len(s._coeffs) == len(w._coeffs) == 4
            for k_got, k_want in zip(s._coeffs, w._coeffs):
                assert _bits(k_got) == _bits(k_want), (name, s)


@PROPERTIES
@given(spline_pieces())
def test_batched_splines_equal_the_loop_oracle_piece_by_piece(pieces):
    ts, zs = zip(*pieces)
    got = morse._not_a_knot_cubics(ts, zs)
    assert len(got) == len(pieces)
    for (t_got, k_got), (t_want, k_want) in zip(got, _loop_cubics(ts, zs)):
        assert _bits(t_got) == _bits(t_want)
        assert len(k_got) == len(k_want) == 4
        for row_got, row_want in zip(k_got, k_want):
            assert _bits(row_got) == _bits(row_want)


def test_strand_at_is_the_horner_formula_bit_for_bit():
    mk = morse_embed(load_fixture("trefoil_3max"))
    rng = np.random.default_rng(5)
    for strand in mk.strands:
        lo, hi = strand.t_lo, strand.t_hi
        steps = DEFAULT_QUADRATURE.steps
        inset = DEFAULT_QUADRATURE.eps_rel * (hi - lo)
        step = (hi - lo - 2 * inset) / steps
        grid = lo + inset + (np.arange(steps) + 0.5) * step
        for t in (0.5 * (lo + hi), lo, rng.uniform(lo, hi, 300), grid):
            i = np.searchsorted(strand._t[1:-1], t, side="right")
            s = t - strand._t[i]
            a, b, c, z0 = (k[i] for k in strand._coeffs)
            z, dz = strand.at(t)
            assert np.shape(z) == np.shape(dz) == np.shape(t)
            assert _bits(z) == _bits(((a * s + b) * s + c) * s + z0)
            assert _bits(dz) == _bits((3 * a * s + 2 * b) * s + c)
