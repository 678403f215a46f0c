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
from vassiliev.fixtures import ALL_FIXTURE_NAMES, load_fixture, plat, round_circle, two_circles
from vassiliev.kontsevich import DEFAULT_QUADRATURE, INSETS


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
    assert min(slab.height for slab in mk.slabs) > 0


def test_equal_criticals_within_one_component_rejected():
    # Two maxima at t = 1 (theta = 0 and pi) on one knot: no shift of
    # the whole component separates them, so no jitter is tried.
    theta = 2 * np.pi * np.arange(400) / 400
    z = np.exp(1j * theta) * (1 + 0.3 * np.sin(theta))
    knot = (z, np.cos(2 * theta))
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
    with pytest.raises(EmbeddingError, match="flat height step"):
        morse_embed([(np.array([1, 1j, -1, -1j]), np.array([0.0, 1.0, 1.0, -1.0]))])


def test_too_few_samples_rejected():
    with pytest.raises(EmbeddingError, match="component 0 needs at least 4 samples, not 3"):
        morse_embed([(np.array([1, 1j, -1]), np.array([0.0, 1.0, 0.5]))])


def test_complex_height_rejected():
    ((z, t),) = round_circle(n=16)
    with pytest.raises(EmbeddingError, match="must be real"):
        morse_embed([(z, t + 1e-3j * (np.arange(16) == 3))])


def test_non_finite_samples_rejected():
    for bad in (np.nan, np.inf, -np.inf):
        for field in range(3):
            ((z, t),) = round_circle(n=16)
            (z.real, z.imag, t)[field][5] = bad
            with pytest.raises(EmbeddingError, match="sample 5 of component 1 is not finite"):
                morse_embed(round_circle(center=6.0) + [(z, t)])


_Z, _T = round_circle(n=16)[0]


@pytest.mark.parametrize(
    "component",
    [
        (_Z, _T, np.zeros(1)),
        (_Z, _T, _T),
        (_Z,),
        (_Z, np.delete(_T, 5)),
        1.0,
        (np.full(16, "abc"), _T),
        (_Z.astype(str), _T),
        (_Z, _T.astype(str)),
        ([*_Z[:5], None, *_Z[6:]], _T),
        None,
        (_Z[:, None], _T),
        list(zip(_Z, _T)),
    ],
    ids=["one 3-tuple", "3-tuples", "1-tuples", "one 1-tuple", "a number", "a string z",
         "a numeric string z", "a string t", "a None z", "None", "a 2-D z", "a list of pairs"],
)
def test_samples_that_are_not_z_t_pairs_rejected(component):
    # The samples are the component's two arrays side by side: a third
    # array gives samples a third value, a shorter t leaves one without a height.
    with pytest.raises(EmbeddingError, match="component 1 must be a pair"):
        morse_embed(round_circle(center=6.0, n=16) + [component])


def test_curve_json_roundtrip(tmp_path):
    comps = two_circles(3.0, n=12)
    data = curve_to_json(comps, name="pair")
    back = curve_from_json(data)
    assert len(back) == 2
    for (z0, t0), (z1, t1) in zip(comps, back, strict=True):
        assert z1.dtype == complex and t1.dtype == float
        assert _bits(z1) == _bits(z0) and _bits(t1) == _bits(t0)
    # string, bytes and file forms
    text = json.dumps(data)
    assert len(curve_from_json(text)) == 2
    assert len(curve_from_json(("\n" + text).encode())) == 2
    p = tmp_path / "pair.json"
    p.write_text(text)
    assert len(curve_from_json(str(p))) == 2


def test_embedding_keeps_no_view_of_the_callers_arrays():
    # The fixtures' arrays are already complex and float, so the
    # embedding's casts copy nothing; overwriting them afterwards must
    # leave every strand as it was.
    for name in ("round_circle", "trefoil_3max", "hopf"):
        curve = load_fixture(name)
        mk = morse_embed(curve)
        kept = [_bits(np.concatenate((s._t, *s._coeffs))) for s in mk.strands]
        for z, t in curve:
            z[:] = np.nan
            t[:] = np.nan
        assert [_bits(np.concatenate((s._t, *s._coeffs))) for s in mk.strands] == kept, name
        assert all(np.isfinite(s.at(0.5 * (s.t_lo + s.t_hi))[0]) for s in mk.strands), name


def assert_strands_trace_the_circle(mk):
    """The order of mk.strands is the knot circle: each component's
    strands consecutive, alternating up and down, each strand's far end
    the next one's near end, cyclically; components in order."""
    comps = [s.component for s in mk.strands]
    assert comps == sorted(comps)
    assert set(comps) == set(range(mk.n_components))
    assert mk.n_maxima == sum(s.goes_up for s in mk.strands)
    for c in range(mk.n_components):
        loop = [s for s in mk.strands if s.component == c]
        assert len(loop) % 2 == 0
        for s, nxt in zip(loop, loop[1:] + loop[:1]):
            assert nxt.goes_up != s.goes_up
            far = s.t_hi if s.goes_up else s.t_lo
            near = nxt.t_lo if nxt.goes_up else nxt.t_hi
            assert far == near
            z_far, z_near = complex(s.at(far)[0]), complex(nxt.at(near)[0])
            assert abs(z_far - z_near) <= 1e-12 * (1 + abs(z_far))


def test_strands_cover_component_cyclically():
    curves = [load_fixture(name) for name in ALL_FIXTURE_NAMES]
    curves.append(plat((("wiggle", 0),) * 20, 2, ((0, 1),), ((0, 1),))[0])
    for curve in curves:
        assert_strands_trace_the_circle(morse_embed(curve))


def test_two_sample_strands_are_chords():
    # a kink near the top cuts two strands of only 2 samples each
    ((z, t),) = round_circle(n=40)
    t[10] += 0.3
    t[11] -= 0.2
    mk = morse_embed([(z, t)])
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
    s = Strand(0, True, *morse._not_a_knot_cubics([t], [np.polyval(coeffs, t)])[0])
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
        s = Strand(0, True, *morse._not_a_knot_cubics([t], [zs])[0])
        spline = interpolate.CubicSpline(t, zs)
        tau = np.concatenate([t, rng.uniform(t[0], t[-1], 200)])
        z, dz = s.at(tau)
        for got, want in ((z, spline(tau)), (dz, spline.derivative()(tau))):
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n


def _bits(x):
    return np.asarray(x).tobytes()


def _loop_cubics(ts, zs):
    """The batched builder's output, one piece at a time through the
    loop oracle."""
    return [(np.array(t), not_a_knot_cubic(t, z)) for t, z in zip(ts, zs)]


def test_embedding_matches_the_loop_oracles(monkeypatch):
    # Library: the fixture's arrays, the spline rows and coefficients of
    # every strand at once, one minimum over all slabs.  Oracle: arrays
    # rebuilt from per-sample complex() and float(), each strand's rows
    # one float at a time, a loop over slabs and strand pairs.
    got = {name: morse_embed(load_fixture(name)) for name in ALL_FIXTURE_NAMES}
    monkeypatch.setattr(morse, "_not_a_knot_cubics", _loop_cubics)
    # the oracle derives each slab's strands from the slabs alone
    monkeypatch.setattr(
        morse, "_check_embedding", lambda strands, slabs, spans: check_embedding(strands, slabs)
    )
    for name, mk in got.items():
        curve = [
            (np.array([complex(v) for v in z]), np.array([float(v) for v in t]))
            for z, t in load_fixture(name)
        ]
        want = morse_embed(curve)
        assert _bits(mk.embedding_margin) == _bits(want.embedding_margin), name
        # a slab holds every strand that spans it, in index order
        for slab in mk.slabs:
            spanning = (
                i for i, s in enumerate(mk.strands) if s.t_lo <= slab.t_lo and slab.t_hi <= s.t_hi
            )
            assert slab.strand_ids == tuple(spanning), (name, slab)
        assert len(mk.strands) == len(want.strands), name
        for s, w in zip(mk.strands, want.strands):
            assert _bits(s._t) == _bits(w._t), (name, s)
            assert len(s._coeffs) == len(w._coeffs) == 4
            for k_got, k_want in zip(s._coeffs, w._coeffs):
                assert _bits(k_got) == _bits(k_want), (name, s)


def test_embedding_check_evaluates_each_strand_on_its_own_slabs_only(monkeypatch):
    # 25 probes per slab, each read on that slab's strands: on a plat
    # with 400 wiggles, 802 strands over 801 slabs, evaluating every
    # strand on every slab's probes would fill 257 MB of complex values.
    heights = []
    at = Strand.at
    monkeypatch.setattr(Strand, "at", lambda strand, t: heights.append(np.size(t)) or at(strand, t))
    curves = [load_fixture(name) for name in ALL_FIXTURE_NAMES]
    curves.append(plat((("wiggle", 0),) * 400, 2, ((0, 1),), ((0, 1),))[0])
    for curve in curves:
        heights.clear()
        mk = morse_embed(curve)
        assert len(heights) == len(mk.strands)
        assert sum(heights) == 25 * sum(len(slab.strand_ids) for slab in mk.slabs)


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
        inset = INSETS[0] * (hi - lo)
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
