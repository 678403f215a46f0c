import importlib.resources
import json
import random

import numpy as np
import pytest

from vassiliev.codes import braid_closure, linking_matrix_total, sample_singular_diagrams
from vassiliev.fixtures import (
    ALL_FIXTURE_NAMES,
    FIGURE_EIGHT_PLAT_WORD,
    HUMP_CAPS,
    PLAT_FIXTURES,
    STANDARD_CAPS,
    STANDARD_CUPS,
    load_fixture,
    plat,
    write_shipped_data,
)
from vassiliev.kontsevich import linking_number
from vassiliev.laurent import IntegerLaurentPoly
from vassiliev.morse import curve_from_json, morse_embed
from vassiliev.skein import conway

ONE = IntegerLaurentPoly.one()
Z = IntegerLaurentPoly.z()

EXPECTED_MAXIMA = {
    "round_circle": 1,
    "split": 2,
    "hump": 2,
    "trefoil_2max": 2,
    "trefoil_3max": 3,
    "figure_eight": 2,
    "hopf": 2,
    "torus_2_4": 2,
}
EXPECTED_COMPONENTS = {
    "round_circle": 1,
    "split": 2,
    "hump": 1,
    "trefoil_2max": 1,
    "trefoil_3max": 1,
    "figure_eight": 1,
    "hopf": 2,
    "torus_2_4": 2,
}


def test_hump_shadow_is_unknotted():
    _, shadow, meta = PLAT_FIXTURES["hump"]()
    assert shadow.n_components == 1
    assert shadow.n_crossings == 0
    assert conway(shadow) == ONE
    assert meta["n_maxima"] == 2


def test_trefoil_shadows():
    for name in ("trefoil_2max", "trefoil_3max"):
        _, shadow, _ = PLAT_FIXTURES[name]()
        assert shadow.n_components == 1
        assert shadow.writhe == 3
        assert conway(shadow) == ONE + Z * Z


def test_figure_eight_shadow():
    _, shadow, _ = PLAT_FIXTURES["figure_eight"]()
    assert shadow.n_components == 1
    assert conway(shadow) == ONE - Z * Z


def test_figure_eight_word_is_frozen():
    assert tuple(FIGURE_EIGHT_PLAT_WORD) == (2, 2, -1, 2)


def test_hopf_shadow():
    _, shadow, _ = PLAT_FIXTURES["hopf"]()
    assert shadow.n_components == 2
    assert linking_matrix_total(shadow) == -1
    assert conway(shadow) == -Z


def test_torus_2_4_shadow():
    # The plat traverses one strand downward, so this is the clasp of
    # four antiparallel negative crossings: lk -2.  Its Conway is -2z,
    # not -(2z + z^3): switching one crossing cancels a pair by a
    # planar move and leaves the antiparallel Hopf (-z), smoothing one
    # merges the components into an unknot (1), so -z - z*1 = -2z.
    _, shadow, _ = PLAT_FIXTURES["torus_2_4"]()
    assert shadow.n_components == 2
    assert linking_matrix_total(shadow) == -2
    assert conway(shadow) == -2 * Z
    parallel = braid_closure([-1, -1, -1, -1], n_strands=2)
    assert conway(parallel) == -2 * Z - Z * Z * Z


@pytest.mark.parametrize("name", ALL_FIXTURE_NAMES)
def test_curves_embed_with_expected_shape(name):
    mk = morse_embed(load_fixture(name))
    assert mk.n_components == EXPECTED_COMPONENTS[name]
    assert mk.n_maxima == EXPECTED_MAXIMA[name]


@pytest.fixture(scope="module")
def regenerated(tmp_path_factory):
    """Directory holding freshly written shipped curve files."""
    path = tmp_path_factory.mktemp("data")
    write_shipped_data(path)
    return path


@pytest.mark.parametrize("name", ALL_FIXTURE_NAMES)
def test_shipped_data_matches_builders(name, regenerated):
    built = curve_from_json(json.loads((regenerated / f"{name}.json").read_text()))
    res = importlib.resources.files("vassiliev.data").joinpath(f"{name}.json")
    shipped = curve_from_json(json.loads(res.read_text()))
    assert len(built) == len(shipped)
    for a, b in zip(built, shipped):
        za = np.array([complex(s[0]) for s in a])
        zb = np.array([complex(s[0]) for s in b])
        ta = np.array([float(s[1]) for s in a])
        tb = np.array([float(s[1]) for s in b])
        assert np.allclose(za, zb, atol=1e-12, rtol=0)
        assert np.allclose(ta, tb, atol=1e-12, rtol=0)


def test_fixtures_load_without_package_data(monkeypatch):
    def unreadable(package):
        raise OSError(f"no package data for {package}")

    monkeypatch.setattr(importlib.resources, "files", unreadable)
    for name in ALL_FIXTURE_NAMES:
        assert len(load_fixture(name)) == EXPECTED_COMPONENTS[name]
    with pytest.raises(KeyError):
        load_fixture("no_such_fixture")


def test_plat_rejects_bad_pairings():
    cases = [
        (((0, 2), (1, 3)), STANDARD_CAPS, [], "cup (0,2) and (1,3) cross"),
        (((0, 1), (1, 3)), STANDARD_CAPS, [], "cup must perfectly pair the 4 lanes"),
        (((0, 5), (1, 2)), STANDARD_CAPS, [], "cup (0, 5) out of range"),
        (STANDARD_CUPS, ((0, 1), (2, 4)), [], "cap (2, 4) out of range"),
        (STANDARD_CUPS, STANDARD_CAPS, [4], "letter 4 out of range for 4 lanes"),
        (STANDARD_CUPS, STANDARD_CAPS, [0], "letter 0 out of range"),
        (STANDARD_CUPS, STANDARD_CAPS, [-4], "letter -4 out of range"),
        (STANDARD_CUPS, STANDARD_CAPS, [("wiggle", 9)], "wiggle lane 9 out of range"),
        (STANDARD_CUPS, STANDARD_CAPS, [("wiggle", -1)], "wiggle lane -1 out of range"),
    ]
    for cups, caps, word, fragment in cases:
        with pytest.raises(ValueError) as err:
            plat(word, 4, cups, caps)
        assert fragment in str(err.value), (cups, caps, word)


def test_plat_curve_and_shadow_describe_the_same_link():
    # 40 seeded 4-lane words: 0-6 letters from +-1..+-3, an optional
    # wiggle, either cap family.
    rng = random.Random(5)
    links = 0
    for _ in range(40):
        word = [rng.choice([1, -1]) * rng.randint(1, 3) for _ in range(rng.randint(0, 6))]
        if rng.random() < 0.5:
            word.insert(rng.randint(0, len(word)), ("wiggle", rng.randrange(4)))
        caps = rng.choice([STANDARD_CAPS, HUMP_CAPS])
        comps, shadow, meta = plat(word, 4, STANDARD_CUPS, caps)
        mk = morse_embed(comps)
        assert mk.n_components == shadow.n_components, word
        assert mk.n_maxima == meta["n_maxima"], word
        if shadow.n_components == 2:
            links += 1
            res, lk = linking_number(mk), linking_matrix_total(shadow)
            assert abs(res.value.real - lk) < 1e-3, word
            assert abs(res.value - lk) <= res.error, word
    assert links >= 5


def test_plat_samples_are_finite_and_in_band():
    comps, shadow, _ = PLAT_FIXTURES["trefoil_2max"]()
    for comp in comps:
        z = np.array([complex(s[0]) for s in comp])
        t = np.array([float(s[1]) for s in comp])
        assert np.all(np.isfinite(z)) and np.all(np.isfinite(t))
        assert t.min() > -2.0 and t.max() < 5.0
        assert z.real.min() > 0.0 and z.real.max() < 5.0


def test_sample_singular_diagrams_seeded():
    rng = random.Random(7)
    batch = sample_singular_diagrams(rng, 2, 5)
    assert len(batch) == 5
    assert all(d.n_nodes == 2 for d in batch)
    rng2 = random.Random(7)
    batch2 = sample_singular_diagrams(rng2, 2, 5)
    assert batch == batch2


def test_sample_singular_diagrams_knot_filter():
    rng = random.Random(11)
    batch = sample_singular_diagrams(rng, 3, 4, one_component=True)
    assert all(d.n_components == 1 for d in batch)
    assert all(d.n_nodes == 3 for d in batch)
