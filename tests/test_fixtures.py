import importlib.resources
import random

import numpy as np
import pytest
from hypothesis import given
from oracles import nested_closure
from strategies import PROPERTIES, braid_words

from vassiliev.codes import SingularDiagram, braid_closure, linking_matrix_total, sample_singular_diagrams
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
from vassiliev.morse import morse_embed
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
    comps, shadow = PLAT_FIXTURES["hump"]()
    assert shadow.n_components == 1
    assert shadow.n_crossings == 0
    assert conway(shadow) == ONE
    assert morse_embed(comps).n_maxima == len(HUMP_CAPS)


def test_trefoil_shadows():
    for name in ("trefoil_2max", "trefoil_3max"):
        shadow = PLAT_FIXTURES[name]()[1]
        assert shadow.n_components == 1
        assert shadow.writhe == 3
        assert conway(shadow) == ONE + Z * Z


def test_figure_eight_shadow():
    shadow = PLAT_FIXTURES["figure_eight"]()[1]
    assert shadow.n_components == 1
    assert conway(shadow) == ONE - Z * Z


def test_figure_eight_word_is_frozen():
    assert tuple(FIGURE_EIGHT_PLAT_WORD) == (2, 2, -1, 2)


def test_hopf_shadow():
    shadow = PLAT_FIXTURES["hopf"]()[1]
    assert shadow.n_components == 2
    assert linking_matrix_total(shadow) == -1
    assert conway(shadow) == -Z


def test_torus_2_4_shadow():
    # The plat traverses one strand downward, so this is the clasp of
    # four antiparallel negative crossings: lk -2.  Its Conway is -2z,
    # not -(2z + z^3): switching one crossing cancels a pair by a
    # planar move and leaves the antiparallel Hopf (-z), smoothing one
    # merges the components into an unknot (1), so -z - z*1 = -2z.
    shadow = PLAT_FIXTURES["torus_2_4"]()[1]
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
    # byte for byte: the recipe, the builders and curve_to_json write the shipped file
    res = importlib.resources.files("vassiliev.data").joinpath(f"{name}.json")
    assert (regenerated / f"{name}.json").read_bytes() == res.read_bytes()


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
        (STANDARD_CUPS, STANDARD_CAPS, [("node", 1)], "unknown plat letter ('node', 1)"),
        (STANDARD_CUPS, STANDARD_CAPS, [1.5], "unknown plat letter 1.5"),
        (STANDARD_CUPS, STANDARD_CAPS, [("wiggle", 1.5)], "unknown plat letter ('wiggle', 1.5)"),
        (STANDARD_CUPS, STANDARD_CAPS, [("wiggle",)], "unknown plat letter ('wiggle',)"),
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
        comps, shadow = plat(word, 4, STANDARD_CUPS, caps)
        mk = morse_embed(comps)
        assert mk.n_components == shadow.n_components, word
        assert mk.n_maxima == len(caps) + sum(isinstance(x, tuple) for x in word), word
        if shadow.n_components == 2:
            links += 1
            res, lk = linking_number(mk), linking_matrix_total(shadow)
            assert abs(res.value.real - lk) < 1e-3, word
            assert abs(res.value - lk) <= res.error, word
    assert links >= 5


@PROPERTIES
@given(braid_words(nodes=False))
def test_nested_closure_shadow_is_the_braid_closure(case):
    word, n = case
    shadow = nested_closure(word, n)[1]
    closure = braid_closure(word, n)
    assert shadow.canonical_key() == closure.canonical_key()
    assert shadow == SingularDiagram(shadow.components, shadow.signs)
    assert linking_matrix_total(shadow) == linking_matrix_total(closure)


def test_nested_closure_linking_number_matches_the_shadow():
    # 8 seeded two-component words on 2-3 strands with 2-7 letters
    rng = random.Random(1)
    links = []
    while len(links) < 8:
        n = rng.randint(2, 3)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(2, 7))]
        if braid_closure(word, n).n_components == 2:
            links.append((word, n))
    for word, n in links:
        comps, shadow = nested_closure(word, n)
        mk = morse_embed(comps)
        assert mk.n_maxima == n, word
        res = linking_number(mk)
        assert abs(res.value - linking_matrix_total(shadow)) <= res.error, word


def test_plat_samples_are_finite_and_in_band():
    comps = PLAT_FIXTURES["trefoil_2max"]()[0]
    for z, t in comps:
        assert z.dtype == complex and t.dtype == float and z.shape == t.shape == (len(t),)
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
