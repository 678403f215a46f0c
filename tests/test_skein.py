import math
import random
import time

import pytest

from vassiliev import skein
from vassiliev.codes import DiagramError, SingularDiagram, braid_closure, parse_gauss, parse_pd
from vassiliev.fixtures import PLAT_FIXTURES, sample_singular_diagrams
from vassiliev.laurent import IntegerLaurentPoly as P
from vassiliev.skein import (
    conway,
    embedding_independence_check,
    extend_invariant,
    finite_type_check,
    v2,
    vassiliev_eval,
)

Z = P.z()

TREFOIL = parse_gauss("O1+U2+O3+U1+O2+U3+")
FIG8 = parse_pd("X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)")


def unknot():
    return braid_closure([], n_strands=1)


def test_conway_unknot():
    assert conway(unknot()) == 1
    assert conway(parse_gauss("O1+U1+")) == 1  # curl
    assert conway(parse_gauss("O1-U1-")) == 1


def test_conway_trefoil():
    assert conway(TREFOIL) == 1 + Z * Z


def test_conway_figure_eight():
    assert conway(FIG8) == 1 - Z * Z


def test_conway_hopf():
    assert conway(braid_closure([1, 1])) == Z
    assert conway(braid_closure([-1, -1])) == -Z


def test_conway_split_zero():
    assert conway(braid_closure([], n_strands=2)) == 0
    # distant trefoil and circle
    split = parse_gauss("O1+U2+O3+U1+O2+U3+;")
    assert split.n_components == 2
    assert conway(split) == 0
    # 8 split Hopf links are too symmetric for a canonical key, which
    # conway never asks for.
    split_hopfs = braid_closure([k for k in range(1, 16, 2) for _ in (0, 1)], 16)
    assert conway(split_hopfs, memo={}) == 0


def test_conway_keychain():
    # A ring with 8 leaves, each Hopf-clasped to it: a connected sum of
    # 8 Hopf links, with 8! * 2^8 leaf arrangements per ring rotation.
    ring, leaves, signs = [], [], {}
    for a in range(0, 16, 2):
        ring += [("O", a), ("U", a + 1)]
        leaves.append([("U", a), ("O", a + 1)])
        signs[a] = signs[a + 1] = 1
    start = time.perf_counter()
    assert conway(SingularDiagram([ring] + leaves, signs), memo={}) == Z.shifted(7)
    assert time.perf_counter() - start < 1.0


def test_conway_torus_2_4():
    # skein at a top crossing: T(2,4) -> Hopf and trefoil
    assert conway(braid_closure([1, 1, 1, 1])) == 2 * Z + Z * Z * Z


def test_conway_left_trefoil_matches():
    left = parse_pd("X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)")
    assert left.writhe == -3
    assert conway(left) == 1 + Z * Z


def test_conway_rejects_nodes():
    d = parse_pd("V(1,2,1,2)")
    with pytest.raises(DiagramError):
        conway(d)


def test_conway_markov_and_braid_relation_regressions():
    base = conway(braid_closure([1, 1, 1]))
    assert conway(braid_closure([1, 1, 1, 2], n_strands=3)) == base
    # R2 pair inserted into the stabilized word keeps one component
    assert conway(braid_closure([1, 1, 1, 2, 2, -2], n_strands=3)) == base
    assert conway(braid_closure([1, 2, 1], n_strands=3)) == conway(
        braid_closure([2, 1, 2], n_strands=3)
    )


def test_conway_skein_relation_on_random_closures():
    rng = random.Random(7)
    for _ in range(25):
        word = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(2, 7))]
        d = braid_closure(word, n_strands=3)
        for sid in d.crossing_ids:
            plus = d if d.sign(sid) > 0 else d.switch_crossing(sid)
            minus = plus.switch_crossing(sid)
            zero = plus.smooth_crossing(sid)
            assert conway(plus) - conway(minus) == Z * conway(zero)


def test_v2_values():
    assert v2(TREFOIL) == 1
    assert v2(FIG8) == -1
    assert v2(unknot()) == 0
    assert v2(TREFOIL.mirror()) == 1


def polyak_viro_v2(knot):
    """Sum of sign(a) * sign(b) over the pairs of crossings whose passages
    are met from the basepoint as a over, b under, a under, b over."""
    (comp,) = knot.components
    at = {token: i for i, token in enumerate(comp)}
    return sum(
        knot.sign(a) * knot.sign(b)
        for a in knot.crossing_ids
        for b in knot.crossing_ids
        if at["O", a] < at["U", b] < at["U", a] < at["O", b]
    )


class CanonicalMemo(dict):
    """A memo for the recursion on planar codes that files each code
    under its canonical key.  Sound because switches and smoothings of a
    planar code are planar, and there the recursion's value is a link
    invariant."""

    def __init__(self):
        super().__init__()
        self.filed = {}  # code as given -> canonical key

    def canonical_key(self, key):
        if key not in self.filed:
            self.filed[key] = SingularDiagram._from_parts(key[0], dict(key[1])).canonical_key()
        return self.filed[key]

    def get(self, key):
        return super().get(self.canonical_key(key))

    def __setitem__(self, key, value):
        super().__setitem__(self.canonical_key(key), value)


def planar_recursion(monkeypatch):
    """The pure recursion (no region route) on planar codes, one
    canonical memo shared by the calls."""
    monkeypatch.setattr(skein, "_region_conway", lambda d: None)
    memo = CanonicalMemo()
    return lambda d: conway(d, memo=memo)


def test_v2_matches_polyak_viro_formula(monkeypatch):
    rng = random.Random(1998)
    knots = sample_singular_diagrams(rng, 0, 300, n_strands=4, max_crossings=10, one_component=True)
    assert {polyak_viro_v2(d) for d in knots} >= {-1, 0, 1, 2}
    for d in knots:
        assert v2(d) == polyak_viro_v2(d), d.to_gauss()
    # The region route against the pure recursion, mirrors included.
    corpus = knots + [d.mirror() for d in knots]
    fast = [conway(d).items() for d in corpus]
    recursion = planar_recursion(monkeypatch)
    assert fast == [recursion(d).items() for d in corpus]


def rotations(d):
    (comp,) = d.components
    return [SingularDiagram([comp[r:] + comp[:r]], d.signs) for r in range(len(comp))]


def test_v2_arrow_count_equals_recursion_on_planar_knots(monkeypatch):
    rng = random.Random(1998)
    knots = sample_singular_diagrams(rng, 0, 300, n_strands=4, max_crossings=10, one_component=True)
    shadow_knots = []
    for name in sorted(PLAT_FIXTURES):
        shadow = PLAT_FIXTURES[name]()[1]
        if shadow.n_components == 1:
            shadow_knots += [shadow, shadow.mirror()]
        else:  # a link shadow enters through its one-component smoothings
            smoothings = map(shadow.smooth_crossing, shadow.crossing_ids)
            shadow_knots += [k for k in smoothings if k.n_components == 1]
    assert len(shadow_knots) > 2 * len(PLAT_FIXTURES)
    rotated = [r for d in knots[:50] for r in rotations(d)]
    corpus = knots + [d.mirror() for d in knots] + shadow_knots + rotated
    assert all(d.is_planar() for d in corpus)
    recursion = planar_recursion(monkeypatch)
    assert [v2(d) for d in corpus] == [recursion(d).coefficient(2) for d in corpus]


def test_v2_arrow_count_on_torus_knots():
    for n in range(1, 202, 2):
        assert v2(braid_closure([1] * n)) == (n * n - 1) // 8, n
        assert v2(braid_closure([-1] * n)) == (n * n - 1) // 8, n


def test_braid_closure_knots_are_planar_and_virtual_trefoil_is_not():
    rng = random.Random(1998)
    knots = sample_singular_diagrams(rng, 0, 100, n_strands=4, max_crossings=10, one_component=True)
    assert all(d.is_planar() for d in knots)
    assert all(d.mirror().is_planar() for d in knots)
    assert TREFOIL.is_planar() and FIG8.is_planar() and unknot().is_planar()
    assert braid_closure([("node", 1), ("node", 2), 1, -2], n_strands=3).is_planar()
    assert braid_closure([1, 1, 3, 3], n_strands=4).is_planar()  # two Hopf links side by side
    virtual = parse_gauss("O1-O2-U1-U2-")
    assert not virtual.is_planar()
    assert skein._region_conway(virtual) is None
    memo = {}
    assert conway(TREFOIL, memo=memo) == 1 + Z * Z and memo == {}  # planar codes skip the memo
    assert conway(braid_closure([1, 1]), memo=memo) == Z and memo == {}  # links too


def test_crossingless_circles_are_planar_split_pieces():
    circles = braid_closure([], 3)
    assert circles.is_planar() and circles.is_split()
    assert not unknot().is_split() and not braid_closure([1, 1]).is_split()
    beside_trefoil = parse_gauss(";O1+U2+O3+U1+O2+U3+")
    assert beside_trefoil.is_planar() and beside_trefoil.is_split()
    assert conway(beside_trefoil) == 0
    assert not parse_gauss("O1-O2-U1-U2-;").is_planar()  # beside the virtual trefoil


def random_gauss_knot(rng, n):
    tokens = [("O", i) for i in range(n)] + [("U", i) for i in range(n)]
    rng.shuffle(tokens)
    return SingularDiagram([tokens], {i: rng.choice((1, -1)) for i in range(n)})


def test_conway_routes_agree_on_random_gauss_codes(monkeypatch):
    rng = random.Random(5)
    codes = [random_gauss_knot(rng, rng.randint(3, 7)) for _ in range(300)]
    planar = [d.is_planar() for d in codes]
    assert 10 <= sum(planar) <= 290
    for d, flat in zip(codes, planar):
        assert (skein._region_conway(d) is None) == (not flat), d.to_gauss()
    fast = [conway(d, memo={}).items() for d in codes]
    monkeypatch.setattr(skein, "_region_conway", lambda d: None)
    assert fast == [conway(d, memo={}).items() for d in codes]


class Forgetful(dict):
    """A memo that stores nothing, so every lookup misses."""

    def __setitem__(self, key, value):
        pass


def memo_free_conway(monkeypatch):
    """The pure recursion (no region route) with no memo at all: its
    value on a code is read from the code's own basepoints."""
    monkeypatch.setattr(skein, "_region_conway", lambda d: None)
    return lambda d: conway(d, memo=Forgetful())


def test_v2_arrow_count_equals_memo_free_recursion_on_virtual_codes(monkeypatch):
    rng = random.Random(12)
    codes = [parse_gauss("O1-O2-U1-U2-")]
    while len(codes) < 201:
        d = random_gauss_knot(rng, rng.randint(1, 7))
        if not d.is_planar():
            codes.append(d)
    codes += [r for d in codes[:20] for r in rotations(d)]
    assert not any(d.is_planar() for d in codes)
    values = [v2(d) for d in codes]
    assert values == [polyak_viro_v2(d) for d in codes]
    assert {-1, 0, 1} <= set(values)
    recursion = memo_free_conway(monkeypatch)
    assert values == [recursion(d).coefficient(2) for d in codes]


def random_virtual_code(rng, n, n_components):
    """A seeded non-planar code with n crossings cut into n_components
    non-empty components, or None when the cut code is planar."""
    tokens = [("O", i) for i in range(n)] + [("U", i) for i in range(n)]
    rng.shuffle(tokens)
    cuts = [0] + sorted(rng.sample(range(1, 2 * n), n_components - 1)) + [2 * n]
    d = SingularDiagram(
        [tokens[a:b] for a, b in zip(cuts, cuts[1:])], {i: rng.choice((1, -1)) for i in range(n)}
    )
    return None if d.is_planar() else d


def test_conway_of_virtual_codes_is_the_memo_free_recursion(monkeypatch):
    rng = random.Random(13)
    codes = []
    while len(codes) < 300:
        d = random_virtual_code(rng, rng.randint(2, 6), rng.choice((1, 2)))
        if d is not None:
            codes.append(d)
    assert {d.n_components for d in codes} == {1, 2}
    # One after another, so a memo shared between calls would show.
    values = [conway(d).items() for d in codes]
    recursion = memo_free_conway(monkeypatch)
    assert values == [recursion(d).items() for d in codes]


def test_virtual_rotations_do_not_depend_on_memo_order():
    rots = rotations(parse_gauss("O1-O2-U1-U2-"))
    memo = {}
    forward = [conway(d, memo=memo) for d in rots]
    backward = [conway(d, memo=memo) for d in reversed(rots)][::-1]
    assert forward == backward == [1, 1 + Z * Z, 1, 1]


def test_conway_torus_knots_closed_form_fast():
    start = time.perf_counter()
    for n in range(1, 52):
        k = n // 2
        if n % 2:
            expected = {2 * j: math.comb(k + j, 2 * j) for j in range(k + 1)}
        else:  # a two-component link
            expected = {2 * j + 1: math.comb(k + j, 2 * j + 1) for j in range(k)}
        assert dict(conway(braid_closure([1] * n)).items()) == expected, n
    assert time.perf_counter() - start < 1.0


def torus_link(p, q):
    return braid_closure(list(range(1, p)) * q, p)


def random_closure_links(rng, count, n_letters=(2, 9)):
    """Seeded non-split braid closures on 2-5 strands with 2-4 components."""
    links = []
    while len(links) < count:
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(*n_letters))]
        d = braid_closure(word, n)
        if 2 <= d.n_components <= 4 and not d.is_split():
            links.append(d)
    return links


def test_region_route_equals_recursion_on_torus_link_ladders(monkeypatch):
    ladders = [torus_link(2, 2 * k) for k in range(1, 8)] + [torus_link(3, 3 * k) for k in range(1, 3)]
    fast = [conway(d).items() for d in ladders]
    recursion = planar_recursion(monkeypatch)
    assert fast == [recursion(d).items() for d in ladders]


def test_region_route_equals_recursion_on_closure_links_and_smoothings(monkeypatch):
    links = random_closure_links(random.Random(14), 80)
    assert {d.n_components for d in links} == {2, 3, 4}
    smoothings = [d.smooth_crossing(sid) for d in links[:20] for sid in d.crossing_ids]
    assert any(d.n_components == 1 for d in smoothings) and any(d.is_split() for d in smoothings)
    corpus = links + smoothings
    fast = [conway(d).items() for d in corpus]
    recursion = planar_recursion(monkeypatch)
    assert fast == [recursion(d).items() for d in corpus]


def with_nugatory_crossing(d, e, rng):
    """d and e joined at one new crossing x, as O(x) d U(x) e: x is a cut
    vertex.  e may be empty, and then x is a curl on d."""
    offset = max(d.crossing_ids, default=-1) + 1
    x = offset + max(e.crossing_ids, default=-1) + 1
    first = list(d.components[0])
    r = rng.randrange(len(first) + 1)
    comps = [[("O", x)] + first[r:] + first[:r] + [("U", x)]] + [list(c) for c in d.components[1:]]
    comps[0] += [(kind, sid + offset) for kind, sid in (e.components[0] if e.components else ())]
    comps += [[(kind, sid + offset) for kind, sid in comp] for comp in e.components[1:]]
    signs = {**d.signs, **{sid + offset: sgn for sid, sgn in e.signs.items()}, x: rng.choice((1, -1))}
    return SingularDiagram(comps, signs)


def shares_an_unstruck_b_and_t_face(d):
    """Some crossing has its B and T corners in one face, and that face
    is not struck from the region matrix."""
    index, face = d._faces()
    for sid, i in index.items():
        b = skein._CORNERS[d.sign(sid)][1]
        f = face[4 * i + (b + 1) % 4]
        if f == face[4 * i + (b + 3) % 4] and f not in (face[0], face[1]):
            return True
    return False


def test_region_route_equals_recursion_on_nugatory_crossings(monkeypatch):
    rng = random.Random(15)
    pieces = sample_singular_diagrams(rng, 0, 80, n_strands=3, max_crossings=5)
    pieces += random_closure_links(rng, 40, n_letters=(2, 5))
    codes = []
    for d, e in zip(pieces, pieces[1:] + pieces[:1]):
        codes.append(with_nugatory_crossing(d, SingularDiagram([], {}), rng))  # a curl
        codes.append(with_nugatory_crossing(d, e, rng))
    codes = [d for d in codes if not d.is_split()]
    assert all(d.is_planar() for d in codes) and len(codes) > 150
    assert sum(map(shares_an_unstruck_b_and_t_face, codes)) > 50
    fast = [conway(d).items() for d in codes]
    recursion = planar_recursion(monkeypatch)
    assert fast == [recursion(d).items() for d in codes]


def test_conway_of_a_mirror_link_is_conway_at_minus_z():
    rng = random.Random(16)
    links = random_closure_links(rng, 150) + random_closure_links(rng, 20, n_letters=(20, 24))
    assert any(conway(d).coefficient(1) for d in links)
    for d in links:
        flipped = {e: (-1) ** e * c for e, c in conway(d).items()}
        assert dict(conway(d.mirror()).items()) == flipped, d.to_gauss()


def test_conway_of_large_links_fast():
    rng = random.Random(24)
    while True:
        word = [rng.choice((1, -1)) * rng.randint(1, 3) for _ in range(rng.randint(20, 24))]
        big = braid_closure(word, 4)
        if big.n_components > 1 and not big.is_split():
            break
    for d in (torus_link(4, 8), big):
        start = time.perf_counter()
        conway(d)
        assert time.perf_counter() - start < 1.0, d.to_gauss()


def test_region_route_raises_on_a_remainder(monkeypatch):
    monkeypatch.setattr(skein, "_bareiss", lambda rows: 2)
    with pytest.raises(ArithmeticError):
        conway(TREFOIL, memo={})


def test_v2_rejects_links_and_nodes():
    with pytest.raises(DiagramError):
        v2(braid_closure([1, 1]))
    with pytest.raises(DiagramError):
        v2(parse_pd("V(1,2,1,2)"))


def test_vassiliev_eval_one_node():
    # node resolved +: trefoil; resolved -: unknot
    d = braid_closure([("node", 1), 1, 1])
    assert vassiliev_eval(conway, d) == Z * Z
    assert vassiliev_eval(lambda g: v2(g), d) == 1


def test_extend_invariant_general_coefficients():
    d = braid_closure([("node", 1), 1, 1])
    ext = extend_invariant(conway, 1, 1, 0)
    # negative resolution R2-cancels to a one-crossing unknot
    assert ext(d) == conway(braid_closure([1, 1, 1])) + conway(braid_closure([1]))
    smooth_only = extend_invariant(conway, 0, 0, 1)
    assert smooth_only(d) == conway(braid_closure([1, 1]))
    poly_coeff = extend_invariant(conway, Z, P.zero(), P.zero())
    assert poly_coeff(d) == Z * conway(braid_closure([1, 1, 1]))
    # all three coefficients zero: zero of the coefficients' type, on one node or more
    two_nodes = [
        braid_closure([("node", 1), ("node", 1), 1]),
        SingularDiagram.from_json_dict({"components": [["P1", "P2", "Q1", "Q2"]], "signs": {}}),
    ]
    for g in [d] + two_nodes:
        assert extend_invariant(conway, 0, 0, 0)(g) == 0
        zero = extend_invariant(conway, P.zero(), P.zero(), P.zero())(g)
        assert isinstance(zero, P) and zero == P.zero()


def test_conway_not_finite_type_but_coefficients_are():
    d = braid_closure([("node", 1), 1, 1])
    ok, failures = finite_type_check(conway, 0, [d])
    assert not ok and len(failures) == 1
    # the z^0 coefficient is type 0: one-node differences vanish
    v0 = lambda g: conway(g).coefficient(0)
    ok, failures = finite_type_check(v0, 0, [d])
    assert ok, failures
    # v2 is not type 1: a two-node witness evaluates to 1
    two = braid_closure([("node", 1), ("node", 1), 1])
    ok, _ = finite_type_check(lambda g: v2(g), 1, [two])
    assert not ok


def test_finite_type_check_rejects_small_diagrams():
    d = braid_closure([("node", 1), 1, 1])
    with pytest.raises(DiagramError):
        finite_type_check(conway, 1, [d])


def test_v2_vanishes_on_three_node_samples():
    rng = random.Random(21)
    count = 0
    while count < 10:
        word = [("node", rng.randint(1, 2)) for _ in range(3)]
        word += [rng.choice([1, -1, 2, -2]) for _ in range(rng.randint(1, 4))]
        rng.shuffle(word)
        d = braid_closure(word, n_strands=3)
        if d.n_components != 1:
            continue
        count += 1
        val = vassiliev_eval(lambda g: v2(g), d)
        assert val == 0, (word, val)


def test_embedding_independence_for_v2():
    d = braid_closure([("node", 1), ("node", 1), 1])
    assert d.n_nodes == 2 and d.n_components == 1
    seqs = [[sid] for sid in d.crossing_ids]
    ok, max_dev, details = embedding_independence_check(
        lambda g: v2(g), 2, d, seqs
    )
    assert ok and max_dev == 0

    bigger = braid_closure([("node", 1), ("node", 2), 1, 2])
    assert bigger.n_nodes == 2 and bigger.n_components == 1
    seqs = [[sid] for sid in bigger.crossing_ids] + [list(bigger.crossing_ids)]
    ok, max_dev, _ = embedding_independence_check(lambda g: v2(g), 2, bigger, seqs)
    assert ok and max_dev == 0


def test_embedding_independence_flags_dependence():
    # conway itself is embedding dependent at one node
    d = braid_closure([("node", 1), 1, 1])
    seqs = [[sid] for sid in d.crossing_ids]
    ok, max_dev, _ = embedding_independence_check(conway, 1, d, seqs)
    assert not ok and max_dev > 0
