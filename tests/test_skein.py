import math
import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st
from oracles import conway_recursion, polyak_viro_v2
from strategies import PROPERTIES, braid_words

from vassiliev import skein
from vassiliev.codes import (
    DiagramError,
    SingularDiagram,
    braid_closure,
    parse_gauss,
    parse_pd,
    sample_singular_diagrams,
)
from vassiliev.fixtures import PLAT_FIXTURES
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
    assert conway(split_hopfs) == 0


def test_conway_keychain():
    # A ring with 8 leaves, each Hopf-clasped to it: a connected sum of
    # 8 Hopf links, with 8! * 2^8 leaf arrangements per ring rotation.
    ring, leaves, signs = [], [], {}
    for a in range(0, 16, 2):
        ring += [("O", a), ("U", a + 1)]
        leaves.append([("U", a), ("O", a + 1)])
        signs[a] = signs[a + 1] = 1
    start = time.perf_counter()
    assert conway(SingularDiagram([ring] + leaves, signs)) == Z.shifted(7)
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


@PROPERTIES
@given(braid_words(nodes=False), st.data())
def test_conway_skein_relation_on_drawn_braid_words(case, data):
    # The braid letter k, made positive or negative or removed, is the
    # crossing of L+, of L- or its oriented smoothing in L0.
    word, n = case
    k = data.draw(st.integers(0, len(word) - 1))
    i = abs(word[k])
    plus, minus, zero = (
        braid_closure(word[:k] + letter + word[k + 1 :], n) for letter in ([i], [-i], [])
    )
    assert conway(plus) - conway(minus) == Z * conway(zero)


def test_v2_values():
    assert v2(TREFOIL) == 1
    assert v2(FIG8) == -1
    assert v2(unknot()) == 0
    assert v2(TREFOIL.mirror()) == 1


def test_v2_matches_polyak_viro_formula():
    rng = random.Random(1998)
    knots = sample_singular_diagrams(rng, 0, 300, n_strands=4, max_crossings=10, one_component=True)
    assert {polyak_viro_v2(d) for d in knots} >= {-1, 0, 1, 2}
    for d in knots:
        assert v2(d) == polyak_viro_v2(d), d.to_gauss()
    # The region route against the recursion, mirrors included.
    corpus = knots + [d.mirror() for d in knots]
    assert [conway(d).items() for d in corpus] == [conway_recursion(d).items() for d in corpus]


def rotations(d):
    (comp,) = d.components
    return [SingularDiagram([comp[r:] + comp[:r]], d.signs) for r in range(len(comp))]


def test_v2_arrow_count_equals_recursion_on_planar_knots():
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
    memo = {}  # planar values are link invariants, so the corpus shares one memo
    assert [v2(d) for d in corpus] == [conway_recursion(d, memo).coefficient(2) for d in corpus]
    # A shared memo answers each rotation from its first; recurse afresh
    # from every basepoint of a few knots.
    rotated = [r for d in knots[:5] for r in rotations(d)]
    assert [v2(d) for d in rotated] == [conway_recursion(d).coefficient(2) for d in rotated]


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
    with pytest.raises(DiagramError, match="virtual"):
        conway(virtual)


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


def test_conway_routes_agree_on_random_gauss_codes():
    rng = random.Random(5)
    codes = [random_gauss_knot(rng, rng.randint(3, 7)) for _ in range(300)]
    planar = [d.is_planar() for d in codes]
    assert 10 <= sum(planar) <= 290
    for d, flat in zip(codes, planar):
        if flat:
            assert conway(d).items() == conway_recursion(d).items(), d.to_gauss()
        else:
            with pytest.raises(DiagramError, match="virtual"):
                conway(d)


def test_v2_arrow_count_equals_memo_free_recursion_on_virtual_codes():
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
    assert values == [conway_recursion(d).coefficient(2) for d in codes]


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


def test_conway_refuses_virtual_codes():
    rng = random.Random(13)
    codes = []
    while len(codes) < 300:
        d = random_virtual_code(rng, rng.randint(2, 6), rng.choice((1, 2)))
        if d is not None:
            codes.append(d)
    assert {d.n_components for d in codes} == {1, 2}
    # conway answers a split code 0 before it asks planarity, and the
    # recursion gives 0 there from every basepoint.  One code is split.
    assert sum(d.is_split() for d in codes) == 1
    for d in codes:
        if d.is_split():
            assert conway(d) == 0 == conway_recursion(d)
        else:
            with pytest.raises(DiagramError, match="virtual"):
                conway(d)


def test_virtual_rotations_move_the_recursion_and_conway_refuses_them():
    # The recursion's value moves with the basepoint, which is why
    # conway refuses virtual codes.
    rots = rotations(parse_gauss("O1-O2-U1-U2-"))
    assert [conway_recursion(d) for d in rots] == [1, 1 + Z * Z, 1, 1]
    for d in rots:
        with pytest.raises(DiagramError, match="virtual"):
            conway(d)


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


def test_region_route_equals_recursion_on_torus_link_ladders():
    ladders = [torus_link(2, 2 * k) for k in range(1, 8)] + [torus_link(3, 3 * k) for k in range(1, 3)]
    fast = [conway(d).items() for d in ladders]
    assert fast == [conway_recursion(d).items() for d in ladders]


def test_region_route_equals_recursion_on_closure_links_and_smoothings():
    links = random_closure_links(random.Random(14), 80)
    assert {d.n_components for d in links} == {2, 3, 4}
    smoothings = [d.smooth_crossing(sid) for d in links[:20] for sid in d.crossing_ids]
    assert any(d.n_components == 1 for d in smoothings) and any(d.is_split() for d in smoothings)
    corpus = links + smoothings
    fast = [conway(d).items() for d in corpus]
    assert fast == [conway_recursion(d).items() for d in corpus]


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


def test_region_route_equals_recursion_on_nugatory_crossings():
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
    assert fast == [conway_recursion(d).items() for d in codes]


def test_conway_of_a_mirror_link_is_conway_at_minus_z():
    rng = random.Random(16)
    links = random_closure_links(rng, 150) + random_closure_links(rng, 20, n_letters=(20, 24))
    assert any(conway(d).coefficient(1) for d in links)
    for d in links:
        flipped = {e: (-1) ** e * c for e, c in conway(d).items()}
        assert dict(conway(d.mirror()).items()) == flipped, d.to_gauss()


def test_conway_multiplies_and_v2_adds_under_connected_sum():
    # beta1 on strands 1..a and beta2 shifted onto strands a..a+b-1 close
    # to the connected sum of their closures along strand a.
    rng = random.Random(7)
    pairs = knots = 0
    while pairs < 150:
        (a, w1), (b, w2) = [
            (n, [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 7))])
            for n in (rng.randint(2, 4), rng.randint(2, 4))
        ]
        k1, k2 = braid_closure(w1, a), braid_closure(w2, b)
        if k1.is_split() or k2.is_split():
            continue
        pairs += 1
        shifted = [x + a - 1 if x > 0 else x - a + 1 for x in w2]
        total = braid_closure(w1 + shifted, a + b - 1)
        assert conway(total) == conway(k1) * conway(k2), (w1, w2)
        if total.n_components == 1:
            knots += 1
            assert v2(total) == v2(k1) + v2(k2), (w1, w2)
    assert knots >= 20


knot_words = braid_words(nodes=False).filter(lambda case: braid_closure(*case).n_components == 1)


@PROPERTIES
@given(knot_words, knot_words, st.data())
def test_conway_multiplies_and_v2_adds_when_gauss_codes_are_joined(case1, case2, data):
    # Cutting each knot at a basepoint and joining the two arcs gives a
    # connected sum, whose Gauss code is the two codes read one after the other.
    k1, k2 = braid_closure(*case1), braid_closure(*case2)
    tokens, signs = [], {}
    for k, offset in ((k1, 0), (k2, k1.n_crossings)):
        (comp,) = k.components
        r = data.draw(st.integers(0, len(comp) - 1))
        tokens += [(kind, sid + offset) for kind, sid in comp[r:] + comp[:r]]
        signs.update({sid + offset: sgn for sid, sgn in k.signs.items()})
    total = SingularDiagram([tokens], signs)
    assert total.is_planar()
    assert conway(total) == conway(k1) * conway(k2)
    assert v2(total) == v2(k1) + v2(k2)


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


def test_region_route_raises_on_a_remainder():
    # The trefoil's minor at n = 3 is s^3 * (1 + (s - 1/s)^2) = s^5 - s^3 + s, s = 17.
    assert skein._nabla(17**5 - 17**3 + 17, 3) == 1 + Z * Z
    for minor in (2, 17**5 - 17**3 + 18, 17**7):
        with pytest.raises(ArithmeticError):
            skein._nabla(minor, 3)


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
        braid_closure([("node", 1), ("node", 2), 1, 2]),
    ]
    for g in [d] + two_nodes:
        assert extend_invariant(conway, 0, 0, 0)(g) == 0
        zero = extend_invariant(conway, P.zero(), P.zero(), P.zero())(g)
        assert isinstance(zero, P) and zero == P.zero()
    # Two nodes whose resolutions are virtual: conway refuses them.
    virtual = SingularDiagram.from_json_dict({"components": [["P1", "P2", "Q1", "Q2"]], "signs": {}})
    assert not virtual.is_planar()
    for coeffs in ((1, 1, 0), (0, 0, 0)):
        with pytest.raises(DiagramError, match="virtual"):
            extend_invariant(conway, *coeffs)(virtual)


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


def test_embedding_independence_check_needs_exactly_k_nodes():
    d = braid_closure([("node", 1), 1, 1])
    with pytest.raises(DiagramError, match="expected exactly 2 nodes, got 1"):
        embedding_independence_check(v2, 2, d, [])
