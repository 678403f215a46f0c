import json
import random
import re
from fractions import Fraction

import pytest

from vassiliev import cli
from vassiliev.chords import (
    ChordDiagram,
    _partner_tables,
    _rotation_index,
    chord_diagram_of,
    enumerate_diagrams,
    four_term_relations,
    raw_matchings,
    satisfies_4T,
)
from vassiliev.codes import braid_closure, parse_pd, sample_singular_diagrams
from vassiliev.lie import gl_fundamental, weight, weight_system
from vassiliev.skein import conway, vassiliev_eval


def test_counts_match_double_factorial():
    # (2m-1)!! raw matchings
    expected = {0: 1, 1: 1, 2: 3, 3: 15, 4: 105, 5: 945, 6: 10395}
    for m, raw_expected in expected.items():
        diagrams, raw = enumerate_diagrams(m)
        assert raw == raw_expected == sum(1 for _ in raw_matchings(m))
        assert len(set(diagrams)) == len(diagrams)
        for d in diagrams:
            assert d.degree == m


def test_negative_degree_raises():
    with pytest.raises(ValueError):
        enumerate_diagrams(-1)
    enumerate_diagrams(2)
    with pytest.raises(ValueError):
        enumerate_diagrams(-1)
    with pytest.raises(ValueError):
        list(raw_matchings(-1))


def test_degree_refusals_name_the_degree():
    fractional, negative = "degree 2.5 is not an integer", "degree must be at least 0, not -1"
    cases = [
        (lambda: enumerate_diagrams(2.5), fractional),
        (lambda: four_term_relations(2.5), fractional),
        (lambda: raw_matchings(2.5), fractional),
        (lambda: satisfies_4T(lambda d: 1, 2.5), fractional),
        (lambda: weight_system(gl_fundamental(2), 2.5), fractional),
        (lambda: satisfies_4T(lambda d: 1, -1), negative),
        (lambda: raw_matchings(-1), negative),  # refused on the call, not on the first draw
    ]
    for call, fragment in cases:
        with pytest.raises(ValueError) as err:
            call()
        assert fragment in str(err.value)


def _least_chord(partner):
    n = len(partner)
    return min((min(j - i, n - j + i) for i, j in enumerate(partner) if i < j), default=n)


def test_partner_tables_bound_equals_filtering_by_least_chord():
    for n in range(13):
        tables = list(_partner_tables(n))
        for shortest in range(1, n // 2 + 1):
            kept = [t for t in tables if _least_chord(t) >= shortest]
            assert list(_partner_tables(n, shortest)) == kept, (n, shortest)


def test_canonical_class_counts():
    # distinct diagrams up to rotation; frozen from a first run and
    # cross-checked at low degree by hand (m=2: crossed and parallel)
    counts = [len(enumerate_diagrams(m)[0]) for m in range(7)]
    assert counts[0] == 1
    assert counts[1] == 1
    assert counts[2] == 2
    assert counts[3] == 5
    assert counts == [1, 1, 2, 3 + 2, 18, 105, 902]


def pair_matchings(points):
    """Perfect matchings of a point list as lists of pairs, recursively."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, second in enumerate(rest):
        for sub in pair_matchings(rest[:i] + rest[i + 1 :]):
            yield [(first, second)] + sub


def pair_built_relations(m):
    """Four-term relations built from point pairs through the checked
    constructor, deduplicated up to an overall sign."""
    fixed = 2 * m - 2
    relations, seen = [], set()
    for matching in pair_matchings(list(range(fixed))):
        for k1, k2 in matching:
            terms = []
            for gap, sign in ((k1, 1), (k1 + 1, -1), (k2, 1), (k2 + 1, -1)):
                def lift(p, gap=gap):
                    return p + 1 if p >= gap else p

                pairs = [(lift(a), lift(b)) for a, b in matching] + [(gap, lift(fixed))]
                terms.append((sign, ChordDiagram(pairs)))
            key = min(tuple(sorted((d.partner, s * e) for s, d in terms)) for e in (1, -1))
            if key not in seen:
                seen.add(key)
                relations.append(tuple(terms))
    return relations


def test_raw_matchings_match_pair_recursion():
    for m in range(7):
        assert list(raw_matchings(m)) == list(pair_matchings(list(range(2 * m))))


def test_enumerate_diagrams_matches_per_matching_oracle():
    for m in range(7):
        diagrams, _ = enumerate_diagrams(m)
        assert diagrams == sorted({ChordDiagram(mt) for mt in raw_matchings(m)})
        for d in diagrams:
            assert ChordDiagram(d.pairs()).partner == d.partner


def test_four_term_relations_match_pair_built_oracle():
    for m, count in ((2, 1), (3, 4), (4, 34), (5, 396), (6, 4597)):
        relations = four_term_relations(m)
        assert len(relations) == count
        assert relations == pair_built_relations(m)
        for rel in relations:
            for _, d in rel:
                assert ChordDiagram(d.pairs()).partner == d.partner


def test_enumerate_diagrams_return_a_fresh_list():
    first, raw = enumerate_diagrams(3)
    expected = list(first)
    first.pop()
    first[0] = None
    assert enumerate_diagrams(3) == (expected, raw)
    assert enumerate_diagrams(3)[0] is not enumerate_diagrams(3)[0]


def test_rotation_index_maps_every_raw_table_to_its_diagram():
    for m in range(1, 6):
        diagrams, _ = enumerate_diagrams(m)
        index = _rotation_index(m)
        assert sorted(index) == list(_partner_tables(2 * m))
        for table, position in index.items():
            pairs = [(i, j) for i, j in enumerate(table) if i < j]
            assert diagrams[position] == ChordDiagram(pairs), table


def test_four_term_relations_return_a_fresh_list():
    first = four_term_relations(3)
    expected = list(first)
    first.pop()
    first[0] = None
    assert four_term_relations(3) == expected
    assert four_term_relations(3) is not four_term_relations(3)


def test_satisfies_4T_weighs_each_distinct_diagram_once():
    calls = []

    def weight_fn(d):
        calls.append(d)
        return _crossing_pairs(d)

    ok, _ = satisfies_4T(weight_fn, 4)
    assert ok
    distinct = {d for rel in four_term_relations(4) for _, d in rel}
    assert len(calls) == len(set(calls)) == len(distinct) == 18
    assert set(calls) == distinct


def chords_json(capsys, argv):
    assert cli.main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_chords_matches_pair_built_oracle(capsys):
    for m in range(7):
        matchings = list(pair_matchings(list(range(2 * m))))
        canonical = sorted({ChordDiagram(mt) for mt in matchings})
        payload = chords_json(capsys, ["chords", "enumerate", str(m)])
        assert payload["raw_count"] == len(matchings)
        assert payload["raw_matchings"] == [
            ",".join(f"{a}-{b}" for a, b in mt) or "(empty)" for mt in matchings
        ]
        assert payload["canonical_count"] == len(canonical)
        assert payload["canonical"] == [str(d) for d in canonical]
        if m < 2:
            assert cli.main(["chords", "4t", str(m)]) == 3
            capsys.readouterr()
            continue
        relations = pair_built_relations(m)
        payload = chords_json(capsys, ["chords", "4t", str(m)])
        assert payload["n_relations"] == len(relations)
        assert payload["relations"] == [
            [{"sign": s, "diagram": str(d)} for s, d in rel] for rel in relations
        ]


def test_rotation_invariance_of_canonical_form():
    d1 = ChordDiagram([(0, 2), (1, 3)])
    d2 = ChordDiagram([(1, 3), (0, 2)])
    assert d1 == d2
    parallel_a = ChordDiagram([(0, 1), (2, 3)])
    parallel_b = ChordDiagram([(0, 3), (1, 2)])
    assert parallel_a == parallel_b
    assert d1 != parallel_a


def brute_force_canonical(pairs):
    n = 2 * len(pairs)
    partner = [0] * n
    for a, b in pairs:
        partner[a], partner[b] = b, a
    return min(
        (tuple((partner[(i + r) % n] - r) % n for i in range(n)) for r in range(n)),
        default=(),
    )


def test_canonical_form_is_least_rotation():
    matchings = [m for deg in range(6) for m in raw_matchings(deg)]
    rng = random.Random(6)
    for deg in (6, 7):
        for _ in range(1000):
            points = list(range(2 * deg))
            rng.shuffle(points)
            matchings.append(list(zip(points[::2], points[1::2])))
    for pairs in matchings:
        assert ChordDiagram(pairs).partner == brute_force_canonical(pairs), pairs


def test_pairs_and_isolated_chords():
    crossed = ChordDiagram([(0, 2), (1, 3)])
    assert crossed.isolated_chords() == ()
    parallel = ChordDiagram([(0, 1), (2, 3)])
    assert len(parallel.isolated_chords()) == 2
    assert ChordDiagram([]).degree == 0
    assert str(ChordDiagram([])) == "(empty)"


def test_validation():
    cases = [
        ([(0, 0)], "chord (0, 0) pairs a point with itself"),
        ([(0, 1), (1, 2)], "point 1 used twice"),
        ([(0, 5)], "point 5 out of range for 1 chords"),
        # endpoints are integers, never truncated or parsed
        ([(1.5, 0.2)], "chord endpoint 1.5 is not an integer"),
        ([("0", 1)], "chord endpoint '0' is not an integer"),
    ]
    for pairs, fragment in cases:
        with pytest.raises(ValueError) as err:
            ChordDiagram(pairs)
        assert fragment in str(err.value), pairs


def test_equality_with_another_type_is_not_implemented():
    crossed = ChordDiagram(((0, 2), (1, 3)))
    for other in (None, 2, "0-2,1-3", ((0, 2), (1, 3)), crossed.partner):
        assert crossed.__eq__(other) is NotImplemented, other
        assert crossed != other, other


def test_concat():
    one = ChordDiagram([(0, 1)])
    prod = one.concat(one)
    assert prod.degree == 2
    assert prod == ChordDiagram([(0, 1), (2, 3)])
    assert ChordDiagram([]).concat(one) == one


def test_ordering_and_concat_refuse_another_type():
    crossed = ChordDiagram(((0, 2), (1, 3)))
    for other, name in ((None, "NoneType"), (5, "int"), (((0, 1),), "tuple"), (crossed.partner, "tuple")):
        assert crossed.__lt__(other) is NotImplemented, other
        with pytest.raises(TypeError, match="^'<' not supported"):
            crossed < other
        with pytest.raises(TypeError) as err:
            crossed.concat(other)
        assert str(err.value) == f"ChordDiagram.concat expects a ChordDiagram as other, not {name}"


def test_chord_diagram_of_singular_diagrams():
    lemniscate = parse_pd("V(1,2,1,2)")
    assert chord_diagram_of(lemniscate) == ChordDiagram([(0, 1)])
    two = braid_closure([("node", 1), ("node", 1), 1])
    cd = chord_diagram_of(two)
    assert cd.degree == 2
    with pytest.raises(ValueError):
        chord_diagram_of(braid_closure([1, 1]))


def test_conway_symbol_is_the_one_loop_weight_system():
    # The z^m coefficient of the Conway extension on a knot with m nodes
    # is 1 when its chord diagram has one index loop (a gl(2) weight of
    # 2^loops / 2^m), else 0; every lower coefficient vanishes.
    gl2 = gl_fundamental(2)
    reached = []
    for m in range(1, 5):
        knots = sample_singular_diagrams(random.Random(11), m, 40, n_strands=4, max_crossings=6,
                                         one_component=True)
        for d in knots:
            value, diagram = vassiliev_eval(conway, d), chord_diagram_of(d)
            assert [value.coefficient(k) for k in range(m)] == [0] * m
            assert value.coefficient(m) == (weight(gl2, diagram) * 2**m == 2)
        reached.append(len({chord_diagram_of(d) for d in knots}))
    assert reached == [1, 2, 5, 15]


def test_four_term_requires_degree_two():
    with pytest.raises(ValueError):
        four_term_relations(1)
    with pytest.raises(ValueError):
        four_term_relations(0)


def test_four_term_structure():
    rels = four_term_relations(2)
    assert len(rels) >= 1
    for rel in rels:
        assert len(rel) == 4
        assert sorted(s for s, _ in rel) == [-1, -1, 1, 1]
        for _, d in rel:
            assert d.degree == 2
    rels3 = four_term_relations(3)
    assert len(rels3) > 1
    for rel in rels3:
        for _, d in rel:
            assert d.degree == 3


def test_degree_two_relations_are_formally_trivial():
    # at degree 2 the four terms cancel in pairs for any weight function
    for rel in four_term_relations(2):
        combined = {}
        for s, d in rel:
            combined[d] = combined.get(d, 0) + s
        assert all(v == 0 for v in combined.values())


def _crossing_pairs(d):
    cnt = 0
    prs = d.pairs()
    for i in range(len(prs)):
        for j in range(i + 1, len(prs)):
            a, b = sorted(prs[i])
            c, e = sorted(prs[j])
            if a < c < b < e or c < a < e < b:
                cnt += 1
    return cnt


def test_satisfies_4T_accepts_invariant_counts():
    # constants, the chord count, and the crossing count all satisfy 4T:
    # hopping the free end past the two ends of the target chord toggles
    # their crossing in opposite directions, so the relation telescopes
    ok, _ = satisfies_4T(lambda d: 1, 3)
    assert ok
    ok, _ = satisfies_4T(lambda d: d.degree, 3)
    assert ok
    ok, _ = satisfies_4T(_crossing_pairs, 3)
    assert ok


def test_satisfies_4T_below_degree_two():
    # degrees 0 and 1 have no relation, so the weight is never read;
    # a negative degree has no diagrams
    for m in (0, 1):
        assert satisfies_4T(lambda d: 1 / 0, m) == (True, None)
    with pytest.raises(ValueError):
        satisfies_4T(lambda d: 1, -1)


def test_satisfies_4T_refuses_float_weights():
    # 4T is checked exactly; a float or complex weight is refused, naming
    # its diagram, rather than compared within a tolerance
    crossed = ChordDiagram(((0, 2), (1, 3)))
    with pytest.raises(TypeError, match=re.escape(f"weight of {crossed} is float")):
        satisfies_4T(lambda d: -0.375 if d == crossed else Fraction(9, 8), 2)
    with pytest.raises(TypeError, match="complex"):
        satisfies_4T(lambda d: 1 + 0j, 3)


def test_satisfies_4T_rejects_an_indicator():
    # an indicator of one diagram with nonzero net coefficient in some
    # relation cannot satisfy 4T
    target = None
    for rel in four_term_relations(3):
        combined = {}
        for s, d in rel:
            combined[d] = combined.get(d, 0) + s
        for d, net in combined.items():
            if net != 0:
                target = d
                break
        if target is not None:
            break
    assert target is not None, "degree 3 should have nontrivial relations"
    ok, counterexample = satisfies_4T(lambda e: 1 if e == target else 0, 3)
    assert not ok
    relation, total = counterexample
    assert total != 0
