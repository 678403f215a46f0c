import collections
import itertools
import json
import random
import re
import time

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from oracles import canonical_key_search, first_bad_crossing, parse_gauss_loop, smooth_crossing
from strategies import PROPERTIES, braid_words

from vassiliev.codes import (
    DiagramError,
    ParseError,
    SingularDiagram,
    braid_closure,
    linking_matrix_total,
    parse_gauss,
    parse_pd,
    sample_singular_diagrams,
)

TREFOIL_GAUSS = "O1+U2+O3+U1+O2+U3+"
TREFOIL_PD = "X(1,4,2,5) X(3,6,4,1) X(5,2,6,3)"
FIG8_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"


def test_parse_gauss_trefoil():
    d = parse_gauss(TREFOIL_GAUSS)
    assert d.n_crossings == 3
    assert d.n_nodes == 0
    assert d.n_components == 1
    assert d.writhe == 3


def test_parse_gauss_empty():
    for parse in (parse_gauss, parse_pd):
        for text in ("", "  \n"):
            with pytest.raises(ParseError, match="empty diagram input"):
                parse(text)
    with pytest.raises(DiagramError, match="cannot express the empty diagram"):
        SingularDiagram((), {}).to_pd()


def test_parse_gauss_curl():
    d = parse_gauss("O1+U1+")
    assert d.n_crossings == 1
    assert d.n_components == 1
    assert d.writhe == 1


def test_parsers_refuse_what_is_not_text():
    for parse in (parse_gauss, parse_pd):
        for text, name in ((5, "int"), (b"O1+U1+", "bytes"), (None, "NoneType")):
            with pytest.raises(TypeError) as err:
                parse(text)
            assert str(err.value) == f"{parse.__name__} expects a str as text, not {name}"


def test_parse_gauss_multicomponent():
    d = parse_gauss("O1+U2+;U1+O2+")
    assert d.n_components == 2
    assert d.n_crossings == 2
    assert linking_matrix_total(d) == 1


def test_parse_gauss_rejects_garbage():
    with pytest.raises(ParseError):
        parse_gauss("O1+U1")
    with pytest.raises(ParseError):
        parse_gauss("O1+X2-U1+")
    with pytest.raises(ParseError):
        parse_gauss("O1+U1-")  # mismatched signs
    with pytest.raises(ParseError):
        parse_gauss("O1+O1+")  # twice over
    with pytest.raises(ParseError):
        parse_gauss("O1+U1+O2+")  # unmatched crossing


def test_parse_pd_trefoil():
    d = parse_pd(TREFOIL_PD)
    assert d.n_crossings == 3
    assert d.n_components == 1
    assert d.writhe == -3  # standard code gives the left-handed picture
    assert set(d.signs.values()) == {-1}


def test_parse_pd_figure_eight():
    d = parse_pd(FIG8_PD)
    assert d.n_crossings == 4
    assert d.n_components == 1
    assert d.writhe == 0


def test_parse_pd_positive_curl():
    d = parse_pd("X(1,1,2,2)")
    assert d.n_crossings == 1
    assert d.n_components == 1
    assert d.writhe == 1


def test_parse_pd_node_lemniscate():
    d = parse_pd("V(1,2,1,2)")
    assert d.n_nodes == 1
    assert d.n_crossings == 0
    assert d.n_components == 1


def test_parse_pd_node_split_pair():
    d = parse_pd("V(1,1,2,2)")
    assert d.n_nodes == 1
    assert d.n_components == 2


def test_parse_pd_rejects_bad_arcs():
    with pytest.raises(ParseError):
        parse_pd("X(1,2,3,4)")  # arcs appear once only
    with pytest.raises(ParseError):
        parse_pd("X(1,1,1,2)")
    with pytest.raises(ParseError):
        parse_pd("frob(1,2,3,4)")


def test_pd_gauss_roundtrip_trefoil():
    d = parse_gauss(TREFOIL_GAUSS)
    again = parse_pd(d.to_pd())
    assert again == d
    assert parse_gauss(d.to_gauss()) == d


def test_pd_roundtrip_figure_eight():
    d = parse_pd(FIG8_PD)
    assert parse_pd(d.to_pd()) == d


def relabelled_pd(text, rng, shift):
    """PD text with its arcs renamed (a cyclic shift by `shift` or, for
    shift None, a random permutation onto larger labels) and its entries
    shuffled."""
    entries = re.findall(r"([XV])\((\d+),(\d+),(\d+),(\d+)\)", text)
    arcs = sorted({int(a) for entry in entries for a in entry[1:]})
    if shift is None:
        new = rng.sample(range(10, 10 + 3 * len(arcs)), len(arcs))
    else:
        new = arcs[shift % len(arcs) :] + arcs[: shift % len(arcs)]
    rename = dict(zip(arcs, new))
    rng.shuffle(entries)
    return " ".join("%s(%d,%d,%d,%d)" % (typ, *(rename[int(a)] for a in arcs4)) for typ, *arcs4 in entries)


def test_parse_pd_recovers_knots_from_relabelled_and_shuffled_text():
    rng = random.Random(11)
    knots = [d for d in seeded_diagrams(rng) if d.n_components == 1 and d.n_crossings]
    assert len(knots) == 115
    for d in knots:
        text = d.to_pd()
        for shift in (0, rng.randrange(1, 4 * d.n_crossings), None):
            assert parse_pd(relabelled_pd(text, rng, shift)) == d, text


def test_parse_pd_orients_over_only_circuits_by_numbering_then_positive():
    # the unders close on arcs 1 and 2; the overs form a circuit of their own
    assert parse_pd("X(1,3,2,4) X(2,4,1,3)").signs == {0: -1, 1: -1}  # d = b + 1
    assert parse_pd("X(1,4,2,3) X(2,3,1,4)").signs == {0: 1, 1: 1}  # b = d + 1
    assert parse_pd("X(1,5,2,3) X(2,3,1,5)").signs == {0: 1, 1: 1}  # neither: positive


def test_parse_pd_keeps_entry_order_and_starts_at_least_passage():
    hopf = parse_pd("X(4,1,3,2) X(1,4,2,3)")
    assert hopf.components == ((("O", 0), ("U", 1)), (("U", 0), ("O", 1)))
    assert list(hopf.signs) == [0, 1]
    trefoil = parse_pd(TREFOIL_PD)
    assert trefoil.components == ((("O", 0), ("U", 2), ("O", 1), ("U", 0), ("O", 2), ("U", 1)),)


def test_parse_pd_rejects_node_strands_that_collide():
    for text in ("V(2,1,1,2)", "V(1,2,2,1)"):
        with pytest.raises(ParseError):
            parse_pd(text)


def mutated(text, rng):
    """text with one character deleted or inserted, one sign flipped, or
    whitespace or a ';' added."""
    i = rng.randrange(len(text) + 1)
    how = rng.randrange(4)
    if how == 0 and text:
        i = min(i, len(text) - 1)
        return text[:i] + text[i + 1 :]
    if how == 1:
        return text[:i] + rng.choice("OU+-;0123456789 \tXo") + text[i:]
    signs = [j for j, c in enumerate(text) if c in "+-"]
    if how == 2 and signs:
        j = rng.choice(signs)
        return text[:j] + "+-"[text[j] == "+"] + text[j + 1 :]
    return text[:i] + rng.choice((" ", "\t", "\n", ";", " ; ", "\u00a0")) + text[i:]


def random_words(rng, count, nodes=0):
    """(word, n_strands) pairs: 2 to 5 strands, up to 10 crossings and the
    given number of nodes."""
    words = []
    for _ in range(count):
        n = rng.randint(2, 5)
        word = [rng.choice((1, -1)) * rng.randint(1, n - 1) for _ in range(rng.randint(1, 10))]
        word += [("node", rng.randint(1, n - 1)) for _ in range(nodes)]
        rng.shuffle(word)
        words.append((word, n))
    return words


def gauss_corpus(rng):
    """Gauss texts of sampled closures and links, each with four mutants."""
    diagrams = sample_singular_diagrams(rng, 0, 150, n_strands=4, max_crossings=9)
    diagrams += [braid_closure(*case) for case in random_words(rng, 150)]
    texts = []
    for d in diagrams:
        if any(d.components):
            text = d.to_gauss()
            texts += [text, mutated(text, rng), mutated(text, rng), mutated(text, rng)]
            texts.append(mutated(mutated(text, rng), rng))
    return texts


def outcome(parse, text):
    try:
        d = parse(text)
    except Exception as exc:
        return type(exc), str(exc), getattr(exc, "position", None)
    return d.components, list(d.signs.items()), d.node_ids


def test_parse_gauss_matches_the_loop_parser_on_codes_and_mutants():
    texts = gauss_corpus(random.Random(26))
    counts = collections.Counter()
    for text in texts + ["", " ;", "\u00a0O1+U1+\u2003", "O1+ x", "O1+U1-x", "O1+O1+;U1+U1+"]:
        got = outcome(parse_gauss, text)
        assert got == outcome(parse_gauss_loop, text), text
        counts[re.sub(r"\d+", "N", got[1].split(" (at")[0]) if got[0] is ParseError else "parsed"] += 1
    assert counts["parsed"] > 300
    assert counts["malformed Gauss token"] > 50
    assert counts["crossing N appears with mismatched signs"] > 50
    assert counts["crossing N must appear exactly once as O and once as U"] > 50


def built_diagrams(rng):
    """Outputs of the library's builders: braid closures with up to two
    nodes, parse_gauss of their Gauss texts and of the mutants that parse,
    and parse_pd of their PD texts and of random PD texts that parse."""
    closures = [braid_closure(*case) for k in range(3) for case in random_words(rng, 100, nodes=k)]
    out = list(closures)
    for text in gauss_corpus(rng):
        try:
            out.append(parse_gauss(text))
        except ParseError:
            pass
    for d in closures:
        if all(d.components):
            text = d._pd_text_unchecked()
            out += [parse_pd(text), parse_pd(relabelled_pd(text, rng, None))]
    for _ in range(2000):
        n = rng.randint(1, 4)
        arcs = list(range(1, 2 * n + 1)) * 2
        rng.shuffle(arcs)
        text = " ".join(rng.choice("XV") + "(%d,%d,%d,%d)" % tuple(arcs[4 * e : 4 * e + 4]) for e in range(n))
        try:
            out.append(parse_pd(text))
        except ParseError:
            pass
    return out


def test_builders_prove_what_validation_would():
    diagrams = built_diagrams(random.Random(27))
    assert sum(d.n_nodes > 0 for d in diagrams) > 300
    for d in diagrams:
        fresh = SingularDiagram(d.components, d.signs)
        assert fresh.components == d.components
        assert list(fresh.signs.items()) == list(d.signs.items())
        assert fresh.node_ids == d.node_ids
        assert fresh == d


def test_moves_carry_the_node_set():
    for d in built_diagrams(random.Random(28))[::3]:
        kept, changed = one_step_moves(d)
        for moved in kept + changed:
            tokens = {sid for comp in moved.components for kind, sid in comp if kind in "PQ"}
            assert moved.node_ids == tuple(sorted(tokens))
            SingularDiagram(moved.components, moved.signs)


def test_json_roundtrip_with_nodes():
    d = parse_pd("V(1,2,1,2)")
    again = SingularDiagram.from_json_dict(d.to_json_dict())
    assert again == d
    assert again.n_nodes == 1


def test_gauss_cannot_express_nodes():
    d = parse_pd("V(1,2,1,2)")
    with pytest.raises(DiagramError):
        d.to_gauss()


def test_gauss_text_is_never_blank():
    # a lone crossingless circle would write blank text, which parse_gauss refuses
    circle = {"format": "singular-diagram", "components": [[]], "signs": {}}
    with pytest.raises(DiagramError):
        SingularDiagram.from_json_dict(circle).to_gauss()
    for text in (";", "O1+U1+;"):
        d = parse_gauss(text)
        assert d.to_gauss() == text
        assert parse_gauss(d.to_gauss()) == d


def test_switch_is_involution_and_flips_sign():
    d = parse_gauss(TREFOIL_GAUSS)
    sid = d.crossing_ids[0]
    s = d.switch_crossing(sid)
    assert s.sign(sid) == -d.sign(sid)
    assert s.switch_crossing(sid) == d
    assert s.writhe == d.writhe - 2


def test_smooth_changes_component_count_by_one():
    d = parse_gauss(TREFOIL_GAUSS)
    for sid in d.crossing_ids:
        s = smooth_crossing(d, sid)
        assert abs(s.n_components - d.n_components) == 1
        assert s.n_crossings == d.n_crossings - 1


def test_smooth_curl_gives_two_circles():
    d = parse_gauss("O1+U1+")
    s = smooth_crossing(d, 1)
    assert s.n_components == 2
    assert s.n_crossings == 0


def test_resolve_node_conventions():
    d = parse_pd("V(1,2,1,2)")
    nid = d.node_ids[0]
    pos = d.resolve_node(nid, "positive")
    neg = d.resolve_node(nid, "negative")
    assert pos.n_crossings == 1 and pos.writhe == 1
    assert neg.n_crossings == 1 and neg.writhe == -1
    # switching the positive resolution gives exactly the negative one
    assert pos.switch_crossing(nid) == neg
    sm = d.resolve_node(nid, "smooth")
    assert sm.n_nodes == 0
    assert sm.n_components == 2


def test_resolve_positive_lemniscate_is_curl():
    d = parse_pd("V(1,2,1,2)")
    pos = d.resolve_node(d.node_ids[0], "positive")
    assert pos == parse_gauss("O1+U1+")


def one_step_moves(d):
    """Switches, the mirror and +/- node resolutions, which keep the
    shadow, then smoothings of crossings and nodes, which may not."""
    kept = [d.switch_crossing(sid) for sid in d.crossing_ids] + [d.mirror()]
    kept += [d.resolve_node(nid, res) for nid in d.node_ids for res in ("positive", "negative")]
    changed = [smooth_crossing(d, sid) for sid in d.crossing_ids]
    changed += [d.resolve_node(nid, "smooth") for nid in d.node_ids]
    return kept, changed


def random_gauss_codes(rng, count):
    codes = []
    for _ in range(count):
        n = rng.randint(1, 6)
        tokens = [("O", i) for i in range(n)] + [("U", i) for i in range(n)]
        rng.shuffle(tokens)
        cut = rng.randint(0, 2 * n)
        comps = [tokens[:cut], tokens[cut:]] if rng.random() < 0.3 else [tokens]
        codes.append(SingularDiagram(comps, {i: rng.choice((1, -1)) for i in range(n)}))
    return codes


def test_moves_keep_the_shadow_verdicts_of_a_fresh_build():
    corpus = (
        sample_singular_diagrams(random.Random(2026), 1, 100, max_crossings=8)  # AC2
        + sample_singular_diagrams(random.Random(314), 3, 60, max_crossings=8, one_component=True)  # AC3
        + sample_singular_diagrams(random.Random(1729), 2, 50, max_crossings=8, one_component=True)  # AC4
        + random_gauss_codes(random.Random(4), 200)
    )
    assert not all(d.is_planar() for d in corpus)
    flips = 0
    for d in corpus:
        verdict = (d.is_planar(), d.is_split())
        kept, changed = one_step_moves(d)
        for moved in kept + changed:
            fresh = SingularDiagram(moved.components, moved.signs)
            assert (moved.is_planar(), moved.is_split()) == (fresh.is_planar(), fresh.is_split())
        assert all((m.is_planar(), m.is_split()) == verdict for m in kept)
        flips += sum((m.is_planar(), m.is_split()) != verdict for m in changed)
    assert flips > 0


def test_equality_ignores_labels_rotation_component_order():
    a = parse_gauss(TREFOIL_GAUSS)
    b = parse_gauss("O7+U9+O4+U7+O9+U4+")
    c = parse_gauss("U3+O1+U2+O3+U1+O2+")  # rotated basepoint
    assert a == b == c
    assert len({a, b, c}) == 1
    two_a = parse_gauss("O1+U1+;O2-U2-")
    two_b = parse_gauss("O5-U5-;O9+U9+")
    assert two_a == two_b


def scrambled(d, rng):
    """d with its sites relabelled, its components shuffled and every
    basepoint rotated."""
    ids = sorted({sid for comp in d.components for _, sid in comp})
    perm = dict(zip(ids, rng.sample(range(100, 100 + len(ids)), len(ids))))
    comps = []
    for comp in d.components:
        r = rng.randrange(len(comp)) if comp else 0
        comps.append([(kind, perm[sid]) for kind, sid in comp[r:] + comp[:r]])
    rng.shuffle(comps)
    return SingularDiagram(comps, {perm[sid]: sgn for sid, sgn in d.signs.items()})


def skein_subdiagrams(d):
    """d and every diagram the descending Conway recursion resolves it into."""
    bad = first_bad_crossing(d)
    if bad is None:
        return [d]
    return [d] + skein_subdiagrams(d.switch_crossing(bad)) + skein_subdiagrams(smooth_crossing(d, bad))


def seeded_diagrams(rng):
    """Sampled knots with every skein subdiagram, and a few torus closures."""
    knots = sample_singular_diagrams(rng, 0, 12, n_strands=3, max_crossings=6, one_component=True)
    diagrams = [sub for d in knots for sub in skein_subdiagrams(d)]
    diagrams += [braid_closure([1] * n, 2) for n in range(1, 9)]
    diagrams += [braid_closure([1, 2] * 3, 3), braid_closure([1, 2, 3] * 4, 4)]
    return diagrams


def test_canonical_key_ignores_labels_component_order_and_basepoints():
    rng = random.Random(11)
    diagrams = seeded_diagrams(rng)
    assert max(d.n_components for d in diagrams) == 4
    for d in diagrams:
        assert scrambled(d, rng).canonical_key() == d.canonical_key()


def test_canonical_key_separates_switch_and_mirror_of_trefoil():
    trefoil = parse_gauss(TREFOIL_GAUSS)
    others = [trefoil.switch_crossing(sid) for sid in trefoil.crossing_ids] + [trefoil.mirror()]
    assert all(d.canonical_key() != trefoil.canonical_key() for d in others)


def test_canonical_key_exact_on_many_arrangements():
    # 6! component orders times 10^6 rotations: far past the old brute
    # force's reach, where a non-canonical key called these two unequal.
    t66 = braid_closure([1, 2, 3, 4, 5] * 6, 6)
    assert t66.n_components == 6
    assert scrambled(t66, random.Random(6)) == t66


def test_canonical_key_bytes_are_pinned():
    # A search that keeps the wrong arrangements can still give keys that
    # ignore labels, so two small links' keys are frozen as computed.
    clasp = SingularDiagram([[("O", 0), ("O", 1)], [("U", 0), ("U", 1)]], {0: 1, 1: -1})
    assert clasp.canonical_key() == (
        ((("O", 0), ("O", 1)), (("U", 0), ("U", 1))),
        ((0, -1), (1, 1)),
    )
    link = SingularDiagram(
        [[("O", 3), ("U", 1)], [("O", 0), ("O", 1), ("U", 3), ("U", 0)]], {0: 1, 1: 1, 3: 1}
    )
    assert link.canonical_key() == (
        ((("O", 0), ("U", 1)), (("O", 1), ("U", 0), ("U", 2), ("O", 2))),
        ((0, 1), (1, 1), (2, 1)),
    )


def walk_encoding(components, signs):
    """Sites numbered in first-encounter order along the components as
    given, and the diagram spelled with those numbers."""
    relabel = {}
    encoded = tuple(
        tuple((kind, relabel.setdefault(sid, len(relabel))) for kind, sid in comp) for comp in components
    )
    return encoded, tuple(sorted((relabel[sid], sgn) for sid, sgn in signs.items()))


def brute_force_key(d):
    """Least walk encoding over every component order and rotation, where
    an order keeps the key's slots: empty components first, then the
    components by (how many share their signature, signature)."""
    signs = d.signs

    def sig(comp):
        return (len(comp), tuple(sorted((kind, signs.get(sid, 0)) for kind, sid in comp)))

    share = {}
    for comp in d.components:
        share[sig(comp)] = share.get(sig(comp), 0) + 1

    def slot(comp):
        return (0,) if not comp else (1, share[sig(comp)], sig(comp))

    orders = [p for p in itertools.permutations(d.components) if list(map(slot, p)) == sorted(map(slot, p))]
    return min(
        walk_encoding(rotated, signs)
        for order in orders
        for rotated in itertools.product(*[[c[r:] + c[:r] for r in range(len(c))] or [c] for c in order])
    )


def small_random_diagram(rng):
    """Up to 5 sites, some of them nodes, cut into up to 3 components
    (a cut may leave a component empty)."""
    n = rng.randint(0, 5)
    tokens, signs = [], {}
    for sid in rng.sample(range(10), n):
        if rng.random() < 0.25:
            tokens += [("P", sid), ("Q", sid)]
        else:
            tokens += [("O", sid), ("U", sid)]
            signs[sid] = rng.choice((1, -1))
    rng.shuffle(tokens)
    cuts = sorted(rng.randint(0, len(tokens)) for _ in range(rng.randint(0, 2)))
    bounds = [0] + cuts + [len(tokens)]
    return SingularDiagram([tokens[a:b] for a, b in zip(bounds, bounds[1:])], signs)


def test_canonical_key_is_the_least_walk_encoding():
    rng = random.Random(2000)
    diagrams = [small_random_diagram(rng) for _ in range(2000)]
    # Ties that the sign part breaks, and a slot whose last token decides.
    diagrams += [parse_gauss("O1+U1+O2-U2-"), parse_gauss("O1+U2+;O2+U1+;O3-U3-")]
    diagrams.append(parse_gauss("U0+O1-;U2-U1-;O2-O0+"))
    assert any(d.n_nodes for d in diagrams) and any(d.n_components == 3 for d in diagrams)
    for d in diagrams:
        assert d.canonical_key() == brute_force_key(d), d.to_json_dict()


def split_hopf_links(m):
    """m split Hopf links, side by side on 2m strands."""
    return braid_closure([k for k in range(1, 2 * m, 2) for _ in (0, 1)], 2 * m)


def key_corpus(rng):
    """Draws as the exact benchmark makes them (4 strands, up to 9
    crossings) with their mirrors and switches, random 6-strand links,
    diagrams with 1 to 3 nodes, 2 to 5 split Hopf links and T(n, n) for
    n <= 7."""
    draws = sample_singular_diagrams(rng, 0, 150, n_strands=4, max_crossings=9)
    out = draws + [d.mirror() for d in draws]
    out += [d.switch_crossing(sid) for d in draws for sid in d.crossing_ids]
    for _ in range(200):
        out.append(braid_closure([rng.choice((1, -1)) * rng.randint(1, 5) for _ in range(rng.randint(1, 14))], 6))
    out += [d for k in (1, 2, 3) for d in sample_singular_diagrams(rng, k, 60, n_strands=4, max_crossings=6)]
    out += [split_hopf_links(m) for m in range(2, 6)]
    out += [braid_closure(list(range(1, n)) * n, n) for n in range(2, 8)]
    return out


def test_canonical_key_equals_the_token_at_a_time_search():
    diagrams = key_corpus(random.Random(27))
    assert sum(d.n_nodes > 0 for d in diagrams) == 180
    assert max(d.n_components for d in diagrams) == 10
    for d in diagrams:
        assert d.canonical_key() == canonical_key_search(d), d.to_json_dict()
    refusals = []
    for search in (SingularDiagram.canonical_key, canonical_key_search):
        with pytest.raises(DiagramError, match="too symmetric") as err:
            search(split_hopf_links(16))
        refusals.append(str(err.value))
    assert refusals[0] == refusals[1]


def test_canonical_key_refuses_too_symmetric_diagram_fast():
    split_hopfs = braid_closure([k for k in range(1, 16, 2) for _ in (0, 1)], 16)
    assert split_hopfs.n_components == 16
    start = time.perf_counter()
    with pytest.raises(DiagramError, match="too symmetric"):
        split_hopfs.canonical_key()
    assert time.perf_counter() - start < 1.0


def test_equality_distinguishes_signs():
    a = parse_gauss("O1+U1+")
    b = parse_gauss("O1-U1-")
    assert a != b


def test_braid_closure_trefoil():
    d = braid_closure([1, 1, 1])
    assert d.n_components == 1
    assert d.writhe == 3
    assert d == parse_gauss(TREFOIL_GAUSS)


def test_braid_closure_hopf_and_unlink():
    hopf = braid_closure([1, 1])
    assert hopf.n_components == 2
    assert linking_matrix_total(hopf) == 1
    unlink = braid_closure([], n_strands=2)
    assert unlink.n_components == 2
    assert unlink.n_crossings == 0


def test_braid_closure_negative_and_nodes():
    neg = braid_closure([-1, -1])
    assert linking_matrix_total(neg) == -1
    singular = braid_closure([("node", 1), 1, 1])
    assert singular.n_nodes == 1
    assert singular.n_crossings == 2
    assert singular.n_components == 1


def test_braid_closure_mirror():
    d = braid_closure([1, 1, 1])
    m = d.mirror()
    assert m == braid_closure([-1, -1, -1])
    assert m.writhe == -3


def test_braid_closure_spells_each_letter_at_its_own_site():
    # site j is letter j; the strand entering from the left takes the P of
    # a node and, at a crossing, goes over for a positive letter
    d = braid_closure([("node", 1), -1, 2], 3)
    assert d.components == (
        (("P", 0), ("O", 1)),
        (("Q", 0), ("U", 1), ("O", 2), ("U", 2)),
    )
    assert d.signs == {1: -1, 2: 1}


def test_node_resolutions_put_the_first_passage_over_at_plus():
    d = braid_closure([("node", 1), -1, 2], 3)
    rest = (("U", 1), ("O", 2), ("U", 2))
    positive, negative = d.resolve_node(0, "positive"), d.resolve_node(0, "negative")
    assert positive.components == ((("O", 0), ("O", 1)), (("U", 0),) + rest)
    assert positive.signs == {0: 1, 1: -1, 2: 1}
    assert negative.components == ((("U", 0), ("O", 1)), (("O", 0),) + rest)
    assert negative.signs == {0: -1, 1: -1, 2: 1}


def test_smoothing_keeps_the_other_components_first_in_order():
    a = (("O", 0), ("P", 5))
    b = (("U", 3), ("P", 1), ("U", 2), ("Q", 1), ("O", 2), ("O", 3))
    c = (("U", 0), ("Q", 5))
    d = SingularDiagram([a, b, c], {0: 1, 2: 1, 3: -1})
    # a split: the piece between the two passages, then the piece around
    split = d.resolve_node(1, "smooth")
    assert split.components == (a, c, (("U", 2),), (("O", 2), ("O", 3), ("U", 3)))
    assert split.signs == d.signs
    # a merge: the first component up to its passage, then around the second
    merged = d.resolve_node(5, "smooth")
    assert merged.components == (b, (("O", 0), ("U", 0)))


def test_writhe_invariant_under_reidemeister_like_words():
    # sigma1^3 in B2 vs its Markov stabilization in B3
    a = braid_closure([1, 1, 1])
    b = braid_closure([1, 1, 1, 2], n_strands=3)
    assert a.n_components == b.n_components == 1
    assert b.writhe == a.writhe + 1


# -- properties on hypothesis-drawn braid words ----------------------------


@PROPERTIES
@given(braid_words(nodes=False))
def test_gauss_text_round_trips_token_for_token(case):
    d = braid_closure(*case)
    back = parse_gauss(d.to_gauss())
    assert back.components == d.components
    assert back.signs == d.signs


@PROPERTIES
@given(braid_words())
def test_pd_text_round_trips_when_every_component_fixes_its_orientation(case):
    # a component with a passage other than O is oriented by the walk from it
    d = braid_closure(*case)
    assume(all(any(kind != "O" for kind, _ in comp) for comp in d.components))
    assert parse_pd(d._pd_text_unchecked()) == d
    assert parse_pd(d.to_pd()) == d


@PROPERTIES
@given(braid_words(), st.data())
def test_canonical_key_ignores_relabelling_and_basepoint_rotation(case, data):
    # The components are also taken in a drawn order.
    d = braid_closure(*case)
    ids = sorted({sid for comp in d.components for _, sid in comp})
    perm = dict(zip(ids, data.draw(st.permutations(range(100, 100 + len(ids))))))
    comps = []
    for comp in data.draw(st.permutations(d.components)):
        r = data.draw(st.integers(0, max(len(comp) - 1, 0)))
        comps.append([(kind, perm[sid]) for kind, sid in comp[r:] + comp[:r]])
    moved = SingularDiagram(comps, {perm[sid]: sgn for sid, sgn in d.signs.items()})
    assert moved.canonical_key() == d.canonical_key()


@PROPERTIES
@given(braid_words())
def test_json_text_round_trips_components_signs_nodes_and_key(case):
    d = braid_closure(*case)
    back = SingularDiagram.from_json_dict(json.loads(json.dumps(d.to_json_dict())))
    assert back.components == d.components
    assert back.signs == d.signs
    assert back.node_ids == d.node_ids
    assert back.canonical_key() == d.canonical_key()


@PROPERTIES
@given(braid_words())
def test_builders_and_moves_match_their_validated_rebuild(case):
    # The tokens are the only record of the nodes, so a trusted build
    # must agree with the validating constructor on every view of them.
    d = braid_closure(*case)
    kept, changed = one_step_moves(d)
    built = [d] + kept + changed
    try:
        built.append(parse_pd(d.to_pd()))
    except DiagramError:
        pass
    for moved in built:
        fresh = SingularDiagram(moved.components, moved.signs)
        assert fresh.components == moved.components
        assert list(fresh.signs.items()) == list(moved.signs.items())
        assert (fresh.node_ids, fresh.n_nodes) == (moved.node_ids, moved.n_nodes)
        first_tags = sum(kind == "P" for comp in moved.components for kind, _ in comp)
        assert moved.n_nodes == len(moved.node_ids) == first_tags


def test_refusals_name_what_is_wrong():
    one_crossing, two_loops = [[("O", 0), ("U", 0)]], [[("O", 0)], [("U", 0)]]
    trefoil, lemniscate = parse_gauss(TREFOIL_GAUSS), parse_pd("V(1,2,1,2)")
    node_then_crossing = braid_closure([("node", 1), 1], 2)  # node 0, crossing 1
    cases = [
        (lambda: trefoil.switch_crossing(9), "no crossing with id 9"),
        (lambda: smooth_crossing(trefoil, 9), "no crossing with id 9"),
        (lambda: lemniscate.resolve_node(9, "positive"), "no node with id 9"),
        (lambda: node_then_crossing.resolve_node(1, "positive"), "no node with id 1"),
        (lambda: node_then_crossing.switch_crossing(node_then_crossing.node_ids[0]), "no crossing with id 0"),
        (lambda: lemniscate.resolve_node(lemniscate.node_ids[0], "up"), "unknown resolution 'up'"),
        (lambda: SingularDiagram([[("X", 0)]], {}), "unknown passage kind 'X'"),
        (lambda: SingularDiagram([[("O", 0), ("O", 0)]], {0: 1}),
         "site 0 has passages ['O', 'O']"),
        (lambda: SingularDiagram(one_crossing, {}), "signs must be given for exactly"),
        (lambda: SingularDiagram(one_crossing, {0: 2}), "crossing 0 has sign 2"),
        # ids and signs are integers, never truncated or parsed
        (lambda: SingularDiagram([[("O", 1.7), ("U", 1.2)]], {1: 1.9}), "site id 1.7 is not an integer"),
        (lambda: SingularDiagram([[("O", "0"), ("U", "0")]], {0: 1}), "site id '0' is not an integer"),
        (lambda: SingularDiagram(one_crossing, {"0": 1}), "crossing id '0' is not an integer"),
        (lambda: SingularDiagram(one_crossing, {0: 1.0}), "crossing sign 1.0 is not an integer"),
        # one crossing between two loops, each all over or all under
        (lambda: SingularDiagram(two_loops, {0: -1}).to_pd(), "PD text would be ambiguous"),
        (lambda: braid_closure([("twist", 1)]), "unknown braid letter ('twist', 1)"),
        (lambda: braid_closure([("node", 3)], n_strands=3), "node position 3 out of range"),
        (lambda: braid_closure([0]), "braid letter 0 out of range"),
        (lambda: braid_closure([1.5], 3), "unknown braid letter 1.5"),
        (lambda: braid_closure(["x"], 3), "unknown braid letter 'x'"),
        (lambda: braid_closure([("node",)], 3), "unknown braid letter ('node',)"),
        (lambda: braid_closure([("node", 1.5)]), "unknown braid letter ('node', 1.5)"),
        # letters are read in order, but an inferred strand count reads them all first
        (lambda: braid_closure([5, "x"], 3), "braid letter 5 out of range"),
        (lambda: braid_closure(["x", 5], 3), "unknown braid letter 'x'"),
        (lambda: braid_closure([5, "x"]), "unknown braid letter 'x'"),
        (lambda: braid_closure([1], n_strands=2.0), "strand count 2.0 is not an integer"),
        (lambda: braid_closure([], n_strands=0), "strand count must be at least 1, not 0"),
        (lambda: braid_closure([], n_strands=-1), "strand count must be at least 1, not -1"),
        (lambda: sample_singular_diagrams(random.Random(0), 0, 1, n_strands=1),
         "strand count must be at least 2, not 1"),
        (lambda: sample_singular_diagrams(random.Random(0), 0, 1, max_crossings=0),
         "crossing bound must be at least 1, not 0"),
        (lambda: sample_singular_diagrams(random.Random(0), -2, 1), "node count must be at least 0, not -2"),
        (lambda: sample_singular_diagrams(random.Random(0), 0, -3), "sample count must be at least 0, not -3"),
        (lambda: sample_singular_diagrams(random.Random(0), 0, 1, n_strands=2.5),
         "strand count 2.5 is not an integer"),
        (lambda: sample_singular_diagrams(random.Random(0), 0, 1, max_crossings=3.0),
         "crossing bound 3.0 is not an integer"),
        (lambda: sample_singular_diagrams(random.Random(0), 1.0, 1), "node count 1.0 is not an integer"),
        (lambda: sample_singular_diagrams(random.Random(0), 0, "1"), "sample count '1' is not an integer"),
        # a knot closure on n strands needs n - 1 or more letters, as many mod 2
        (lambda: sample_singular_diagrams(random.Random(0), 0, 1, n_strands=4, max_crossings=1,
                                          one_component=True),
         "node count 0 with at most 1 crossings closes no knot on 4 strands"),
        (lambda: sample_singular_diagrams(random.Random(0), 1, 1, n_strands=2, max_crossings=1,
                                          one_component=True),
         "node count 1 with at most 1 crossings closes no knot on 2 strands"),
        (lambda: linking_matrix_total(braid_closure([("node", 1)])), "node-free diagram"),
        (lambda: linking_matrix_total(SingularDiagram(two_loops, {0: -1})),
         "odd inter-component crossing sum"),
        # parses, but two closed plane curves cross an even number of times
        (lambda: linking_matrix_total(parse_gauss("O1+;U1+")),
         "odd inter-component crossing sum; a virtual code has no linking number"),
    ]
    for call, fragment in cases:
        with pytest.raises(DiagramError) as err:
            call()
        assert fragment in str(err.value)


def test_knot_sampling_accepts_the_least_crossing_bound_that_closes_a_knot():
    # 3 letters close a knot on 4 strands, and 1 or 2 never do
    for d in sample_singular_diagrams(random.Random(0), 0, 5, n_strands=4, max_crossings=3,
                                      one_component=True):
        assert d.n_components == 1 and d.n_crossings == 3


def test_equality_with_another_type_is_not_implemented():
    trefoil = parse_gauss(TREFOIL_GAUSS)
    for other in (None, 1, TREFOIL_GAUSS, trefoil.components, trefoil.canonical_key()):
        assert trefoil.__eq__(other) is NotImplemented, other
        assert trefoil != other, other
