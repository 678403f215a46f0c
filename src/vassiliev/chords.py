"""Chord diagrams and four-term relations.

A chord diagram of degree m is a perfect matching on 2m points of an
oriented circle.  A matching is held as one representation throughout,
its partner tuple: entry i is the point paired with point i.  Raw
matchings come from one generator of partner tuples, which can skip
chords shorter than a bound, and diagrams are stored canonically: the
partner tuple is minimized over rotations of the circle (reflections
are not quotiented out; the circle orientation is part of the data).
Enumeration draws only the candidates whose chords are long enough to
be least rotations.  Each degree's diagrams and four-term relations are
built once per process, and the public functions return a fresh list
on every call.  A four-term term is not canonicalized: its table is
looked up in the degree's rotation index, which maps every raw table to
its diagram and is built by rotating each canonical diagram.
"""

from __future__ import annotations

import collections.abc
import functools
import math
from fractions import Fraction

from .codes import NODE_FIRST, NODE_SECOND, SingularDiagram, _expect, _integer


class ChordDiagram:
    """Canonical chord diagram.  Construct from an iterable of point
    pairs on {0, ..., 2m-1}; every point must occur exactly once."""

    __slots__ = ("_partner",)

    def __init__(self, pairs):
        point = "chord endpoint"
        pairs = [(_integer(a, point, error=ValueError), _integer(b, point, error=ValueError)) for a, b in pairs]
        n = 2 * len(pairs)
        partner = [None] * n
        for a, b in pairs:
            if a == b:
                raise ValueError(f"chord ({a}, {b}) pairs a point with itself")
            for p in (a, b):
                if not 0 <= p < n:
                    raise ValueError(f"point {p} out of range for {len(pairs)} chords")
                if partner[p] is not None:
                    raise ValueError(f"point {p} used twice")
            partner[a], partner[b] = b, a
        self._partner = self._canonicalize(tuple(partner))

    @classmethod
    def _from_canonical(cls, partner):
        """Wrap a partner tuple that is already canonical, unchecked."""
        diagram = object.__new__(cls)
        diagram._partner = partner
        return diagram

    @staticmethod
    def _canonicalize(partner):
        n = len(partner)
        if n == 0:
            return ()
        # Rotation r puts the gap (partner[r] - r) % n first, so only the
        # rotations with the least gap can give the least tuple.
        gaps = [(p - i) % n for i, p in enumerate(partner)]
        least = min(gaps)
        return min(_rotated(partner, r) for r, gap in enumerate(gaps) if gap == least)

    @property
    def degree(self):
        return len(self._partner) // 2

    @property
    def partner(self):
        return self._partner

    def pairs(self):
        return tuple((i, j) for i, j in enumerate(self._partner) if i < j)

    def isolated_chords(self):
        """Chords whose endpoints are cyclically adjacent."""
        n = len(self._partner)
        out = []
        for i, j in self.pairs():
            if (i + 1) % n == j or (j + 1) % n == i:
                out.append((i, j))
        return tuple(out)

    def concat(self, other):
        """Connected-sum product: place other's points after this one's."""
        _expect(other, ChordDiagram, "ChordDiagram.concat", "other")
        off = len(self._partner)
        pairs = list(self.pairs()) + [(a + off, b + off) for a, b in other.pairs()]
        return ChordDiagram(pairs)

    def __eq__(self, other):
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return self._partner == other._partner

    def __hash__(self):
        return hash(self._partner)

    def __lt__(self, other):
        if not isinstance(other, ChordDiagram):
            return NotImplemented
        return (self.degree, self._partner) < (other.degree, other._partner)

    def __repr__(self):
        return f"ChordDiagram({list(self.pairs())!r})"

    def __str__(self):
        if not self._partner:
            return "(empty)"
        return ",".join(f"{a}-{b}" for a, b in self.pairs())


def _partner_tables(n, shortest=1):
    """Every perfect matching of n points as a partner tuple whose chords
    are all at least `shortest` long both ways round the circle.

    A chord (i, j) with i < j is j - i long one way and n - j + i the
    other, so the first free point i is paired only with each free j in
    range(i + shortest, min(n, i + n - shortest + 1)), taken in turn,
    and the tuples come out in ascending order.  The default bound
    keeps every matching.
    """
    partner = [-1] * n

    def fill(i):
        while i < n and partner[i] >= 0:
            i += 1
        if i == n:
            yield tuple(partner)
            return
        for j in range(i + shortest, min(n, i + n - shortest + 1)):
            if partner[j] < 0:
                partner[i], partner[j] = j, i
                yield from fill(i + 1)
                partner[j] = -1
        partner[i] = -1

    return fill(0)


def raw_matchings(m):
    """All (2m-1)!! raw perfect matchings of 2m labeled circle points,
    each a list of pairs (i, j) with i < j in ascending i."""
    tables = _partner_tables(2 * _integer(m, "degree", 0, ValueError))
    return ([(i, j) for i, j in enumerate(partner) if i < j] for partner in tables)


def _rotated(partner, r):
    """The partner table read from point r: point i of the result is
    point (i + r) % n of the input."""
    n = len(partner)
    return tuple([(p - r) % n for p in partner[r:] + partner[:r]])


def _is_least_rotation(partner):
    # Rotation r leads with the gap (partner[r] - r) % n.  The caller
    # passes only tables with no gap below partner[0], so just the
    # rotations whose gap equals it are built and compared: testing
    # `_canonicalize(p) == p` makes `_canonical_diagrams(1..6)` ~1.7x slower.
    n = len(partner)
    lead = partner[0]
    for r in range(1, n):
        if (partner[r] - r) % n == lead:
            if _rotated(partner, r) < partner:
                return False
    return True


def enumerate_diagrams(m):
    """All canonical chord diagrams of degree m, in ascending order.

    A canonical diagram is the least of its 2m rotations, so each class
    is found once, at its canonical form, with no set of seen diagrams.
    Only candidates that can be least are tested.  Rotation r leads with
    the gap (partner[r] - r) % 2m, so in a least rotation partner[0] is
    the least gap over all points.  The two gaps at a chord's ends are
    its lengths both ways round the circle, so every chord is at least
    partner[0] long both ways, and partner[0] is at most m.  For each
    lead in 1..m the tables with partner[0] == lead are therefore drawn
    from `_partner_tables(2m, lead)`, which skips the shorter chords,
    and only the rotations whose gap ties with the lead are compared.
    Returns (diagrams, raw_count) where raw_count is the number of raw
    matchings of 2m points, (2m-1)!!, computed rather than counted.

    Each degree is built once per process and shared with
    `four_term_relations`; the list returned is a fresh one on every
    call, so a caller may change it.
    """
    m = _integer(m, "degree", 0, ValueError)
    return list(_canonical_diagrams(m)), math.prod(range(1, 2 * m, 2))


@functools.lru_cache(maxsize=8)
def _canonical_diagrams(m):
    if m == 0:
        return (ChordDiagram._from_canonical(()),)
    diagrams = []
    for lead in range(1, m + 1):
        for partner in _partner_tables(2 * m, lead):
            if partner[0] != lead:
                break
            if _is_least_rotation(partner):
                diagrams.append(ChordDiagram._from_canonical(partner))
    return tuple(diagrams)


def _rotation_index(m):
    """Map each of the (2m-1)!! raw partner tables of 2m points to the
    position of its diagram in `_canonical_diagrams(m)`, by rotating
    every canonical diagram 2m times."""
    index = {}
    for position, diagram in enumerate(_canonical_diagrams(m)):
        for r in range(2 * m):
            index[_rotated(diagram.partner, r)] = position
    return index


def chord_diagram_of(diagram):
    """Chord diagram of a one-component singular diagram: the nodes in
    the order they occur along the strand.  Crossings are ignored."""
    _expect(diagram, SingularDiagram, "chord_diagram_of", "diagram")
    if diagram.n_components != 1:
        raise ValueError("chord diagrams need a one-component diagram")
    positions = {}
    pairs = []
    idx = 0
    for kind, sid in diagram.components[0]:
        if kind in (NODE_FIRST, NODE_SECOND):
            if sid in positions:
                pairs.append((positions[sid], idx))
            else:
                positions[sid] = idx
            idx += 1
    return ChordDiagram(pairs)


def four_term_relations(m):
    """Four-term relations among degree-m diagrams.

    Each relation is a 4-tuple of (sign, diagram): the free end of one
    chord is inserted just before k1, just after k1, just before k2 and
    just after k2, where (k1, k2) is another chord, with signs
    (+1, -1, +1, -1).  The relation asserts the signed sum of weights
    vanishes.  Formally coincident insertions are kept; duplicate
    relations are removed.  Degree must be at least 2.

    Each inserted table finds its diagram in the degree's rotation
    index, a map from every raw table to its diagram's position in
    `enumerate_diagrams(m)`, so no term is canonicalized; the index
    lives only while the relations are built.  Each degree is built
    once per process and shared by every caller; the list returned is a
    fresh one on every call, so a caller may change it.
    """
    return list(_four_term_relations(_integer(m, "degree", error=ValueError)))


@functools.lru_cache(maxsize=8)
def _four_term_relations(m):
    if m < 2:
        raise ValueError("four-term relations need degree >= 2")
    diagrams = _canonical_diagrams(m)
    index = _rotation_index(m)
    last = 2 * m - 1  # the moving chord's anchored end; rotations cover other spots
    relations = []
    seen = set()
    for partner in _partner_tables(last - 1):
        for k1, k2 in enumerate(partner):
            if k1 > k2:
                continue
            positions = []
            for gap in (k1, k1 + 1, k2, k2 + 1):
                table = [p + 1 if p >= gap else p for p in partner]
                table.insert(gap, last)
                table.append(gap)
                positions.append(index[tuple(table)])
            # A position names one diagram, and negating a relation
            # swaps its plus and minus terms.
            plus, minus = tuple(sorted(positions[::2])), tuple(sorted(positions[1::2]))
            key = min(plus, minus), max(plus, minus)
            if key not in seen:
                seen.add(key)
                relations.append(tuple(zip((1, -1, 1, -1), (diagrams[p] for p in positions))))
    return tuple(relations)


def satisfies_4T(weight_fn, m):
    """Check a weight function against every degree-m four-term relation.

    The check is exact: weight_fn must return an int or a Fraction, and
    each relation's sum is compared to zero.  Any other value raises
    TypeError naming its diagram.  weight_fn is called once per distinct
    diagram in the relations, and its value reused.  Returns (ok,
    counterexample) where the counterexample carries the violated
    relation and its sum.  Degrees 0 and 1 have no relation, so every
    weight function passes there; a weight_fn that is not callable raises
    TypeError and a negative or fractional degree ValueError.
    """
    _expect(weight_fn, collections.abc.Callable, "satisfies_4T", "weight_fn")
    m = _integer(m, "degree", 0, ValueError)
    if m < 2:
        return True, None
    weights = {}
    for relation in _four_term_relations(m):
        total = 0
        for sign, diagram in relation:
            if diagram not in weights:
                value = weight_fn(diagram)
                if not isinstance(value, (int, Fraction)):
                    raise TypeError(
                        f"weight of {diagram} is {type(value).__name__} {value!r};"
                        " 4T is checked exactly on int or Fraction values"
                    )
                weights[diagram] = value
            total += sign * weights[diagram]
        if total != 0:
            return False, (relation, total)
    return True, None
