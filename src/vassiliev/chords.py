"""Chord diagrams and four-term relations.

A chord diagram of degree m is a perfect matching on 2m points of an
oriented circle.  Diagrams are stored canonically: the partner table is
minimized over rotations of the circle (reflections are not quotiented
out; the circle orientation is part of the data).
"""

from __future__ import annotations

from fractions import Fraction


class ChordDiagram:
    """Canonical chord diagram.  Construct from an iterable of point
    pairs on {0, ..., 2m-1}; every point must occur exactly once."""

    __slots__ = ("_partner",)

    def __init__(self, pairs):
        pairs = [(int(a), int(b)) for a, b in pairs]
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

    @staticmethod
    def _canonicalize(partner):
        n = len(partner)
        if n == 0:
            return ()
        # Rotation r puts the gap (partner[r] - r) % n first, so only the
        # rotations with the least gap can give the least tuple.
        gaps = [(p - i) % n for i, p in enumerate(partner)]
        least = min(gaps)
        return min(
            tuple((p - r) % n for p in partner[r:] + partner[:r])
            for r, gap in enumerate(gaps)
            if gap == least
        )

    @property
    def degree(self):
        return len(self._partner) // 2

    @property
    def partner(self):
        return self._partner

    def pairs(self):
        seen = set()
        out = []
        for i, j in enumerate(self._partner):
            if i not in seen:
                out.append((i, j))
                seen.update((i, j))
        return tuple(out)

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
        return (self.degree, self._partner) < (other.degree, other._partner)

    def __repr__(self):
        return f"ChordDiagram({list(self.pairs())!r})"

    def __str__(self):
        if not self._partner:
            return "(empty)"
        return ",".join(f"{a}-{b}" for a, b in self.pairs())


def _matchings(points):
    """All perfect matchings of the given point list, recursively."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    for i, second in enumerate(rest):
        remaining = rest[:i] + rest[i + 1 :]
        for sub in _matchings(remaining):
            yield [(first, second)] + sub


def raw_matchings(m):
    """All (2m-1)!! raw perfect matchings of 2m labeled circle points."""
    if m < 0:
        raise ValueError("degree must be nonnegative")
    yield from _matchings(list(range(2 * m)))


def enumerate_diagrams(m):
    """All canonical chord diagrams of degree m.

    Returns (diagrams, raw_count) where raw_count is the number of raw
    matchings of 2m points, (2m-1)!!.
    """
    seen = set()
    raw = 0
    for matching in raw_matchings(m):
        raw += 1
        seen.add(ChordDiagram(matching))
    return sorted(seen), raw


def chord_diagram_of(diagram):
    """Chord diagram of a one-component singular diagram: the nodes in
    the order they occur along the strand.  Crossings are ignored."""
    if diagram.n_components != 1:
        raise ValueError("chord diagrams need a one-component diagram")
    positions = {}
    pairs = []
    idx = 0
    for kind, sid in diagram.components[0]:
        if kind in ("P", "Q"):
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
    """
    if m < 2:
        raise ValueError("four-term relations need degree >= 2")
    npts = 2 * m - 1
    fixed = npts - 1  # the moving chord's anchored end; rotations cover other spots
    relations = []
    seen = set()
    for matching in _matchings(list(range(npts - 1))):
        for k1, k2 in matching:
            terms = []
            for anchor, side, sign in ((k1, "b", 1), (k1, "a", -1), (k2, "b", 1), (k2, "a", -1)):
                gap = anchor if side == "b" else anchor + 1

                def lift(p):
                    return p + 1 if p >= gap else p

                pairs = [(lift(a), lift(b)) for a, b in matching]
                pairs.append((gap, lift(fixed)))
                terms.append((sign, ChordDiagram(pairs)))
            key = _relation_key(terms)
            if key not in seen:
                seen.add(key)
                relations.append(tuple(terms))
    return relations


def _relation_key(terms):
    fwd = tuple(sorted((d.partner, s) for s, d in terms))
    bwd = tuple(sorted((d.partner, -s) for s, d in terms))
    return min(fwd, bwd)


def satisfies_4T(weight_fn, m, tol=1e-9):
    """Check a weight function against every degree-m four-term relation.

    Exact values (int, Fraction) are compared to zero exactly; floats
    and complex values use the tolerance.  Returns (ok, counterexample)
    where the counterexample carries the violated relation and its sum.
    """
    for relation in four_term_relations(m):
        total = None
        exact = True
        for sign, diagram in relation:
            value = weight_fn(diagram)
            if not isinstance(value, (int, Fraction)):
                exact = False
            term = sign * value
            total = term if total is None else total + term
        if exact:
            bad = total != 0
        else:
            bad = abs(total) > tol
        if bad:
            return False, (relation, total)
    return True, None
