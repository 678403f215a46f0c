"""Combinatorial knot and singular-knot diagrams.

A diagram is stored as a set of oriented closed circuits of *passage
tokens*.  Each crossing contributes two tokens, ("O", id) for the over
passage and ("U", id) for the under passage, plus a sign.  Each rigid
4-valent node contributes two tagged passage tokens ("P", id) and
("Q", id); the tags persist so that resolving the node into a positive
or negative crossing is well defined.

Arc labels never appear internally; they are assigned on the fly when
serializing to PD text and recovered by the parsers.  Realizability of
the codes is deliberately not enforced: the operations below make sense
for virtual diagrams as well.  Shape questions live on the diagram:
`is_planar` tells classical codes from virtual ones by one walk of the
shadow's faces, whose result the region route of `skein` also reads, and
`is_split` finds pieces that share no site; both use one count of
connected pieces.
"""

from __future__ import annotations

import re

OVER = "O"
UNDER = "U"
NODE_FIRST = "P"
NODE_SECOND = "Q"

_CROSSING_KINDS = (OVER, UNDER)
_NODE_KINDS = (NODE_FIRST, NODE_SECOND)
_SWITCH = {OVER: UNDER, UNDER: OVER}

# The canonical search raises rather than build more arrangements than
# this for one slot.
_TIE_BUDGET = 100_000


class DiagramError(ValueError):
    pass


class ParseError(DiagramError):
    """Malformed code text.  Carries the offending position."""

    def __init__(self, message, position=None):
        self.position = position
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)


class SingularDiagram:
    """Immutable singular link diagram.

    Parameters
    ----------
    components : iterable of iterable of (kind, site_id) tokens
    signs : mapping crossing id -> +1 or -1
    """

    __slots__ = ("_components", "_signs", "_nodes", "_canonical")

    def __init__(self, components, signs):
        self._set_parts(
            tuple(tuple((k, int(s)) for k, s in comp) for comp in components),
            {int(i): int(v) for i, v in dict(signs).items()},
        )
        self._validate()

    @classmethod
    def _from_parts(cls, components, signs):
        """A move's result, taken as valid: `components` is a tuple of
        token tuples and `signs` a dict no one changes."""
        out = cls.__new__(cls)
        out._set_parts(components, signs)
        return out

    def _set_parts(self, components, signs):
        self._components = components
        self._signs = signs
        self._nodes = frozenset(sid for comp in components for kind, sid in comp if kind in _NODE_KINDS)
        self._canonical = None

    def _validate(self):
        seen = {}
        for comp in self._components:
            for kind, sid in comp:
                if kind not in _CROSSING_KINDS and kind not in _NODE_KINDS:
                    raise DiagramError(f"unknown passage kind {kind!r}")
                seen.setdefault(sid, []).append(kind)
        for sid, kinds in seen.items():
            if sorted(kinds) not in (["O", "U"], ["P", "Q"]):
                raise DiagramError(
                    f"site {sid} has passages {kinds}; expected one O and one U, or one P and one Q"
                )
        crossings = {sid for sid, kinds in seen.items() if "O" in kinds}
        if set(self._signs) != crossings:
            raise DiagramError("signs must be given for exactly the crossing ids")
        for sid, sgn in self._signs.items():
            if sgn not in (1, -1):
                raise DiagramError(f"crossing {sid} has sign {sgn}; expected +1 or -1")

    # -- basic views ----------------------------------------------------

    @property
    def components(self):
        return self._components

    @property
    def n_components(self):
        return len(self._components)

    @property
    def crossing_ids(self):
        return tuple(sorted(self._signs))

    @property
    def node_ids(self):
        return tuple(sorted(self._nodes))

    @property
    def n_crossings(self):
        return len(self._signs)

    @property
    def n_nodes(self):
        return len(self._nodes)

    def sign(self, sid):
        return self._signs[sid]

    @property
    def signs(self):
        return dict(self._signs)

    @property
    def writhe(self):
        return sum(self._signs.values())

    def __repr__(self):
        return (
            f"<SingularDiagram crossings={self.n_crossings} nodes={self.n_nodes} "
            f"components={self.n_components}>"
        )

    # -- local moves ----------------------------------------------------

    def switch_crossing(self, sid):
        """Swap over/under at crossing sid and negate its sign."""
        if sid not in self._signs:
            raise DiagramError(f"no crossing with id {sid}")
        return self._retagged({sid}, _SWITCH, {**self._signs, sid: -self._signs[sid]})

    def mirror(self):
        """Switch every crossing."""
        return self._retagged(self._signs, _SWITCH, {sid: -sgn for sid, sgn in self._signs.items()})

    def _retagged(self, sites, kinds, signs):
        """This diagram with the tokens at `sites` renamed by `kinds` and
        the given signs."""
        comps = tuple(
            tuple((kinds[k], s) if s in sites and k in kinds else (k, s) for k, s in comp)
            for comp in self._components
        )
        return SingularDiagram._from_parts(comps, signs)

    def smooth_crossing(self, sid):
        """Oriented smoothing at crossing sid (the crossing disappears)."""
        if sid not in self._signs:
            raise DiagramError(f"no crossing with id {sid}")
        comps = _splice_out(self._components, sid)
        signs = dict(self._signs)
        del signs[sid]
        return SingularDiagram._from_parts(comps, signs)

    def resolve_node(self, sid, resolution):
        """Replace node sid by a crossing or by the oriented smoothing.

        resolution is "positive", "negative" or "smooth".  Positive puts
        the first (tagged P) passage on top with crossing sign +1;
        negative is exactly the crossing-switch of positive.
        """
        if sid not in self._nodes:
            raise DiagramError(f"no node with id {sid}")
        if resolution == "smooth":
            comps = _splice_out(self._components, sid)
            return SingularDiagram._from_parts(comps, self._signs)
        if resolution == "positive":
            return self._retagged({sid}, {NODE_FIRST: OVER, NODE_SECOND: UNDER}, {**self._signs, sid: 1})
        if resolution == "negative":
            return self._retagged({sid}, {NODE_FIRST: UNDER, NODE_SECOND: OVER}, {**self._signs, sid: -1})
        raise DiagramError(f"unknown resolution {resolution!r}")

    # -- equality up to relabeling --------------------------------------

    def canonical_key(self):
        """Hashable key, equal for diagrams that differ only by site
        relabeling, component order and basepoint rotation.  Raises
        DiagramError for a diagram too symmetric to search (such as many
        identical split pieces)."""
        if self._canonical is None:
            self._canonical = _canonical_key(self._components, self._signs)
        return self._canonical

    def __eq__(self, other):
        if not isinstance(other, SingularDiagram):
            return NotImplemented
        return self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    # -- serialization ---------------------------------------------------

    def to_gauss(self):
        """Gauss text.  Components are separated by ';'.  Nodes cannot be
        expressed in the Gauss grammar and raise, as does any diagram
        whose text would be blank (the empty diagram, a lone crossingless
        circle), which the parser refuses."""
        if self._nodes:
            raise DiagramError("Gauss text cannot express nodes; use PD or JSON")
        parts = []
        for comp in self._components:
            toks = []
            for kind, sid in comp:
                sgn = "+" if self._signs[sid] > 0 else "-"
                toks.append(f"{kind}{sid}{sgn}")
            parts.append("".join(toks))
        text = ";".join(parts)
        if not text:
            raise DiagramError("Gauss text of this diagram would be blank; use JSON")
        return text

    def to_pd(self):
        """PD text with arcs numbered along the walk, 1-based.

        Raises for crossingless circle components (no tuple can carry
        them) and for diagrams whose over-strand orientations could not
        be recovered from the text by the parser's inference rules.
        """
        text = self._pd_text_unchecked()
        back = parse_pd(text)
        if back.canonical_key() != self.canonical_key():
            raise DiagramError(
                "PD text would be ambiguous for this diagram "
                "(an over-only circuit's orientation cannot be recovered); "
                "use JSON serialization instead"
            )
        return text

    def _pd_text_unchecked(self):
        if not self._components:
            raise DiagramError("PD text cannot express the empty diagram")
        tuples = {}
        label = 0
        for comp in self._components:
            length = len(comp)
            if length == 0:
                raise DiagramError("PD text cannot express a crossingless circle")
            for pi, (kind, sid) in enumerate(comp):
                if kind in _NODE_KINDS:
                    slot_in, slot_out = _V_SLOTS[kind]
                else:
                    slot_in, slot_out = _ccw_slots(kind, self._signs[sid])
                tup = tuples.setdefault(sid, [0] * 4)
                tup[slot_in] = label + (pi - 1) % length + 1
                tup[slot_out] = label + pi + 1
            label += length
        return " ".join(
            ("V(%d,%d,%d,%d)" if sid in self._nodes else "X(%d,%d,%d,%d)") % tuple(tup)
            for sid, tup in tuples.items()
        )

    def is_planar(self):
        """True when the code is classical: its shadow lies on a sphere
        (`_faces` finds its faces)."""
        return self._faces() is not None

    def _faces(self):
        """The faces of a planar code's shadow, as (index, face), or None
        when the code is not planar.  face[4 * index[sid] + j] names the
        face between slots j - 1 and j of a site, counterclockwise as in
        the PD text (`_ccw_slots`; a node as its positive resolution).  A
        walk step pairs an "out" half-edge with the next token's "in"
        half-edge; faces are the cycles of rotate . pair.

        By Euler, a connected shadow with n crossings is planar iff it
        has n + 2 faces; a crossingless circle is a piece with two faces.
        So the code is planar iff faces + 2 * circles = n + 2 * pieces.
        """
        index = {sid: i for i, sid in enumerate(self._signs.keys() | self._nodes)}
        pair = [0] * (4 * len(index))
        for comp in self._components:
            for (kind, sid), (next_kind, next_sid) in zip(comp, comp[1:] + comp[:1]):
                h = 4 * index[sid] + _ccw_slots(kind, self._signs.get(sid, 1))[1]
                g = 4 * index[next_sid] + _ccw_slots(next_kind, self._signs.get(next_sid, 1))[0]
                pair[h], pair[g] = g, h
        step = [g - g % 4 + (g + 1) % 4 for g in pair]  # rotate . pair
        face = [-1] * len(step)
        for start in range(len(step)):
            h = start
            while face[h] < 0:
                face[h], h = start, step[h]
        circles = sum(not comp for comp in self._components)
        if len(set(face)) + 2 * circles != len(index) + 2 * self._pieces():
            return None
        return index, face

    def is_split(self):
        """True when the components fall into two or more pieces that
        share no site (a crossingless circle is a piece of its own)."""
        return len(self._components) > 1 and self._pieces() > 1

    def _pieces(self):
        """Number of connected pieces: components joined by shared sites."""
        root = list(range(len(self._components)))

        def find(ci):
            while root[ci] != ci:
                ci = root[ci]
            return ci

        first = {}
        for ci, comp in enumerate(self._components):
            for _, sid in comp:
                root[find(first.setdefault(sid, ci))] = find(ci)
        return sum(root[ci] == ci for ci in range(len(root)))

    def to_json_dict(self):
        comps = [[f"{k}{s}" for k, s in comp] for comp in self._components]
        return {
            "format": "singular-diagram",
            "components": comps,
            "signs": {str(sid): sgn for sid, sgn in self._signs.items()},
        }

    @classmethod
    def from_json_dict(cls, data):
        tok_re = re.compile(r"([OUPQ])(\d+)$")
        comps = []
        for comp in data["components"]:
            toks = []
            for t in comp:
                m = tok_re.match(t)
                if not m:
                    raise ParseError(f"bad token {t!r} in JSON diagram")
                toks.append((m.group(1), int(m.group(2))))
            comps.append(toks)
        signs = {int(k): int(v) for k, v in data.get("signs", {}).items()}
        return cls(comps, signs)


def _ccw_slots(kind, sign):
    """(in, out) counterclockwise slots of a passage at its crossing:
    under passages hold 0 and 2, over passages 2 + sign and 2 - sign."""
    if kind in (UNDER, NODE_SECOND):
        return 0, 2
    return 2 + sign, 2 - sign


# (in, out) slots of the two passages of a PD entry V(a, b, c, d).
_V_SLOTS = {NODE_FIRST: (0, 1), NODE_SECOND: (3, 2)}

# Per PD entry type: in slot -> (kind, out slot, crossing sign) of the
# passage that enters there.
_PD_DOORS = {
    "X": {
        _ccw_slots(kind, sign)[0]: (kind, _ccw_slots(kind, sign)[1], sign)
        for kind, sign in ((UNDER, 1), (OVER, 1), (OVER, -1))
    },
    "V": {slots[0]: (kind, slots[1], 0) for kind, slots in _V_SLOTS.items()},
}


def _splice_out(components, sid):
    """Remove site sid's two tokens and reconnect the strands by the
    oriented smoothing (enter first occurrence -> leave where the second
    occurrence left, and vice versa)."""
    locations = []
    for ci, comp in enumerate(components):
        for pi, (kind, s) in enumerate(comp):
            if s == sid:
                locations.append((ci, pi))
    (c1, p1), (c2, p2) = locations
    comps = [list(c) for c in components]
    if c1 == c2:
        w = comps[c1]
        lo, hi = sorted((p1, p2))
        piece_a = w[lo + 1 : hi]
        piece_b = w[hi + 1 :] + w[:lo]
        out = [tuple(c) for ci, c in enumerate(comps) if ci != c1]
        out.append(tuple(piece_a))
        out.append(tuple(piece_b))
        return tuple(out)
    a, b = comps[c1], comps[c2]
    merged = a[:p1] + b[p2 + 1 :] + b[:p2] + a[p1 + 1 :]
    out = [tuple(c) for ci, c in enumerate(comps) if ci not in (c1, c2)]
    out.append(tuple(merged))
    return tuple(out)


# -- canonical form ------------------------------------------------------


def _canonical_key(components, signs):
    """Least encoding over basepoint rotations and over orders of the
    components that share a signature, built one token at a time.

    The tokens of slot j depend only on the choices for slots <= j, so
    only the arrangements whose prefix is least so far are extended; the
    sign part breaks the ties left at the end.  Slots go by (size of the
    signature group, signature): a component with a unique signature is
    placed first and fixes the labels.  Empty components carry no site
    and lead the key as ().
    """
    groups = {}
    for comp in components:
        if comp:
            sig = (len(comp), tuple(sorted((kind, signs.get(sid, 0)) for kind, sid in comp)))
            groups.setdefault(sig, []).append(comp)
    empty = tuple(comp for comp in components if not comp)
    # A tie is (placed rotations, relabel map, unplaced components of the group).
    ties = [((), {}, ())]
    for (length, sig), group in sorted(groups.items(), key=lambda item: (len(item[1]), item[0])):
        lead = sig[0][0]  # only a rotation that starts with the least kind can lead
        starts = [kind for kind, _ in sig].count(lead)
        ties = [(placed, relabel, group) for placed, relabel, _ in ties]
        for left in range(len(group), 0, -1):
            if len(ties) * left * starts > _TIE_BUDGET:
                raise DiagramError("diagram too symmetric for the canonical form")
            # Every rotation's first token is (lead, label of its first site);
            # only the rotations with the least label are built.
            least = min(
                relabel.get(comp[r][1], len(relabel))
                for _, relabel, rest in ties
                for comp in rest
                for r in range(length)
                if comp[r][0] == lead
            )
            arrangements = [
                (placed + (comp[r:] + comp[:r],), {**relabel, comp[r][1]: least}, rest[:i] + rest[i + 1 :])
                for placed, relabel, rest in ties
                for i, comp in enumerate(rest)
                for r in range(length)
                if comp[r][0] == lead and relabel.get(comp[r][1], len(relabel)) == least
            ]
            for pos in range(1, length):
                if len(arrangements) == 1:  # a lone survivor only labels its sites
                    (placed, relabel, _), = arrangements
                    for _, sid in placed[-1][pos:]:
                        relabel.setdefault(sid, len(relabel))
                    break
                toks = []
                for placed, relabel, _ in arrangements:
                    kind, sid = placed[-1][pos]
                    toks.append((kind, relabel.setdefault(sid, len(relabel))))
                least = min(toks)
                arrangements = [a for a, tok in zip(arrangements, toks) if tok == least]
            ties = arrangements
    # The slots kept only least tokens, so every survivor spells the same
    # components, with sites numbered in first-encounter order.
    placed, relabel, _ = ties[0]
    encoded = tuple(tuple((kind, relabel[sid]) for kind, sid in comp) for comp in placed)
    sign_part = min(tuple(sorted((relabel[sid], sgn) for sid, sgn in signs.items())) for _, relabel, _ in ties)
    return (empty + encoded, sign_part)


# -- Gauss text ----------------------------------------------------------

_GAUSS_TOKEN = re.compile(r"\s*([OU])(\d+)([+-])")


def parse_gauss(text):
    """Parse Gauss code text into a SingularDiagram.

    Tokens are [OU]<digits><+->, whitespace-separated or contiguous.
    Multiple components are separated by ';'.  Every label must appear
    once as O and once as U with equal signs.  Blank text raises.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty diagram input")
    comps = []
    signs = {}
    offset = 0
    for piece in text.split(";"):
        toks = []
        pos = 0
        while pos < len(piece):
            if piece[pos].isspace():
                pos += 1
                continue
            m = _GAUSS_TOKEN.match(piece, pos)
            if not m:
                raise ParseError("malformed Gauss token", position=offset + pos)
            kind, sid, sgn = m.group(1), int(m.group(2)), 1 if m.group(3) == "+" else -1
            if sid in signs and signs[sid] != sgn:
                raise ParseError(f"crossing {sid} appears with mismatched signs", position=offset + pos)
            signs.setdefault(sid, sgn)
            toks.append((kind, sid))
            pos = m.end()
        comps.append(tuple(toks))
        offset += len(piece) + 1
    counts = {}
    for comp in comps:
        for kind, sid in comp:
            counts.setdefault(sid, []).append(kind)
    for sid, kinds in counts.items():
        if sorted(kinds) != ["O", "U"]:
            raise ParseError(f"crossing {sid} must appear exactly once as O and once as U")
    return SingularDiagram(comps, signs)


# -- PD text -------------------------------------------------------------

_PD_ENTRY = re.compile(r"\s*([XV])\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text):
    """Parse PD text: whitespace-separated X(a,b,c,d) and V(a,b,c,d).

    Slots are read counterclockwise.  An X under passage runs a -> c; the
    over passage runs d -> b (a positive crossing) or b -> d (negative),
    as `_ccw_slots` says.  A V entry's first passage enters at a and
    leaves at b, its second enters at d and leaves at c.

    Orientation is a walk: from every under and node passage, follow each
    arc to its other end, which fixes the way through the next over
    passage, until the walk closes.  Reaching a slot that cannot be
    entered (the other end of an arc some passage already leaves by)
    raises.  A circuit made of over passages only is oriented by its
    first crossing in entry order with consecutive over arcs (d = b + 1
    negative, b = d + 1 positive), or else its first crossing is
    positive.  Components start at the least (entry, kind) passage and
    signs are keyed by entry index in entry order.  Blank text raises.
    """
    text = text.strip()
    if not text:
        raise ParseError("empty diagram input")
    entries = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _PD_ENTRY.match(text, pos)
        if not m:
            raise ParseError("malformed PD entry", position=pos)
        entries.append((m.group(1), tuple(int(g) for g in m.group(2, 3, 4, 5))))
        pos = m.end()

    ends = {}
    for e, (_, tup) in enumerate(entries):
        for slot, a in enumerate(tup):
            ends.setdefault(a, []).append((e, slot))
    other_end = {}
    for a, where in ends.items():
        if len(where) != 2:
            raise ParseError(f"arc {a} appears {len(where)} times; every arc must appear exactly twice")
        other_end[where[0]], other_end[where[1]] = where[1], where[0]

    # Each passage (entry, kind) maps to the passage its out arc enters.
    # A walk ends at the first passage already walked.  That passage
    # started a walk and is met at its in slot: had a walk passed through
    # it, or left it by this slot, it would have met this walk's previous
    # passage first.
    nxt = {}
    signs = {}

    def walk(e, slot):
        prev = None
        while True:
            typ, tup = entries[e]
            door = _PD_DOORS[typ].get(slot)
            if door is None:
                raise ParseError(f"arc {tup[slot]} is over-constrained; invalid code")
            kind, out, sign = door
            passage = (e, kind)
            if prev is not None:
                nxt[prev] = passage
            if passage in nxt:
                return
            nxt[passage] = None
            if kind == OVER:
                signs[e] = sign
            prev = passage
            e, slot = other_end[e, out]

    for e, (typ, _) in enumerate(entries):
        for slot, (kind, _, _) in _PD_DOORS[typ].items():
            if kind != OVER:
                walk(e, slot)
    # What is left are circuits of over passages only.
    for e, (typ, (_, b, _, d)) in enumerate(entries):
        if typ == "X" and e not in signs and abs(b - d) == 1:
            walk(e, _ccw_slots(OVER, b - d)[0])
    for e, (typ, _) in enumerate(entries):
        if typ == "X" and e not in signs:
            walk(e, _ccw_slots(OVER, 1)[0])

    comps = []
    for passage in sorted(nxt):
        toks = []
        while passage in nxt:
            toks.append((passage[1], passage[0]))
            passage = nxt.pop(passage)
        if toks:
            comps.append(tuple(toks))
    return SingularDiagram(comps, {e: signs[e] for e in sorted(signs)})


# -- braid closures --------------------------------------------------------


def braid_closure(word, n_strands=None):
    """Close a (singular) braid word into a SingularDiagram.

    word entries: a nonzero int k meaning the generator at positions
    (|k|, |k|+1) with sign(k) as crossing sign (the strand entering from
    the left passes over for positive k), or the pair ("node", i) for a
    singular generator at positions (i, i+1) whose first passage tag
    goes to the strand entering from the left.
    """
    if n_strands is None:
        width = 1
        for letter in word:
            i = letter[1] if isinstance(letter, tuple) else abs(letter)
            width = max(width, i + 1)
        n_strands = width
    occupant = list(range(n_strands))
    tracks = [[] for _ in range(n_strands)]
    signs = {}
    sid = 0
    for letter in word:
        if isinstance(letter, tuple):
            tag, i = letter
            if tag != "node":
                raise DiagramError(f"unknown braid letter {letter!r}")
            if not (1 <= i < n_strands):
                raise DiagramError(f"node position {i} out of range")
            left, right = occupant[i - 1], occupant[i]
            tracks[left].append((NODE_FIRST, sid))
            tracks[right].append((NODE_SECOND, sid))
        else:
            i = abs(letter)
            if letter == 0 or not (1 <= i < n_strands):
                raise DiagramError(f"braid letter {letter} out of range")
            left, right = occupant[i - 1], occupant[i]
            if letter > 0:
                tracks[left].append((OVER, sid))
                tracks[right].append((UNDER, sid))
                signs[sid] = 1
            else:
                tracks[left].append((UNDER, sid))
                tracks[right].append((OVER, sid))
                signs[sid] = -1
        occupant[i - 1], occupant[i] = occupant[i], occupant[i - 1]
        sid += 1
    # Strand ending at position p continues with the strand that started there.
    ends_at = {occupant[p]: p for p in range(n_strands)}
    comps = []
    remaining = set(range(n_strands))
    while remaining:
        start = min(remaining)
        toks = []
        s = start
        while True:
            remaining.discard(s)
            toks.extend(tracks[s])
            s = ends_at[s]
            if s == start:
                break
        comps.append(tuple(toks))
    return SingularDiagram(comps, signs)


def linking_matrix_total(diagram):
    """Half the signed sum of crossings between distinct components.

    The combinatorial linking number of a 2-component diagram; 0 for a
    split code.  Nodes are not allowed.
    """
    if diagram.n_nodes:
        raise DiagramError("linking number needs a node-free diagram")
    comp_of = {}
    for ci, comp in enumerate(diagram.components):
        for kind, sid in comp:
            comp_of.setdefault(sid, set()).add(ci)
    total = 0
    for sid, comps in comp_of.items():
        if len(comps) == 2:
            total += diagram.sign(sid)
    if total % 2:
        raise DiagramError("odd inter-component crossing sum; corrupt diagram")
    return total // 2
