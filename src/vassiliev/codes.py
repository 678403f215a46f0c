"""Combinatorial knot and singular-knot diagrams.

A diagram is stored as a set of oriented closed circuits of *passage
tokens*.  Each crossing contributes two tokens, ("O", id) for the over
passage and ("U", id) for the under passage, plus a sign.  Each rigid
4-valent node contributes two tagged passage tokens ("P", id) and
("Q", id); the tags persist so that resolving the node into a positive
or negative crossing is well defined.  The tokens are the only record of
which sites are nodes: the signed sites are the crossings, the others
the nodes.

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

import operator
import random
import re

OVER = "O"
UNDER = "U"
NODE_FIRST = "P"
NODE_SECOND = "Q"

_CROSSING_KINDS = (OVER, UNDER)
_NODE_KINDS = (NODE_FIRST, NODE_SECOND)
_SWITCH = {OVER: UNDER, UNDER: OVER}


def _passages(sign):
    """(first, second) passage kinds at a crossing of this sign: the first
    goes over at a positive one.  The only rule from a sign to kinds."""
    return (OVER, UNDER) if sign > 0 else (UNDER, OVER)


# Node resolution -> (crossing sign, kinds of its P and Q tokens).  A constant:
# a map built per call slowed the exact benchmark's `switch` ops 7% (2-CPU machine).
_RESOLUTIONS = {
    name: (sign, dict(zip(_NODE_KINDS, _passages(sign)))) for name, sign in (("positive", 1), ("negative", -1))
}

# The canonical key raises rather than try more candidate rotations than
# this for one slot: ties times unplaced components times the rotations
# that start with the least kind.
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


def _integer(value, what, least=None, error=DiagramError):
    """value as an int; `error` naming it as `what` when it is not an
    integer or is below least.  Every integer argument of the library is
    read here, and every typed one by `_expect`: `codes` refuses with
    DiagramError, every other layer passes a plain ValueError."""
    try:
        value = operator.index(value)
    except TypeError:
        raise error(f"{what} {value!r} is not an integer") from None
    if least is not None and value < least:
        raise error(f"{what} must be at least {least}, not {value}")
    return value


def _expect(value, kind, where, name):
    """TypeError from `where` naming the argument `name` unless value is
    a `kind`.  Every typed argument of the library is read here, and
    every integer one by `_integer`."""
    if not isinstance(value, kind):
        raise TypeError(f"{where} expects a {kind.__name__} as {name}, not {type(value).__name__}")


class SingularDiagram:
    """Immutable singular link diagram.

    Parameters
    ----------
    components : iterable of iterable of (kind, site_id) tokens
    signs : mapping crossing id -> +1 or -1
    """

    __slots__ = ("_components", "_signs", "_canonical")

    def __init__(self, components, signs):
        self._components = tuple(
            tuple((k, _integer(s, "site id")) for k, s in comp) for comp in components
        )
        self._signs = {
            _integer(i, "crossing id"): _integer(v, "crossing sign")
            for i, v in dict(signs).items()
        }
        self._canonical = None
        self._validate()

    @classmethod
    def _from_parts(cls, components, signs):
        """A diagram its builder has proved valid: `components` is a tuple
        of token tuples and `signs` a dict no one changes.  The nodes are
        the sites of its "P"/"Q" tokens."""
        out = cls.__new__(cls)
        out._components, out._signs, out._canonical = components, signs, None
        return out

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
        return tuple(sorted(sid for comp in self._components for kind, sid in comp if kind == NODE_FIRST))

    @property
    def n_crossings(self):
        return len(self._signs)

    @property
    def n_nodes(self):
        # every site has two tokens
        return sum(map(len, self._components)) // 2 - len(self._signs)

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

    def resolve_node(self, sid, resolution):
        """Replace node sid by a crossing or by the oriented smoothing.

        resolution is "positive", "negative" or "smooth"; a crossing
        resolution gives the P and Q passages the kinds `_passages` gives
        at its sign, so negative is the crossing-switch of positive.
        """
        if not any((NODE_FIRST, sid) in comp for comp in self._components):
            raise DiagramError(f"no node with id {sid}")
        if resolution == "smooth":
            return SingularDiagram._from_parts(_splice_out(self._components, sid), self._signs)
        try:
            sign, kinds = _RESOLUTIONS[resolution]
        except (KeyError, TypeError):
            raise DiagramError(f"unknown resolution {resolution!r}") from None
        return self._retagged({sid}, kinds, {**self._signs, sid: sign})

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
        if self.n_nodes:
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
            ("X(%d,%d,%d,%d)" if sid in self._signs else "V(%d,%d,%d,%d)") % tuple(tup)
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
        sites = dict.fromkeys(sid for comp in self._components for _, sid in comp)
        index = {sid: i for i, sid in enumerate(sites)}
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
        """Inverse of to_json_dict; a missing or bad field raises ParseError."""
        tok_re = re.compile(r"([OUPQ])(\d+)$")
        components = data.get("components") if isinstance(data, dict) else None
        if not isinstance(components, list) or not all(isinstance(c, list) for c in components):
            raise ParseError("JSON diagram needs 'components', a list of token lists")
        comps = []
        for comp in components:
            toks = []
            for t in comp:
                m = tok_re.match(t) if isinstance(t, str) else None
                if not m:
                    raise ParseError(f"bad token {t!r} in JSON diagram 'components'")
                toks.append((m.group(1), int(m.group(2))))
            comps.append(toks)
        signs = data.get("signs", {})
        if not isinstance(signs, dict):
            raise ParseError("JSON diagram 'signs' must map crossing ids to signs")
        parsed = {}
        for k, v in signs.items():
            if not (re.fullmatch(r"[0-9]+", str(k)) and type(v) is int):
                raise ParseError(f"bad entry {k!r}: {v!r} in JSON diagram 'signs'")
            parsed[int(k)] = v
        return cls(comps, parsed)


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
    occurrence left, and vice versa).  The other components keep their
    order and the spliced ones come last."""
    (c1, p1), (c2, p2) = [
        (ci, pi) for ci, comp in enumerate(components) for pi, (_, s) in enumerate(comp) if s == sid
    ]
    rest = tuple(comp for ci, comp in enumerate(components) if ci != c1 and ci != c2)
    a, b = components[c1], components[c2]
    if c1 == c2:  # within one component the first passage found comes first
        return rest + (a[p1 + 1 : p2], a[p2 + 1 :] + a[:p1])
    return rest + (a[:p1] + b[p2 + 1 :] + b[:p2] + a[p1 + 1 :],)


# -- canonical form ------------------------------------------------------


def _canonical_key(components, signs):
    """Least encoding over basepoint rotations and over orders of the
    components that share a signature.

    Slots go by (size of the signature group, signature): a component
    with a unique signature is placed first and fixes the labels.  For
    each slot, every tie encodes each unplaced component of the group at
    every rotation that starts with the signature's least kind, numbering
    new sites in first-encounter order; the least encoding joins the key
    and the ties that spell it go on.  The sign part breaks the ties left
    at the end.  Empty components carry no site and lead the key as ().
    """
    groups = {}
    for comp in components:
        if comp:
            sig = (len(comp), tuple(sorted((kind, signs.get(sid, 0)) for kind, sid in comp)))
            groups.setdefault(sig, []).append(comp)
    key = [comp for comp in components if not comp]
    # A tie is (relabel map, unplaced components of the group).
    ties = [({}, ())]
    for (length, sig), group in sorted(groups.items(), key=lambda item: (len(item[1]), item[0])):
        lead = sig[0][0]  # only a rotation that starts with the least kind can be least
        starts = [kind for kind, _ in sig].count(lead)
        ties = [(relabel, group) for relabel, _ in ties]
        for left in range(len(group), 0, -1):
            if len(ties) * left * starts > _TIE_BUDGET:
                raise DiagramError("diagram too symmetric for the canonical form")
            least, kept = None, []
            for relabel, rest in ties:
                for i, comp in enumerate(rest):
                    twice = comp + comp
                    for r, (kind, sid) in enumerate(comp):
                        # a first site labelled above the least's first token cannot lead
                        if kind != lead or least and relabel.get(sid, len(relabel)) > least[0][1]:
                            continue
                        labels = relabel.copy()
                        code = tuple([(k, labels.setdefault(s, len(labels))) for k, s in twice[r : r + length]])
                        if least is None or code < least:
                            least, kept = code, []
                        if code == least:
                            kept.append((labels, rest[:i] + rest[i + 1 :]))
            key.append(least)
            ties = kept
    sign_part = min(tuple(sorted((relabel[sid], sgn) for sid, sgn in signs.items())) for relabel, _ in ties)
    return (tuple(key), sign_part)


# -- Gauss text ----------------------------------------------------------

# A Gauss token, or in group 4 a character that opens none.  `findall`
# searches, so whitespace between tokens is skipped.
_GAUSS_TOKEN = re.compile(r"([OU])(\d+)([+-])|(\S)")


def parse_gauss(text):
    """Parse Gauss code text into a SingularDiagram.

    Tokens are [OU]<digits><+->, whitespace-separated or contiguous.
    Multiple components are separated by ';'.  Every label must appear
    once as O and once as U with equal signs.  Blank text raises.
    """
    _expect(text, str, "parse_gauss", "text")
    text = text.strip()
    if not text:
        raise ParseError("empty diagram input")
    comps = []
    signs = {}
    for piece in text.split(";"):
        toks = []
        for kind, sid, sgn, bad in _GAUSS_TOKEN.findall(piece):
            if bad:
                raise _gauss_error(text, "malformed Gauss token", len(comps), len(toks))
            sid = int(sid)
            sgn = 1 if sgn == "+" else -1
            if signs.setdefault(sid, sgn) != sgn:
                raise _gauss_error(text, f"crossing {sid} appears with mismatched signs", len(comps), len(toks))
            toks.append((kind, sid))
        comps.append(tuple(toks))
    # Each crossing has a token; with no token twice, 2 per crossing means one O and one U.
    n_tokens = sum(map(len, comps))
    if n_tokens != 2 * len(signs) or n_tokens != len(set().union(*comps)):
        counts = {}
        for comp in comps:
            for kind, sid in comp:
                counts.setdefault(sid, []).append(kind)
        sid = next(sid for sid, kinds in counts.items() if sorted(kinds) != ["O", "U"])
        raise ParseError(f"crossing {sid} must appear exactly once as O and once as U")
    return SingularDiagram._from_parts(tuple(comps), signs)


def _gauss_error(text, message, ci, ti):
    """ParseError at the ti-th match of component ci of the stripped text."""
    pieces = text.split(";")
    start = list(_GAUSS_TOKEN.finditer(pieces[ci]))[ti].start()
    return ParseError(message, position=sum(len(p) + 1 for p in pieces[:ci]) + start)


# -- PD text -------------------------------------------------------------

# A PD entry, or in group 6 a character that opens none (as `_GAUSS_TOKEN`).
_PD_ENTRY = re.compile(r"([XV])\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)|(\S)")


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
    _expect(text, str, "parse_pd", "text")
    text = text.strip()
    if not text:
        raise ParseError("empty diagram input")
    entries = []
    for typ, a, b, c, d, bad in _PD_ENTRY.findall(text):
        if bad:
            raise ParseError("malformed PD entry", position=list(_PD_ENTRY.finditer(text))[len(entries)].start())
        entries.append((typ, (int(a), int(b), int(c), int(d))))

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
    return SingularDiagram._from_parts(tuple(comps), {e: signs[e] for e in sorted(signs)})


# -- braid closures --------------------------------------------------------


def _braid_position(letter):
    """Position i of a braid letter: |k| for a crossing k, i for ("node", i)."""
    try:
        if isinstance(letter, tuple):
            tag, i = letter
            if tag == "node":
                return operator.index(i)
        else:
            return abs(operator.index(letter))
    except (TypeError, ValueError):  # not an integer, or not a pair
        pass
    raise DiagramError(f"unknown braid letter {letter!r}")


def braid_closure(word, n_strands=None):
    """Close a (singular) braid word into a SingularDiagram.

    word entries: a nonzero int k, the generator at positions (|k|, |k|+1)
    with sign(k) as crossing sign, or the pair ("node", i), a singular
    generator at positions (i, i+1).  Site j is letter j, and the strand
    entering from the left takes its first passage: a node's P, or the
    kind `_passages` gives for the sign (over for positive k).
    """
    if n_strands is None:
        n_strands = max((_braid_position(letter) + 1 for letter in word), default=1)
    n_strands = _integer(n_strands, "strand count", 1)
    occupant = list(range(n_strands))
    tracks = [[] for _ in range(n_strands)]
    signs = {}
    for sid, letter in enumerate(word):
        i = _braid_position(letter)
        node = isinstance(letter, tuple)
        if not 1 <= i < n_strands:
            what = f"node position {i}" if node else f"braid letter {letter}"
            raise DiagramError(f"{what} out of range")
        if not node:
            signs[sid] = 1 if letter > 0 else -1
        kinds = _NODE_KINDS if node else _passages(letter)
        left, right = occupant[i - 1], occupant[i]
        tracks[left].append((kinds[0], sid))
        tracks[right].append((kinds[1], sid))
        occupant[i - 1], occupant[i] = right, left
    # Strand ending at position p continues with the strand that started there.
    ends_at = {s: p for p, s in enumerate(occupant)}
    comps, seen = [], set()
    for start in range(n_strands):
        if start in seen:
            continue
        toks, s = [], start
        while s not in seen:
            seen.add(s)
            toks += tracks[s]
            s = ends_at[s]
        comps.append(tuple(toks))
    return SingularDiagram._from_parts(tuple(comps), signs)


# -- random singular samples -----------------------------------------------


def sample_singular_diagrams(rng, n_nodes, count, *, n_strands=3, max_crossings=8,
                             one_component=False):
    """Random singular braid closures, optionally filtered to knots: each
    from a shuffled word of n_nodes nodes and 1..max_crossings crossings."""
    _expect(rng, random.Random, "sample_singular_diagrams", "rng")
    n_nodes, count = _integer(n_nodes, "node count", 0), _integer(count, "sample count", 0)
    n_strands = _integer(n_strands, "strand count", 2)
    max_crossings = _integer(max_crossings, "crossing bound", 1)
    # A knot closure's L letters, each a transposition, make an n-cycle:
    # L >= n - 1 and L = n - 1 (mod 2), so the word needs least crossings or more.
    least = max(1 + (n_nodes + n_strands) % 2, n_strands - 1 - n_nodes)
    if one_component and least > max_crossings:
        raise DiagramError(f"node count {n_nodes} with at most {max_crossings} crossings "
                           f"closes no knot on {n_strands} strands")
    out = []
    while len(out) < count:
        n_cross = rng.randint(1, max_crossings)
        word = [("node", rng.randint(1, n_strands - 1)) for _ in range(n_nodes)]
        word += [rng.choice([1, -1]) * rng.randint(1, n_strands - 1) for _ in range(n_cross)]
        rng.shuffle(word)
        d = braid_closure(word, n_strands=n_strands)
        if one_component and d.n_components != 1:
            continue
        out.append(d)
    return out


def linking_matrix_total(diagram):
    """Half the signed sum of crossings between distinct components.

    The combinatorial linking number of a 2-component diagram; 0 for a
    split code.  Nodes are not allowed.
    """
    _expect(diagram, SingularDiagram, "linking_matrix_total", "diagram")
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
        # two closed plane curves cross an even number of times
        raise DiagramError("odd inter-component crossing sum; a virtual code has no linking number")
    return total // 2
