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
for virtual diagrams as well, and `is_planar` tells the two apart.
"""

from __future__ import annotations

import re

OVER = "O"
UNDER = "U"
NODE_FIRST = "P"
NODE_SECOND = "Q"

_CROSSING_KINDS = (OVER, UNDER)
_NODE_KINDS = (NODE_FIRST, NODE_SECOND)

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

    def __init__(self, components, signs, validate=True):
        self._components = tuple(tuple((k, int(s)) for k, s in comp) for comp in components)
        self._signs = {int(i): int(v) for i, v in dict(signs).items()}
        nodes = set()
        for comp in self._components:
            for kind, sid in comp:
                if kind in _NODE_KINDS:
                    nodes.add(sid)
        self._nodes = frozenset(nodes)
        self._canonical = None
        if validate:
            self._validate()

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
        flip = {OVER: UNDER, UNDER: OVER}
        comps = tuple(
            tuple((flip[k], s) if s == sid and k in flip else (k, s) for k, s in comp)
            for comp in self._components
        )
        signs = dict(self._signs)
        signs[sid] = -signs[sid]
        return SingularDiagram(comps, signs, validate=False)

    def mirror(self):
        """Switch every crossing."""
        d = self
        for sid in self.crossing_ids:
            d = d.switch_crossing(sid)
        return d

    def smooth_crossing(self, sid):
        """Oriented smoothing at crossing sid (the crossing disappears)."""
        if sid not in self._signs:
            raise DiagramError(f"no crossing with id {sid}")
        comps = _splice_out(self._components, sid)
        signs = dict(self._signs)
        del signs[sid]
        return SingularDiagram(comps, signs, validate=False)

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
            return SingularDiagram(comps, self._signs, validate=False)
        if resolution == "positive":
            repl = {NODE_FIRST: OVER, NODE_SECOND: UNDER}
            new_sign = 1
        elif resolution == "negative":
            repl = {NODE_FIRST: UNDER, NODE_SECOND: OVER}
            new_sign = -1
        else:
            raise DiagramError(f"unknown resolution {resolution!r}")
        comps = tuple(
            tuple((repl[k], s) if s == sid and k in repl else (k, s) for k, s in comp)
            for comp in self._components
        )
        signs = dict(self._signs)
        signs[sid] = new_sign
        return SingularDiagram(comps, signs, validate=False)

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
        for comp in self._components:
            if len(comp) == 0:
                raise DiagramError("PD text cannot express a crossingless circle")
        arc = {}
        label = 1
        for ci, comp in enumerate(self._components):
            for pi in range(len(comp)):
                arc[(ci, pi)] = label
                label += 1
        ends = {}
        order = []
        for ci, comp in enumerate(self._components):
            length = len(comp)
            for pi, (kind, sid) in enumerate(comp):
                a_in = arc[(ci, (pi - 1) % length)]
                a_out = arc[(ci, pi)]
                if sid not in ends:
                    ends[sid] = {}
                    order.append(sid)
                ends[sid][kind] = (a_in, a_out)
        entries = []
        for sid in order:
            rec = ends[sid]
            if OVER in rec:
                u_in, u_out = rec[UNDER]
                o_in, o_out = rec[OVER]
                if self._signs[sid] > 0:
                    tup = (u_in, o_out, u_out, o_in)
                else:
                    tup = (u_in, o_in, u_out, o_out)
                entries.append("X(%d,%d,%d,%d)" % tup)
            else:
                p_in, p_out = rec[NODE_FIRST]
                q_in, q_out = rec[NODE_SECOND]
                entries.append("V(%d,%d,%d,%d)" % (p_in, p_out, q_out, q_in))
        return " ".join(entries)

    def is_planar(self):
        """True when the code is classical: its shadow lies on a sphere.

        Each crossing's half-edges go counterclockwise as in the PD text
        above: U_in, O_out, U_out, O_in when positive and U_in, O_in,
        U_out, O_out when negative (a node as its positive resolution).
        Each walk step pairs an "out" half-edge with the next token's
        "in" half-edge, and the faces are the orbits of rotate . pair.
        By Euler, a connected shadow with n crossings is planar iff it
        has n + 2 faces, so the code is planar iff F = n + 2 * pieces.
        """
        index = {sid: i for i, sid in enumerate(self._signs.keys() | self._nodes)}
        pair = [0] * (4 * len(index))
        for comp in self._components:
            for (kind, sid), (next_kind, next_sid) in zip(comp, comp[1:] + comp[:1]):
                out_slot = _ccw_slots(kind, self._signs.get(sid, 1))[1]
                in_slot = _ccw_slots(next_kind, self._signs.get(next_sid, 1))[0]
                h, g = 4 * index[sid] + out_slot, 4 * index[next_sid] + in_slot
                pair[h], pair[g] = g, h

        def rotate(h):
            return h - h % 4 + (h + 1) % 4

        def orbits(steps):
            seen = [False] * len(pair)
            count = 0
            for start in range(len(pair)):
                if seen[start]:
                    continue
                count += 1
                stack = [start]
                while stack:
                    h = stack.pop()
                    if not seen[h]:
                        seen[h] = True
                        stack.extend(step(h) for step in steps)
            return count

        faces = orbits([lambda h: rotate(pair[h])])
        pieces = orbits([rotate, pair.__getitem__])
        return faces == len(index) + 2 * pieces

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


def _token_sig(token, signs):
    kind, sid = token
    if kind in _CROSSING_KINDS:
        return (kind, signs[sid])
    return (kind, 0)


def _walk_encode(components, signs):
    """Relabel sites in first-encounter order along the components as
    given and encode the whole diagram as a nested tuple."""
    relabel = {}
    encoded = []
    for comp in components:
        toks = []
        for kind, sid in comp:
            if sid not in relabel:
                relabel[sid] = len(relabel)
            toks.append((kind, relabel[sid]))
        encoded.append(tuple(toks))
    sign_part = tuple(
        sorted((relabel[sid], sgn) for sid, sgn in signs.items())
    )
    return (tuple(encoded), sign_part)


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
            sig = (len(comp), tuple(sorted(_token_sig(t, signs) for t in comp)))
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
            arrangements = [
                (placed + (comp[r:] + comp[:r],), dict(relabel), rest[:i] + rest[i + 1 :])
                for placed, relabel, rest in ties
                for i, comp in enumerate(rest)
                for r in range(length)
                if comp[r][0] == lead
            ]
            for pos in range(length):
                toks = []
                for placed, relabel, _ in arrangements:
                    kind, sid = placed[-1][pos]
                    toks.append((kind, relabel.setdefault(sid, len(relabel))))
                least = min(toks)
                arrangements = [a for a, tok in zip(arrangements, toks) if tok == least]
            ties = arrangements
    return min(_walk_encode(empty + placed, signs) for placed, _, _ in ties)


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
    for sid in signs:
        if sid not in counts:
            raise ParseError(f"sign given for absent crossing {sid}")
    return SingularDiagram(comps, signs)


# -- PD text -------------------------------------------------------------

_PD_ENTRY = re.compile(r"\s*([XV])\s*\(\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\)")


def parse_pd(text):
    """Parse PD text: whitespace-separated X(a,b,c,d) and V(a,b,c,d).

    X tuples are read counterclockwise from the incoming under-strand
    (under passage a->c); the over-strand orientation is inferred from
    global head/tail consistency, with a consecutive-arc-numbering
    heuristic and a deterministic positive default breaking ties.  The
    crossing is positive exactly when the over strand runs d->b.

    V tuples are read as (in1, out1, out2, in2): the first strand
    passage enters at a and leaves at b, the second enters at d and
    leaves at c.  Blank text raises.
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

    slot_count = {}
    for _, tup in entries:
        for a in tup:
            slot_count[a] = slot_count.get(a, 0) + 1
    for a, cnt in slot_count.items():
        if cnt != 2:
            raise ParseError(f"arc {a} appears {cnt} times; every arc must appear exactly twice")

    # Fixed passages: (site, kind, in_arc, out_arc).  Crossing over
    # passages start undecided.
    passages = []
    undecided = []
    for sid, (typ, (a, b, c, d)) in enumerate(entries):
        if typ == "V":
            passages.append((sid, NODE_FIRST, a, b))
            passages.append((sid, NODE_SECOND, d, c))
        else:
            passages.append((sid, UNDER, a, c))
            if b == d:
                passages.append((sid, OVER, b, d))
                undecided.append((sid, None))  # orientation moot, sign defaults +
            else:
                undecided.append((sid, (b, d)))

    heads = {a: 0 for a in slot_count}
    tails = {a: 0 for a in slot_count}
    for _, _, a_in, a_out in passages:
        heads[a_in] += 1
        tails[a_out] += 1
    for a in slot_count:
        if heads[a] > 1 or tails[a] > 1:
            raise ParseError(f"arc {a} is over-constrained; invalid code")

    over_sign = {}
    for sid, bd in undecided:
        if bd is None:
            over_sign[sid] = 1

    pending = [(sid, bd) for sid, bd in undecided if bd is not None]

    def feasible(b, d):
        # orientation b -> d (over in at b): needs head slot for b, tail for d
        return heads[b] == 0 and tails[d] == 0

    def decide(sid, a_in, a_out, sign):
        passages.append((sid, OVER, a_in, a_out))
        heads[a_in] += 1
        tails[a_out] += 1
        over_sign[sid] = sign

    while pending:
        progressed = False
        still = []
        for sid, (b, d) in pending:
            neg_ok = feasible(b, d)   # over b->d, negative
            pos_ok = feasible(d, b)   # over d->b, positive
            if not neg_ok and not pos_ok:
                raise ParseError(f"over strand at crossing entry {sid} cannot be oriented consistently")
            if neg_ok and not pos_ok:
                decide(sid, b, d, -1)
                progressed = True
            elif pos_ok and not neg_ok:
                decide(sid, d, b, 1)
                progressed = True
            else:
                still.append((sid, (b, d)))
        pending = still
        if pending and not progressed:
            # Consecutive numbering heuristic: over strand runs x -> x+1.
            chosen = False
            for i, (sid, (b, d)) in enumerate(pending):
                if d == b + 1 and feasible(b, d):
                    decide(sid, b, d, -1)
                    pending.pop(i)
                    chosen = True
                    break
                if b == d + 1 and feasible(d, b):
                    decide(sid, d, b, 1)
                    pending.pop(i)
                    chosen = True
                    break
            if not chosen:
                # Deterministic default: force the first pending crossing positive.
                sid, (b, d) = pending.pop(0)
                if feasible(d, b):
                    decide(sid, d, b, 1)
                else:
                    decide(sid, b, d, -1)

    for a in slot_count:
        if heads[a] != 1 or tails[a] != 1:
            raise ParseError(f"arc {a} lacks a consistent orientation; invalid code")

    # Trace circuits: each passage consumes its in-arc.
    by_in = {}
    for sid, kind, a_in, a_out in passages:
        by_in[a_in] = (sid, kind, a_out)
    visited = set()
    comps = []
    for sid, kind, a_in, a_out in sorted(passages, key=lambda p: (p[0], p[1])):
        if (sid, kind) in visited:
            continue
        toks = []
        cur = (sid, kind, a_out)
        while True:
            toks.append((cur[1], cur[0]))
            visited.add((cur[0], cur[1]))
            cur = by_in[cur[2]]
            if (cur[0], cur[1]) in visited:
                break
        comps.append(tuple(toks))

    signs = {sid: over_sign[sid] for sid, (typ, _) in enumerate(entries) if typ == "X"}
    return SingularDiagram(comps, signs)


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
