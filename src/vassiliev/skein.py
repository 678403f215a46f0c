"""Conway polynomial and Vassiliev extensions of skein invariants.

`v2` of any knot code is the Polyak-Viro arrow count, a sum over pairs
of crossings of the code read from its stored basepoint, and builds no
polynomial.

`conway` takes one of two routes, chosen from the diagram alone.  Split
diagrams (`SingularDiagram.is_split`) are 0 at once.  A planar code
(`SingularDiagram.is_planar`), knot or link, gets its Conway polynomial
from one minor of its region matrix (Alexander 1928; Kauffman, *Formal
Knot Theory*, 1983), exact at one integer; a remainder raises.  One walk
of the shadow's faces both decides planarity and gives the matrix its
columns.

Non-planar (virtual) codes use the descending-diagram recursion: walk
the components from their stored basepoints, call a crossing bad when
it is first met on the under strand, and resolve the first bad crossing
c by

    conway(D) = conway(switch(D, c)) + sign(c) * z * conway(smooth(D, c)).

A diagram with no bad crossings is descending, hence an unlink: value 1
for one component, 0 otherwise.  Switching the first bad crossing lowers
the bad count and smoothing lowers the crossing count, so the recursion
terminates.  A planar subdiagram met inside the recursion takes the
region route.  The recursion's value depends on the basepoints, so its
results go into a memo keyed on the code as given, which lives for one
`conway` call unless the caller passes one; site ids are inherited
through the recursion, so repeats still meet.  Replacing
`_region_conway` by a function returning None leaves the pure
recursion, the oracle of the tests.
"""

from __future__ import annotations

from math import comb

from .codes import OVER, UNDER, DiagramError
from .laurent import IntegerLaurentPoly

_Z = IntegerLaurentPoly.z()
_ONE = IntegerLaurentPoly.one()
_ZERO = IntegerLaurentPoly.zero()

# By sign: powers of s at corners 0-3 of a region row times s, and B (`codes._ccw_slots`).
_CORNERS = {1: ((1, 2, 1, 0), 3), -1: ((2, 1, 0, 1), 0)}


def _first_bad_crossing(diagram):
    """The first crossing met on its under strand; None for a descending
    diagram.  The recursion never sees nodes."""
    seen = set()
    for comp in diagram.components:
        for kind, sid in comp:
            if sid not in seen:
                if kind == UNDER:
                    return sid
                seen.add(sid)
    return None


def conway(diagram, memo=None):
    """Conway polynomial of a node-free diagram, exact in z.

    conway(L+) - conway(L-) = z * conway(L0), conway(unknot) = 1, and
    any split diagram evaluates to 0.  Only the recursion on virtual
    codes fills `memo`; without it the call starts a fresh one.
    """
    if diagram.n_nodes:
        raise DiagramError("conway needs a node-free diagram; resolve nodes first")
    return _conway(diagram, {} if memo is None else memo)


def _conway(diagram, memo):
    if diagram.is_split():
        return _ZERO
    val = _region_conway(diagram)
    if val is not None:
        return val
    key = (diagram.components, tuple(sorted(diagram.signs.items())))
    val = memo.get(key)
    if val is not None:
        return val
    bad = _first_bad_crossing(diagram)
    if bad is None:
        val = _ONE if diagram.n_components == 1 else _ZERO
    else:
        sign = diagram.sign(bad)
        switched = _conway(diagram.switch_crossing(bad), memo)
        smoothed = _conway(diagram.smooth_crossing(bad), memo)
        val = switched + sign * (_Z * smoothed)
    memo[key] = val
    return val


def _region_conway(diagram):
    """Conway polynomial of a planar, non-split code from a minor of its
    region matrix; None for a non-planar code.

    One row per crossing, one column per face (`SingularDiagram._faces`,
    whose one walk also decides planarity; corner j lies between slots j
    and j + 1).  A row weighs s^sign on T (between the outgoing strands),
    s^-sign on B (between the incoming ones) and 1 on the sides; entries
    in one face add.  Striking the two faces beside one edge leaves a
    minor eps * nabla(s - 1/s).  A state matches crossings to faces
    through corners; with the rows in the order one state gives,
    eps = (-1)^(B corners it uses) by Kauffman's Clock Theorem.  With no
    state the minor is 0.

    Where B and T share a face the crossing is a cut vertex, and counting
    faces on either side shows every state uses a side corner there.  So
    on |s| = 1 the entries a state can use have 2-norm at most 2 per row:
    by Hadamard and Cauchy, s = 2^(n+1) + 1 exceeds twice every
    coefficient of s^n * minor, which is taken there, each row times s.
    """
    faces = diagram._faces()
    if faces is None:
        return None
    n = diagram.n_crossings
    if n == 0:
        return _ONE if diagram.n_components == 1 else _ZERO
    index, face = faces
    # Strike the faces beside slot 0 of site 0; the densest face goes last.
    kept = sorted(set(face) - {face[0], face[1]}, key=face.count)
    column = {f: c for c, f in enumerate(kept)}
    base = 2 ** (n + 1) + 1
    rows, b_columns = [], []
    for sid, i in index.items():
        powers, b = _CORNERS[diagram.sign(sid)]
        row = {}
        for j, power in enumerate(powers):
            c = column.get(face[4 * i + (j + 1) % 4])
            if c is not None:
                row[c] = row.get(c, 0) + base**power
        rows.append(row)
        b_columns.append(column.get(face[4 * i + (b + 1) % 4]))
    owner = _state(rows)
    if owner is None:
        return _ZERO
    value = _bareiss([rows[x] for x in owner])
    if sum(b_columns[x] == c for c, x in enumerate(owner)) % 2:
        value = -value
    # value = s^n * nabla(s - 1/s); its balanced digits are the
    # coefficients of s^-n ... s^n.  Peel a_k (s - 1/s)^k off the top.
    coeffs = []
    for _ in range(2 * n + 1):
        coeffs.append((value + base // 2) % base - base // 2)
        value = (value - coeffs[-1]) // base
    nabla = {}
    for k in range(n, -1, -1):
        a = nabla[k] = coeffs[n + k]
        for i in range(k + 1):
            coeffs[n + k - 2 * i] -= a * (-1) ** i * comb(k, i)
    if value or any(coeffs):
        raise ArithmeticError(f"region minor of {diagram.to_gauss()} is not nabla(s - 1/s)")
    return IntegerLaurentPoly(nabla)


def _state(rows):
    """The row owning each column in one perfect matching of rows to the
    columns of their entries, by augmenting paths; None if there is none."""
    owner = {}

    def claim(x, seen):
        for c in rows[x]:
            if c not in seen:
                seen.add(c)
                if c not in owner or claim(owner[c], seen):
                    owner[c] = x
                    return True
        return False

    found = all(claim(x, set()) for x in range(len(rows)))
    return [owner[c] for c in range(len(rows))] if found else None


def _bareiss(rows):
    """Determinant of a square integer matrix of sparse rows
    ({column: entry}) by Bareiss elimination, overwriting the rows.

    Step k only multiplies a row with no entry in column k by
    pivot_k / pivot_(k-1).  A run of such steps telescopes, so a row
    keeps the pivot it was last exact at, and the next update to touch
    it divides by that one instead; a pivot row is rescaled.  Every
    quotient is exact, as the true entries are minors."""
    size = len(rows)
    exact_at = [1] * size
    prev = sign = 1
    for k in range(size):
        at = next((i for i in range(k, size) if k in rows[i]), None)
        if at is None:
            return 0
        rows[k], rows[at] = rows[at], rows[k]
        exact_at[k], exact_at[at] = exact_at[at], exact_at[k]
        sign *= 1 if at == k else -1
        top = rows[k]
        if exact_at[k] != prev:
            for j in top:
                top[j] = top[j] * prev // exact_at[k]
        pivot = top.pop(k)
        for i in range(k + 1, size):
            row = rows[i]
            lead = row.pop(k, 0)
            if lead:
                for j in row:
                    row[j] *= pivot
                for j, v in top.items():
                    row[j] = row.get(j, 0) - lead * v
                rows[i] = {j: v // exact_at[i] for j, v in row.items() if v}
                exact_at[i] = pivot
        prev = pivot
    return sign * prev


def extend_invariant(invariant, a, b, c):
    """Extend an invariant of node-free diagrams to singular diagrams by

        V(node) = a * V(positive) + b * V(negative) + c * V(smoothed),

    applied at every node.  a, b, c may be ints or ring elements; zero
    coefficients prune their branch.
    """

    def extended(diagram):
        nodes = diagram.node_ids
        if not nodes:
            return invariant(diagram)
        nid = nodes[0]
        total = None
        for coeff, res in ((a, "positive"), (b, "negative"), (c, "smooth")):
            if coeff == 0:
                continue
            term = coeff * extended(diagram.resolve_node(nid, res))
            total = term if total is None else total + term
        if total is None:
            # all three coefficients are zero: a zero of the coefficients' type
            total = a * extended(diagram.resolve_node(nid, "positive"))
        return total

    return extended


def vassiliev_eval(invariant, diagram):
    """Evaluate the Vassiliev specialization (a, b, c) = (1, -1, 0)."""
    return extend_invariant(invariant, 1, -1, 0)(diagram)


def v2(diagram):
    """Degree-2 coefficient of the Conway polynomial of a knot diagram,
    as the Polyak-Viro arrow count (Polyak-Viro, *Gauss diagram formulas
    for Vassiliev invariants*, IMRN 1994): the sum of sign(a) * sign(b)
    over the crossing pairs whose passages are met from the basepoint as
    a over, b under, a under, b over.  On a non-planar (virtual) code it
    is the z^2 coefficient of `conway` from the same basepoint.
    """
    if diagram.n_nodes:
        raise DiagramError("v2 needs a node-free diagram")
    if diagram.n_components != 1:
        raise DiagramError("v2 is defined for one-component diagrams")
    over, under = {}, {}
    for at, (kind, sid) in enumerate(diagram.components[0]):
        (over if kind == OVER else under)[sid] = at
    arrows = [(over[sid], under[sid], diagram.sign(sid)) for sid in over]
    return sum(
        sign_a * sign_b
        for over_a, under_a, sign_a in arrows
        if over_a < under_a
        for over_b, under_b, sign_b in arrows
        if over_a < under_b < under_a < over_b
    )


def finite_type_check(invariant, k, diagrams):
    """Check that the Vassiliev extension of `invariant` vanishes on
    every diagram with more than k nodes.

    Returns (ok, failures); failures list (diagram, value) pairs.
    """
    failures = []
    for d in diagrams:
        if d.n_nodes <= k:
            raise DiagramError(
                f"finite_type_check at order {k} needs diagrams with more than {k} nodes; "
                f"got one with {d.n_nodes}"
            )
        val = vassiliev_eval(invariant, d)
        if val != 0:
            failures.append((d, val))
    return (not failures), failures


def embedding_independence_check(invariant, k, diagram, switch_sequences):
    """For a diagram with exactly k nodes and a type-k invariant, the
    extension's value must not depend on crossing switches.

    Each switch sequence is an iterable of crossing ids, applied in
    order.  Returns (ok, max_deviation, details) where deviations are
    measured as the largest absolute Laurent coefficient (or absolute
    value for plain numbers) of the difference from the base value.
    """
    if diagram.n_nodes != k:
        raise DiagramError(f"expected exactly {k} nodes, got {diagram.n_nodes}")
    base = vassiliev_eval(invariant, diagram)
    max_dev = 0
    details = []
    for seq in switch_sequences:
        d = diagram
        for sid in seq:
            d = d.switch_crossing(sid)
        val = vassiliev_eval(invariant, d)
        dev = _deviation(val, base)
        details.append((tuple(seq), val, dev))
        if dev > max_dev:
            max_dev = dev
    return max_dev == 0, max_dev, details


def _deviation(value, base):
    diff = value - base
    if isinstance(diff, IntegerLaurentPoly):
        return max((abs(c) for _, c in diff.items()), default=0)
    return abs(diff)
