"""Conway polynomial and Vassiliev extensions of skein invariants.

`conway` of a split diagram (`SingularDiagram.is_split`) is 0 at once.
A planar code (`SingularDiagram.is_planar`), knot or link, gets its
Conway polynomial from one minor of its region matrix (Alexander 1928;
Kauffman, *Formal Knot Theory*, 1983), exact at one integer; a remainder
raises.  One walk of the shadow's faces both decides planarity and gives
the matrix its columns.  A non-planar (virtual) code raises DiagramError:
there the descending skein recursion, kept in the tests as the oracle,
depends on the basepoint (`O1-O2-U1-U2-` gives 1, 1 + z^2, 1, 1 over its
rotations).

`v2` of a knot code is the Polyak-Viro arrow count over pairs of
crossings, read from the stored basepoint; it builds no polynomial.
"""

from __future__ import annotations

from math import comb

from .codes import OVER, DiagramError, SingularDiagram, _expect, _integer
from .laurent import IntegerLaurentPoly

_ONE = IntegerLaurentPoly.one()
_ZERO = IntegerLaurentPoly.zero()

# By sign: powers of s at corners 0-3 of a region row times s, and B (`codes._ccw_slots`).
_CORNERS = {1: ((1, 2, 1, 0), 3), -1: ((2, 1, 0, 1), 0)}

# Leaves of one Vassiliev extension's resolution tree, (nonzero
# coefficients)^nodes: 2^12 took 1.1-1.4 s with conway at the leaves
# on 12-node braid closures, on a 2-CPU machine.
MAX_RESOLUTIONS = 4096


def conway(diagram, memo=None):
    """Conway polynomial of a planar, node-free diagram, exact in z.

    conway(L+) - conway(L-) = z * conway(L0), conway(unknot) = 1, and
    any split diagram evaluates to 0; a virtual code raises DiagramError.
    `memo` is unused, and kept for callers that still pass one.
    """
    _expect(diagram, SingularDiagram, "conway", "diagram")
    if diagram.n_nodes:
        raise DiagramError("conway needs a node-free diagram; resolve nodes first")
    if diagram.is_split():
        return _ZERO
    return _region_conway(diagram)


def _region_conway(diagram):
    """Conway polynomial of a planar, non-split code from a minor of its
    region matrix; DiagramError for a non-planar (virtual) code.

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
        raise DiagramError("conway needs a planar code; this one is virtual")
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
    return _nabla(value, n)


def _nabla(value, n):
    """nabla from value = s^n * nabla(s - 1/s) at s = 2^(n+1) + 1, for
    nabla of degree at most n; a value not of that form raises."""
    base = 2 ** (n + 1) + 1
    # The balanced digits of value are the coefficients of s^-n ... s^n.
    # Peel a_k (s - 1/s)^k off the top.
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
        raise ArithmeticError(f"region minor is not s^{n} * nabla(s - 1/s) at s = 2^{n + 1} + 1")
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

    applied at every node, in the order of the node ids read once from
    the diagram.  a, b, c may be ints or ring elements; zero coefficients
    prune their branch.  A diagram whose resolution tree has more than
    MAX_RESOLUTIONS leaves, (nonzero coefficients)^nodes, raises
    ValueError before any is evaluated.
    """
    nonzero = sum(1 for coeff in (a, b, c) if coeff != 0)

    def resolved(diagram, nodes):
        """Resolve `nodes` first to last: a resolution keeps the others' ids."""
        if not nodes:
            return invariant(diagram)
        nid, rest = nodes[0], nodes[1:]
        total = None
        for coeff, res in ((a, "positive"), (b, "negative"), (c, "smooth")):
            if coeff == 0:
                continue
            term = coeff * resolved(diagram.resolve_node(nid, res), rest)
            total = term if total is None else total + term
        if total is None:
            # all three coefficients are zero: a zero of the coefficients' type
            total = a * resolved(diagram.resolve_node(nid, "positive"), rest)
        return total

    def extended(diagram):
        _expect(diagram, SingularDiagram, "extend_invariant", "diagram")
        nodes = diagram.node_ids
        n = len(nodes)
        if nonzero**n > MAX_RESOLUTIONS:
            raise ValueError(
                f"{n} nodes with {nonzero} nonzero coefficients have {nonzero}^{n} "
                f"resolutions, past the bound {MAX_RESOLUTIONS:,}"
            )
        return resolved(diagram, nodes)

    return extended


def vassiliev_eval(invariant, diagram):
    """Evaluate the Vassiliev specialization (a, b, c) = (1, -1, 0)."""
    return extend_invariant(invariant, 1, -1, 0)(diagram)


def v2(diagram):
    """Degree-2 coefficient of the Conway polynomial of a knot diagram,
    as the Polyak-Viro arrow count (Polyak-Viro, *Gauss diagram formulas
    for Vassiliev invariants*, IMRN 1994): the sum of sign(a) * sign(b)
    over the crossing pairs whose passages are met from the basepoint as
    a over, b under, a under, b over.

    Planarity is not checked, as a face walk costs more than the count.
    On a virtual code the count is the z^2 coefficient of the descending
    recursion from the stored basepoint: an invariant of the long virtual
    knot cut there (Goussarov-Polyak-Viro 2000), not of the knot.
    """
    _expect(diagram, SingularDiagram, "v2", "diagram")
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
    k = _integer(k, "order", 0, ValueError)
    failures = []
    for d in diagrams:
        _expect(d, SingularDiagram, "finite_type_check", "an item of diagrams")
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
    k = _integer(k, "order", 0, ValueError)
    _expect(diagram, SingularDiagram, "embedding_independence_check", "diagram")
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
