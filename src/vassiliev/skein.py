"""Conway polynomial and Vassiliev extensions of skein invariants.

`v2` of any knot code is the Polyak-Viro arrow count, a sum over pairs
of crossings of the code read from its stored basepoint, and builds no
polynomial.

`conway` takes one of two routes, chosen from the diagram alone.

A one-component, planar code (`SingularDiagram.is_planar`) is a
classical knot, and its Conway polynomial comes from the Alexander
matrix (Alexander 1928; Chmutov-Duzhin-Mostovoy, ch. 2): one row per
crossing, one column per arc between undercrossings.  One first minor
is taken by Bareiss at a single integer t = B, and its coefficients are
read back as balanced base-B digits; B exceeds twice a proven bound on
them.  Delta is normalized to Delta(1) = 1 and checked symmetric, and a
failed check raises.  These results skip the memo.

Links and non-planar (virtual) codes use the descending-diagram
recursion: walk the components from their stored basepoints, call a
crossing bad when it is first met on the under strand, and resolve the
first bad crossing c by

    conway(D) = conway(switch(D, c)) + sign(c) * z * conway(smooth(D, c)).

A diagram with no bad crossings is descending, hence an unlink: value 1
for one component, 0 otherwise.  Switching the first bad crossing lowers
the bad count and smoothing lowers the crossing count, so the recursion
terminates.  A planar knot met inside the recursion takes the matrix
route.  Split diagrams (`SingularDiagram.is_split`) are 0 at once.

Other results go into a memo that lives for one `conway` call unless
the caller passes one.  A planar subdiagram is keyed on its canonical
form, because its value is a link invariant.  On a non-planar code the
recursion's value depends on the basepoints, so such a subdiagram is
keyed on the code as given; site ids are inherited through the
recursion, so repeats still meet.  The keys cannot collide: a canonical
form is itself a planar code.  So `conway` of a virtual code is the
memo-free recursion from its stored basepoints, whatever the memo held.
Replacing `_alexander_conway` by a function returning None leaves the
pure recursion, the oracle of the tests.
"""

from __future__ import annotations

from math import comb, isqrt

from .codes import OVER, UNDER, DiagramError
from .laurent import IntegerLaurentPoly

_Z = IntegerLaurentPoly.z()
_ONE = IntegerLaurentPoly.one()
_ZERO = IntegerLaurentPoly.zero()


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
    any split diagram evaluates to 0.  A planar knot takes the Alexander
    route and leaves `memo` untouched.  Without `memo` the call starts a
    fresh one.
    """
    if diagram.n_nodes:
        raise DiagramError("conway needs a node-free diagram; resolve nodes first")
    return _conway(diagram, {} if memo is None else memo)


def _conway(diagram, memo):
    val = _alexander_conway(diagram)
    if val is not None:
        return val
    # Split diagrams never reach canonical_key, which refuses some very
    # symmetric ones (many identical split pieces).
    if diagram.is_split():
        return _ZERO
    if diagram.is_planar():
        key = diagram.canonical_key()
    else:
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


def _alexander_conway(diagram):
    """Conway polynomial of a planar knot code from its Alexander matrix;
    None for a link or a non-planar code."""
    if diagram.n_components != 1 or not diagram.is_planar():
        return None
    n = diagram.n_crossings
    if n == 0:
        return _ONE
    # Arc k runs from the k-th under passage to the next one.
    over, under, arc = {}, {}, 0
    for kind, sid in diagram.components[0]:
        if kind == UNDER:
            under[sid] = (arc, (arc + 1) % n)
            arc = (arc + 1) % n
        else:
            over[sid] = arc
    # |coefficient| <= max |minor| on |t| = 1 <= sqrt(6) ** (n - 1) (Cauchy,
    # then Hadamard: each row's 2-norm there is at most sqrt(6)).
    base = isqrt(4 * 6 ** (n - 1)) + 1
    rows = []
    for sid in diagram.crossing_ids[:-1]:
        u_in, u_out = under[sid]
        t_in, t_out = (base, -1) if diagram.sign(sid) > 0 else (-1, base)
        row = [0] * n
        row[over[sid]] += 1 - base
        row[u_in] += t_in
        row[u_out] += t_out
        rows.append(row[:-1])
    value = _bareiss_det(rows)
    coeffs = []
    for _ in range(n):
        digit = value % base
        if 2 * digit > base:
            digit -= base
        coeffs.append(digit)
        value = (value - digit) // base
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if sum(coeffs) == -1:
        coeffs = [-c for c in coeffs]
    if value or sum(coeffs) != 1 or coeffs != coeffs[::-1]:
        raise ArithmeticError(f"Alexander polynomial {coeffs} of {diagram.to_gauss()} is not normalizable")
    # Delta(t) = sum_k b_k (t^1/2 - t^-1/2)^2k; peel the top term each time.
    half = coeffs[len(coeffs) // 2 :]
    nabla = {}
    for k in range(len(half) - 1, -1, -1):
        b = nabla[2 * k] = half[k]
        for j in range(k + 1):
            half[j] -= b * (-1) ** (k - j) * comb(2 * k, k - j)
    return IntegerLaurentPoly(nabla)


def _bareiss_det(rows):
    """Determinant of a square integer matrix by fraction-free elimination;
    the rows are overwritten."""
    sign, prev = 1, 1
    size = len(rows)
    for k in range(size - 1):
        if rows[k][k] == 0:
            swap = next((i for i in range(k + 1, size) if rows[i][k]), None)
            if swap is None:
                return 0
            rows[k], rows[swap] = rows[swap], rows[k]
            sign = -sign
        pivot_row = rows[k]
        pivot = pivot_row[k]
        for row in rows[k + 1 :]:
            lead = row[k]
            for j in range(k + 1, size):
                row[j] = (row[j] * pivot - lead * pivot_row[j]) // prev
        prev = pivot
    return sign * rows[-1][-1] if rows else 1


def extend_invariant(invariant, a, b, c):
    """Extend an invariant of node-free diagrams to singular diagrams by

        V(node) = a * V(positive) + b * V(negative) + c * V(smoothed),

    applied at every node.  a, b, c may be ints or ring elements; zero
    coefficients prune their branch.
    """

    def zero_like(value):
        return value * 0

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
            # all three coefficients are zero
            total = zero_like(invariant(diagram.resolve_node(nid, "positive")))
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
