"""Conway polynomial and Vassiliev extensions of skein invariants.

The Conway evaluation uses the descending-diagram algorithm: walk the
components from their stored basepoints, call a crossing bad when it is
first met on the under strand, and resolve the first bad crossing c by

    conway(D) = conway(switch(D, c)) + sign(c) * z * conway(smooth(D, c)).

A diagram with no bad crossings is descending, hence an unlink: value 1
for one component, 0 otherwise.  Switching the first bad crossing lowers
the bad count and smoothing lowers the crossing count, so the recursion
terminates.  Split diagrams are 0 at once; other results are memoized on
the canonical form of the diagram.  The memo table is the only shared
state and never changes values.
"""

from __future__ import annotations

from .codes import DiagramError, SingularDiagram
from .laurent import IntegerLaurentPoly

_Z = IntegerLaurentPoly.z()
_ONE = IntegerLaurentPoly.one()
_ZERO = IntegerLaurentPoly.zero()

_memo = {}


def _first_bad_crossing(diagram):
    seen = set()
    for comp in diagram.components:
        for kind, sid in comp:
            if kind in ("P", "Q"):
                continue
            if sid in seen:
                continue
            seen.add(sid)
            if kind == "U":
                return sid
    return None


def _is_split(diagram):
    """True when the components fall into >= 2 groups that share no site."""
    n = diagram.n_components
    if n < 2:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    first_comp = {}
    for ci, comp in enumerate(diagram.components):
        for _, sid in comp:
            if sid in first_comp:
                a, b = find(first_comp[sid]), find(ci)
                if a != b:
                    parent[a] = b
            else:
                first_comp[sid] = ci
    roots = {find(ci) for ci in range(n)}
    return len(roots) > 1


def conway(diagram, memo=None):
    """Conway polynomial of a node-free diagram, exact in z.

    conway(L+) - conway(L-) = z * conway(L0), conway(unknot) = 1, and
    any split diagram evaluates to 0.
    """
    if diagram.n_nodes:
        raise DiagramError("conway needs a node-free diagram; resolve nodes first")
    if memo is None:
        memo = _memo
    return _conway(diagram, memo)


def _conway(diagram, memo):
    # Split diagrams never reach canonical_key, which refuses some very
    # symmetric ones (many identical split pieces).
    if _is_split(diagram):
        return _ZERO
    key = diagram.canonical_key()
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


def v2(diagram, memo=None):
    """Degree-2 coefficient of the Conway polynomial of a knot diagram."""
    if diagram.n_nodes:
        raise DiagramError("v2 needs a node-free diagram")
    if diagram.n_components != 1:
        raise DiagramError("v2 is defined for one-component diagrams")
    return conway(diagram, memo=memo).coefficient(2)


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
