"""Slow, independent oracles that the tests hold the library's routes to.

`conway_recursion` is the descending-diagram Conway recursion, kept
here once; the library computes planar codes from a region minor and
refuses virtual ones.  Walk the components from their stored
basepoints, call a crossing bad when it is first met on its under
strand, and resolve the first bad crossing c by

    conway(D) = conway(switch(D, c)) + sign(c) * z * conway(smooth(D, c)).

A diagram with no bad crossings is descending, hence an unlink: 1 for
one component, 0 otherwise.  Switching the first bad crossing lowers the
bad count and smoothing lowers the crossing count, so the recursion
ends.  On a planar code the value is a link invariant.  On a virtual
code it depends on the basepoints: at best an invariant of the long
virtual knot (Goussarov-Polyak-Viro, *Finite-type invariants of
classical and virtual knots*, Topology 2000).
"""

from vassiliev.codes import UNDER
from vassiliev.laurent import IntegerLaurentPoly

Z = IntegerLaurentPoly.z()


def first_bad_crossing(diagram):
    """The first crossing met on its under strand; None for a descending
    diagram."""
    seen = set()
    for comp in diagram.components:
        for kind, sid in comp:
            if sid not in seen:
                if kind == UNDER:
                    return sid
                seen.add(sid)
    return None


def conway_recursion(diagram, memo=None):
    """Conway polynomial of a node-free code by the descending recursion.

    The subdiagrams of a planar code are filed under their canonical
    keys: switches and smoothings of a planar code are planar, and there
    the value is a link invariant.  Those of a virtual code are filed as
    given, site ids and basepoints included, so a hit repeats the same
    recursion.  The memo lives for one call unless one is passed; a memo
    shared by calls on planar codes only is sound, since its keys are
    canonical, but a hit then skips the recursion from that basepoint.
    """
    if memo is None:
        memo = {}
    planar = diagram.is_planar()

    def rec(d):
        if d.is_split():
            return IntegerLaurentPoly.zero()
        key = d.canonical_key() if planar else (d.components, tuple(sorted(d.signs.items())))
        if key not in memo:
            bad = first_bad_crossing(d)
            if bad is None:
                memo[key] = IntegerLaurentPoly.one() if d.n_components == 1 else IntegerLaurentPoly.zero()
            else:
                switched = rec(d.switch_crossing(bad))
                memo[key] = switched + d.sign(bad) * (Z * rec(d.smooth_crossing(bad)))
        return memo[key]

    return rec(diagram)


def polyak_viro_v2(knot):
    """Sum of sign(a) * sign(b) over the pairs of crossings whose passages
    are met from the basepoint as a over, b under, a under, b over."""
    (comp,) = knot.components
    at = {token: i for i, token in enumerate(comp)}
    return sum(
        knot.sign(a) * knot.sign(b)
        for a in knot.crossing_ids
        for b in knot.crossing_ids
        if at["O", a] < at["U", b] < at["U", a] < at["O", b]
    )
