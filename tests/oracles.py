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
ends.  `smooth_crossing` is that smoothing, the crossing spliced out as
`resolve_node(..., "smooth")` splices out a node.  On a planar code the
value is a link invariant.  On a virtual code it depends on the
basepoints: at best an invariant of the long virtual knot
(Goussarov-Polyak-Viro, *Finite-type invariants of classical and
virtual knots*, Topology 2000).

`jones_recursion` is the same recursion with the Jones skein rule in
s = t^(1/2), t^-1 V(L+) - t V(L-) = (s - 1/s) V(L0): a bad crossing of
sign +1 gives s^4 V(switch) + (s^3 - s) V(smooth), one of sign -1 gives
s^-4 V(switch) + (s^-3 - s^-1) V(smooth), and a descending c-component
diagram gives (-s - 1/s)^(c - 1).  Its t-derivatives at t = 1 check the
library's `v2`, as V''(1) = -6 v2, and give v3 = -V'''(1)/36 - V''(1)/12,
which no library route computes yet (Chmutov-Duzhin-Mostovoy,
*Introduction to Vassiliev Knot Invariants*, 2012, on the Jones
polynomial's Taylor coefficients).

`UBasis` is the hermitian u(N) basis of a fundamental representation:
generalized Gell-Mann matrices plus, for gl(N), the scaled identity,
which keeps the structure constants real and totally antisymmetric.
The library's weights count index loops and never build it; the tests
check its axioms and contract it with einsum to check the loop counts.

`not_a_knot_cubic` is one strand's spline with its rows built and
swept one Python float at a time, and `check_embedding` the embedding
margin as a loop over slabs and strand pairs.  The library builds the
rows and coefficients of every strand of an embedding in one batch of
numpy operations, evaluates each strand once on the probe heights of
all its slabs and takes one minimum; it must match both bit for bit,
the spline piece by piece.

`parse_gauss_loop` is the Gauss parser that matches one token at a time
and builds through `SingularDiagram(...)`, so its output is validated
again; the library scans each component with one regex and must give the
same diagram, or the same error with the same position.

`canonical_key_search` is the canonical key built one token at a time:
it extends only the arrangements whose prefix is least so far, finds the
least first label in a pass of its own, lets a lone survivor label its
sites without comparing, and spells the key from the survivors at the
end.  The library encodes each candidate rotation whole and keeps the
least, and must give the same bytes, or the same refusal under the
library's `_TIE_BUDGET`.

`nested_closure` embeds the closure of a braid word on n strands as a
plat on 2n lanes whose cups and caps nest, ((0, 2n-1), (1, 2n-2), ...,
(n-1, n)): the word acts on lanes 0..n-1 and the outer lanes carry the
closure strands back (every braid closure is a plat; Birman, *Braids,
Links, and Mapping Class Groups*, 1974).  Its shadow must be
`braid_closure` of the word.  `signed_resolution_sum` extends the raw
integral to singular knots by Z(K x) = Z(K+) - Z(K-) at each node
letter: it sums the raw series of the 2^m resolutions, each times the
product of its resolution signs.  A knot with m double points then has
a sum that starts at degree m with its chord diagram (Kontsevich;
Bar-Natan, *On the Vassiliev knot invariants*, Topology 1995).  Every
resolution has the same maxima, so no hump division is needed.

`nested_tail_blocks` builds a slab's ordered blocks to any degree by
nested tails: a k-block is one matrix product per choice of the chords
above the second, each through its own nested tail of suffix cumsums.
The library's `_ordered_blocks` writes the tail above a node as the
row's whole integral minus its head there, and must match it to 1e-12
relative up to `MAX_DEGREE`.

`OracleQuad` integrates one placement at a time, as the paper's
light-cone propagator prescribes: each chord joins two distinct strands
of one slab with both ends at one height t, and weighs
kappa * (dz_a - dz_b) / (z_a - z_b) there, negated once per end on a
downward strand; a within-slab run of chords is an ordered integral by
nested suffix cumsums, one chord at a time, on the settings of the
library's `_settings` rebuilt from `INSETS`.  `oracle_placements` lists
the placements one tuple at a time, and `assert_series_close` holds a
result's per-setting values to an oracle's at 1e-12 relative.  The
library instead builds each slab's blocks once for all placements, and
must match.
"""

import itertools
import math
import re
from functools import cached_property

import numpy as np

from vassiliev import kontsevich
from vassiliev.codes import _TIE_BUDGET, UNDER, DiagramError, ParseError, SingularDiagram, _splice_out
from vassiliev.fixtures import plat
from vassiliev.laurent import IntegerLaurentPoly
from vassiliev.morse import morse_embed

Z = IntegerLaurentPoly.z()

_GAUSS_TOKEN = re.compile(r"\s*([OU])(\d+)([+-])")


def parse_gauss_loop(text):
    """Gauss text to a SingularDiagram, one token match at a time."""
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


def canonical_key_search(diagram):
    """The canonical key of `diagram`, one token at a time.

    The tokens of slot j depend only on the choices for slots <= j, so
    only the arrangements whose prefix is least so far are extended; the
    sign part breaks the ties left at the end.
    """
    components, signs = diagram.components, diagram.signs
    groups = {}
    for comp in components:
        if comp:
            sig = (len(comp), tuple(sorted((kind, signs.get(sid, 0)) for kind, sid in comp)))
            groups.setdefault(sig, []).append(comp)
    empty = tuple(comp for comp in components if not comp)
    # A tie is (placed rotations, relabel map, unplaced components of the group).
    ties = [((), {}, ())]
    for (length, sig), group in sorted(groups.items(), key=lambda item: (len(item[1]), item[0])):
        lead = sig[0][0]
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
                    ((placed, relabel, _),) = arrangements
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


def smooth_crossing(diagram, sid):
    """Oriented smoothing of diagram at crossing sid (the crossing disappears)."""
    signs = diagram.signs
    if sid not in signs:
        raise DiagramError(f"no crossing with id {sid}")
    del signs[sid]
    return SingularDiagram._from_parts(_splice_out(diagram.components, sid), signs)


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
                memo[key] = switched + d.sign(bad) * (Z * rec(smooth_crossing(d, bad)))
        return memo[key]

    return rec(diagram)


# By the sign of a bad crossing: the factors of V(switch) and V(smooth),
# in s = t^(1/2).
_JONES_RULE = {
    1: (IntegerLaurentPoly.z(4), IntegerLaurentPoly.z(3) - IntegerLaurentPoly.z(1)),
    -1: (IntegerLaurentPoly.z(-4), IntegerLaurentPoly.z(-3) - IntegerLaurentPoly.z(-1)),
}
_LOOP = -IntegerLaurentPoly.z(1) - IntegerLaurentPoly.z(-1)


def jones_recursion(diagram, memo=None):
    """Jones polynomial of a node-free code in s = t^(1/2), by the
    descending recursion from the stored basepoints; subdiagrams are
    filed, and a memo shared, as in `conway_recursion`."""
    if memo is None:
        memo = {}
    planar = diagram.is_planar()

    def rec(d):
        key = d.canonical_key() if planar else (d.components, tuple(sorted(d.signs.items())))
        if key not in memo:
            bad = first_bad_crossing(d)
            if bad is None:
                value = IntegerLaurentPoly.one()
                for _ in range(d.n_components - 1):
                    value = value * _LOOP
            else:
                switch, smooth = _JONES_RULE[d.sign(bad)]
                value = switch * rec(d.switch_crossing(bad)) + smooth * rec(smooth_crossing(d, bad))
            memo[key] = value
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


class UBasis:
    """Generator matrices of `algebra` (a LieAlgebraData), normalized so
    that tr(T_a T_b) = delta_ab / 2."""

    def __init__(self, algebra):
        self.name = algebra.name
        self.N = algebra.N
        self.traceless = algebra.traceless
        self.dim = algebra.dim

    @cached_property
    def generators(self):
        """Hermitian basis, (dim, N, N): off-diagonal symmetric and
        antisymmetric pairs, traceless diagonals, then (gl only) the
        scaled identity."""
        N = self.N
        mats = []
        for j in range(N):
            for k in range(j + 1, N):
                sym = np.zeros((N, N), dtype=complex)
                sym[j, k] = sym[k, j] = 0.5
                mats.append(sym)
                asym = np.zeros((N, N), dtype=complex)
                asym[j, k] = -0.5j
                asym[k, j] = 0.5j
                mats.append(asym)
        for l in range(1, N):
            diag = np.zeros((N, N), dtype=complex)
            for i in range(l):
                diag[i, i] = 1
            diag[l, l] = -l
            mats.append(diag / np.sqrt(2 * l * (l + 1)))
        if not self.traceless:
            mats.append(np.eye(N, dtype=complex) / np.sqrt(2 * N))
        return np.stack(mats)

    @cached_property
    def structure_constants(self):
        T = self.generators
        # f_abc = -2i tr([T_a, T_b] T_c) given tr(T_a T_b) = delta/2
        comm = np.einsum("aij,bjk->abik", T, T) - np.einsum("bij,ajk->abik", T, T)
        f = -2j * np.einsum("abij,cji->abc", comm, T)
        if np.max(np.abs(f.imag)) > 1e-10:
            raise ValueError(f"{self.name}: structure constants are not real in this basis")
        return f.real

    def check(self, tol=1e-12):
        """Verify hermiticity, trace normalization, commutator closure
        and total antisymmetry of the structure constants."""
        T = self.generators
        herm = np.max(np.abs(T - np.conj(np.transpose(T, (0, 2, 1)))))
        if herm > tol:
            raise ValueError(f"{self.name}: generators not hermitian (residual {herm:.3e})")
        gram = np.einsum("aij,bji->ab", T, T)
        norm_res = np.max(np.abs(gram - 0.5 * np.eye(self.dim)))
        if norm_res > tol:
            raise ValueError(f"{self.name}: tr(T_a T_b) != delta/2 (residual {norm_res:.3e})")
        ok, residual = commutator_4T_witness(self, tol=tol)
        if not ok:
            raise ValueError(f"{self.name}: commutator closure fails (residual {residual:.3e})")
        f = self.structure_constants
        anti = max(
            np.max(np.abs(f + np.transpose(f, (1, 0, 2)))),
            np.max(np.abs(f + np.transpose(f, (0, 2, 1)))),
        )
        if anti > tol:
            raise ValueError(f"{self.name}: structure constants not totally antisymmetric")
        return True


def commutator_4T_witness(basis, tol=1e-12):
    """Largest residual of [T_a, T_b] = i f_abc T_c over all pairs, the
    identity that makes the weight system satisfy the four-term
    relations.  Returns (ok, max_residual)."""
    T = basis.generators
    f = basis.structure_constants
    comm = np.einsum("aij,bjk->abik", T, T) - np.einsum("bij,ajk->abik", T, T)
    target = 1j * np.einsum("abc,cij->abij", f, T)
    residual = float(np.max(np.abs(comm - target)))
    return residual <= tol, residual


def not_a_knot_cubic(t, z):
    """Per-interval coefficients, cubic first, of the not-a-knot cubic
    spline through (t, z) with t increasing.

    The knot slopes solve the usual tridiagonal system: a continuous
    second derivative at the interior knots, and a continuous third
    derivative at t[1] and t[-2].  Elimination needs no pivoting: every
    pivot is positive, at least one interval width except in the last
    row, which keeps dt[-2]**2 / (2 (dt[-2] + dt[-1])).  Through 2 or 3
    samples the spline is the line or the parabola.
    """
    dt = np.diff(t)
    m = np.diff(z) / dt
    n = len(t)
    if n <= 3:
        mid = np.dot(dt[::-1], m) / (t[-1] - t[0])
        d = np.r_[2 * m[0] - mid, [mid] * (n - 2), 2 * m[-1] - mid]
    else:
        h, w = dt.tolist(), m.tolist()
        span0, span1 = float(t[2] - t[0]), float(t[-1] - t[-3])
        diag = [h[1]] + [2 * (a + b) for a, b in zip(h, h[1:])] + [h[-2]]
        upper = [span0] + h[:-1]
        rhs = (
            [((h[0] + 2 * span0) * h[1] * w[0] + h[0] ** 2 * w[1]) / span0]
            + [3 * (b * p + a * q) for a, b, p, q in zip(h, h[1:], w, w[1:])]
            + [(h[-1] ** 2 * w[-2] + (2 * span1 + h[-1]) * h[-2] * w[-1]) / span1]
        )
        for i, lower in enumerate(h[1:] + [span1], 1):
            f = lower / diag[i - 1]
            diag[i] -= f * upper[i - 1]
            rhs[i] -= f * rhs[i - 1]
        rhs[-1] /= diag[-1]
        for i in range(n - 2, -1, -1):
            rhs[i] = (rhs[i] - upper[i] * rhs[i + 1]) / diag[i]
        d = np.array(rhs)
    c = (d[:-1] + d[1:] - 2 * m) / dt
    return c / dt, (m - d[:-1]) / dt - c, d[:-1], z[:-1]


def check_embedding(strands, slabs):
    margin = np.inf
    for slab in slabs:
        if len(slab.strand_ids) < 2:
            continue
        h = slab.height
        ts = np.linspace(slab.t_lo + 0.02 * h, slab.t_hi - 0.02 * h, 25)
        zs = np.array([strands[i].at(ts)[0] for i in slab.strand_ids])
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                sep = float(np.min(np.abs(zs[i] - zs[j])))
                margin = min(margin, sep)
    return margin


def nested_closure(word, n):
    """(components, shadow) of the plat closing a braid word on n strands."""
    nested = tuple((i, 2 * n - 1 - i) for i in range(n))
    return plat(word, 2 * n, nested, nested)


def signed_resolution_sum(word, n, quadrature):
    """Signed sum of the raw series, to degree m, of the nested closures
    of the 2^m resolutions of the m ("node", i) letters of word: +i with
    sign +1, -i with sign -1.  Degree 0 is the scalar sum of the signs;
    degree d maps each diagram to its array over the quadrature settings."""
    sites = [p for p, letter in enumerate(word) if isinstance(letter, tuple)]
    total = [{} for _ in range(len(sites) + 1)]
    for signs in itertools.product((1, -1), repeat=len(sites)):
        resolved = list(word)
        for p, sign in zip(sites, signs):
            resolved[p] = sign * word[p][1]
        mk = morse_embed(nested_closure(resolved, n)[0])
        product = math.prod(signs)
        for acc, sums in zip(total, kontsevich._raw_series(mk, len(sites), quadrature)):
            for diagram, value in sums.items():
                acc[diagram] = acc.get(diagram, 0) + product * value
    return total


def nested_tail_blocks(F, step, degree):
    """Blocks 1..degree of the slab integrands F (pairs, steps) on a
    midpoint grid of the given step, each k-block an array over k pair
    indices: the integral over t_1 < ... < t_k of F[p_1] ... F[p_k]."""

    def tail(g):
        return step * (np.cumsum(g[::-1])[::-1] - 0.5 * g)

    blocks = [step * F.sum(axis=1)]
    n = len(F)
    H = step * (np.cumsum(F, axis=1) - 0.5 * F)
    for k in range(2, degree + 1):
        block = np.empty((n,) * k, dtype=complex)
        for above in itertools.product(range(n), repeat=k - 2):
            R = 1.0
            for p in reversed(above):
                R = tail(F[p] * R)
            block[(slice(None), slice(None)) + above] = step * (H @ (F * R).T)
        blocks.append(block)
    return blocks


def oracle_placements(mk, m):
    """(slabs, pairs, downward endpoints) of every degree-m placement, in
    enumeration order."""
    pools = [sorted(itertools.combinations(sorted(slab.strand_ids), 2)) for slab in mk.slabs]
    for slabs in itertools.combinations_with_replacement(range(len(mk.slabs)), m):
        for pairs in itertools.product(*(pools[s] for s in slabs)):
            yield slabs, pairs, sum(not mk.strands[s].goes_up for pair in pairs for s in pair)


class OracleQuad:
    """Per-placement quadrature: each within-slab run of chords is an
    ordered integral by nested suffix cumsums, one chord at a time."""

    def __init__(self, mk, quadrature):
        self.mk = mk
        self.settings = [
            (eps, steps)
            for steps in (quadrature.steps, quadrature.steps // 2)
            for eps in kontsevich.INSETS
        ]
        self._fs = {}
        self._blocks = {}

    def f(self, slab_idx, pair, eps, steps):
        """The pair's chord integrand (dz_a - dz_b) / (z_a - z_b), both
        strands read at the same midpoint heights, and the cell width."""
        key = (slab_idx, pair, eps, steps)
        if key not in self._fs:
            slab = self.mk.slabs[slab_idx]
            a, b = slab.t_lo + eps * slab.height, slab.t_hi - eps * slab.height
            step = (b - a) / steps
            t = a + (np.arange(steps) + 0.5) * step
            (za, dza), (zb, dzb) = self.mk.strands[pair[0]].at(t), self.mk.strands[pair[1]].at(t)
            self._fs[key] = (dza - dzb) / (za - zb), step
        return self._fs[key]

    def block(self, slab_idx, pairs):
        key = (slab_idx, pairs)
        if key not in self._blocks:
            got = []
            for eps, steps in self.settings:
                rows = [self.f(slab_idx, p, eps, steps) for p in pairs]
                step = rows[0][1]
                R = 1.0
                for f, _ in rows[:0:-1]:
                    g = f * R
                    R = step * (np.cumsum(g[::-1])[::-1] - 0.5 * g)
                got.append(step * np.sum(rows[0][0] * R))
            self._blocks[key] = np.array(got)
        return self._blocks[key]

    def value(self, slabs, pairs, down):
        val = 1 + 0j
        for slab, run in itertools.groupby(zip(slabs, pairs), key=lambda sp: sp[0]):
            val = val * self.block(slab, tuple(pair for _, pair in run))
        return (-1) ** down * val * kontsevich.KAPPA ** len(slabs)


def assert_series_close(result, want):
    got = np.array(result.per_epsilon + result.per_epsilon_half)
    assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))
