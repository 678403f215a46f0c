"""Lie-algebra weight systems on chord diagrams.

A weight system assigns to each degree-m chord diagram the trace of a
product of generators: every chord carries a summed generator index and
deposits one generator at each of its two endpoints; the product is
taken around the circle.

Generators are normalized so that tr(T_a T_b) = delta_ab / 2.  For the
fundamental representation of gl(N) the summed pair is then half the
index swap, sum_a (T_a)_ij (T_a)_kl = delta_il delta_jk / 2, and for
su(N) the trace part is removed, (delta_il delta_jk - delta_ij delta_kl
/ N) / 2.  So a weight is exact: a count of index loops (Bar-Natan, On
the Vassiliev knot invariants, 1995, sec. 6; Chmutov, Duzhin and
Mostovoy, ch. 6).  With positions 0..2m-1 on the circle and element p
the matrix index entering position p:

- gl(N): a chord (p, q) joins p with q+1 and p+1 with q (mod 2m), and
  w(D) = N^c / 2^m for c loops;
- su(N): each subset S of the chords takes the trace part instead, a
  chord in S joining p with p+1 and q with q+1, and
  w(D) = sum_S (-1)^|S| N^(c_S + m - |S|) / (2N)^m.
"""

from __future__ import annotations

from fractions import Fraction

from .chords import ChordDiagram, enumerate_diagrams
from .codes import _expect, _integer


class LieAlgebraData:
    """Fundamental representation of gl(N), or of su(N) when traceless.

    The matrix size and the trace part are all a weight reads: `weight`
    counts index loops and builds no generator matrix.  `dim` is the
    number of generators, N^2 for gl(N) and N^2 - 1 for su(N).

    Parameters
    ----------
    name : str
    N : int, the matrix size
    traceless : bool, drop the identity generator (su(N), N >= 2)
    """

    def __init__(self, name, N, traceless):
        N = _integer(N, f"{name}: matrix size", error=ValueError)
        if N < 1 or (traceless and N < 2):
            raise ValueError(f"{name}: no fundamental representation of size {N}")
        self.name = name
        self.N = N
        self.traceless = traceless

    @property
    def dim(self):
        return self.N * self.N - self.traceless


def su2_fundamental():
    """Pauli matrices over two: tr(T_a T_b) = delta/2, f = epsilon."""
    return LieAlgebraData("su2", 2, traceless=True)


def gl_fundamental(N):
    """The N x N matrices, dim = N^2."""
    return LieAlgebraData(f"gl{N}", N, traceless=False)


def _weight_of_partner(algebra, partner):
    """Exact weight of a matching given as a partner tuple, any rotation.

    Each chord joins index positions in one union-find.  For gl(N) every
    chord takes the swap.  For su(N) the chords are walked depth first,
    each taking the swap and then the trace part, with its joins undone
    on the way back, so the 2^m subsets share the joins of their common
    prefix; a subset S adds (-1)^|S| N^(c_S + m - |S|).
    """
    n = len(partner)
    N = algebra.N
    if n == 0:
        return Fraction(N)  # the bare circle is one loop
    m = n // 2
    chords = [(p, q) for p, q in enumerate(partner) if p < q]
    swaps = [((p, (q + 1) % n), (p + 1, q)) for p, q in chords]
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    def join(pairs):
        """Join each pair's loops; return the roots that were linked."""
        roots = []
        for a, b in pairs:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                roots.append(ra)
        return roots

    # gl(N) in one pass: through the su(N) walk below it costs ~20% more on
    # the exact benchmark pass's weight ops (2-CPU machine).
    if not algebra.traceless:
        return Fraction(N ** (n - sum(len(join(pairs)) for pairs in swaps)), 2**m)
    traces = [((p, p + 1), (q, (q + 1) % n)) for p, q in chords]
    options = [((swap, N), (trace, -1)) for swap, trace in zip(swaps, traces)]

    def walk(i, loops, scale):
        # scale is (-1)^|S| N^(i - |S|) for the subset S of chords before i
        if i == m:
            return scale * N**loops
        total = 0
        for pairs, factor in options[i]:
            roots = join(pairs)
            total += walk(i + 1, loops - len(roots), scale * factor)
            for r in roots:
                parent[r] = r
        return total

    return Fraction(walk(0, n, 1), (2 * N) ** m)


def weight(algebra, diagram):
    """Weight of a chord diagram, an exact Fraction: the sum over
    per-chord generator indices of the trace of the generator product
    around the circle, counted as index loops."""
    _expect(algebra, LieAlgebraData, "weight", "algebra")
    _expect(diagram, ChordDiagram, "weight", "diagram")
    return _weight_of_partner(algebra, diagram.partner)


def weight_system(algebra, m):
    """Table of weights for every canonical degree-m diagram."""
    _expect(algebra, LieAlgebraData, "weight_system", "algebra")
    diagrams, _ = enumerate_diagrams(m)
    return {d: _weight_of_partner(algebra, d.partner) for d in diagrams}
