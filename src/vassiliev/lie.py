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
Mostovoy, ch. 6).  With positions 0..2m-1 on the circle, the loops
are the cycles of one map on them:

- gl(N): every chord (p, q) takes the swap, y -> partner[y] + 1
  (mod 2m), and w(D) = N^c / 2^m for c cycles;
- su(N): each subset S of the chords takes the trace part instead,
  p -> p + 1 and q -> q + 1 for a chord in S, and
  w(D) = sum_S (-1)^|S| N^(c_S + m - |S|) / (2N)^m.  The subsets are
  visited in Gray-code order, so each moves one chord into or out of S
  and changes the cycle count by one.
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

    The cycles of step, y -> partner[y] + 1 (mod 2m), are counted once:
    the whole gl(N) weight and the su(N) term with S empty.  Each later
    subset in Gray-code order moves one chord (p, q) into or out of S,
    exchanging step[p] and step[q], which splits their cycle in two when
    p and q share it and joins their two cycles otherwise.
    """
    n = len(partner)
    N = algebra.N
    if n == 0:
        return Fraction(N)  # the bare circle is one loop
    m = n // 2
    step = [(q + 1) % n for q in partner]
    loops, seen = 0, [False] * n
    for y in range(n):
        loops += not seen[y]
        while not seen[y]:
            seen[y], y = True, step[y]
    chords = [(p, q) for p, q in enumerate(partner) if p < q] if algebra.traceless else []
    total = N ** (loops + m)
    for i in range(1, 2 ** len(chords)):
        p, q = chords[(i & -i).bit_length() - 1]
        y = step[p]
        while y != p and y != q:
            y = step[y]
        loops += 1 if y == q else -1
        step[p], step[q] = step[q], step[p]
        size = (i ^ i >> 1).bit_count()  # S is the Gray code of i
        total += (-1) ** size * N ** (loops + m - size)
    return Fraction(total, (2 * N) ** m)


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
