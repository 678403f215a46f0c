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

`weight` returns a Fraction and never touches the generator matrices.
They (the hermitian u(N) basis: generalized Gell-Mann matrices plus,
for gl(N), the scaled identity, which keeps the structure constants
real and totally antisymmetric) are built with numpy on first use, for
`LieAlgebraData.check` and `commutator_4T_witness` only.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property


class LieAlgebraData:
    """Fundamental representation of gl(N), or of su(N) when traceless.

    Parameters
    ----------
    name : str
    N : int, the matrix size
    traceless : bool, drop the identity generator (su(N), N >= 2)
    """

    def __init__(self, name, N, traceless):
        if N < 1 or (traceless and N < 2):
            raise ValueError(f"{name}: no fundamental representation of size {N}")
        self.name = name
        self.N = N
        self.traceless = traceless

    @property
    def matrix_size(self):
        return self.N

    @property
    def dim(self):
        return self.N * self.N - self.traceless

    @cached_property
    def generators(self):
        """Hermitian basis, (dim, N, N): off-diagonal symmetric and
        antisymmetric pairs, traceless diagonals, then (gl only) the
        scaled identity."""
        import numpy as np

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
        import numpy as np

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
        import numpy as np

        T = self.generators
        herm = np.max(np.abs(T - np.conj(np.transpose(T, (0, 2, 1)))))
        if herm > tol:
            raise ValueError(f"{self.name}: generators not hermitian (residual {herm:.3e})")
        gram = np.einsum("aij,bji->ab", T, T)
        target = 0.5 * np.eye(self.dim)
        norm_res = np.max(np.abs(gram - target))
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


def commutator_4T_witness(algebra, tol=1e-12):
    """Largest residual of [T_a, T_b] = i f_abc T_c over all pairs.

    This identity is what makes the weight system satisfy the four-term
    relations, so it is exposed as its own witness.  Returns
    (ok, max_residual).
    """
    import numpy as np

    T = algebra.generators
    f = algebra.structure_constants
    comm = np.einsum("aij,bjk->abik", T, T) - np.einsum("bij,ajk->abik", T, T)
    target = 1j * np.einsum("abc,cij->abij", f, T)
    residual = float(np.max(np.abs(comm - target)))
    return residual <= tol, residual


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
    return _weight_of_partner(algebra, diagram.partner)


def weight_system(algebra, m):
    """Table of weights for every canonical degree-m diagram."""
    from .chords import enumerate_diagrams

    diagrams, _ = enumerate_diagrams(m)
    return {d: weight(algebra, d) for d in diagrams}
