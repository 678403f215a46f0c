"""Iterated chord integrals over Morse-embedded curves.

The degree-m coefficient of a knot's expansion is a sum over chord
placements: m horizontal chords at heights t_1 < ... < t_m, each chord
joining two strands that coexist in one slab: the iterated integral of
one propagator kappa * (dz - dz')/(z - z') per chord, kappa =
-1/(2*pi*i), negated when the chord has one endpoint on a downward
strand.  The kappa sign is calibrated once so the degree-1
cross-component sum equals the combinatorial linking number (signed,
not just in magnitude).  Placements are grouped by the chord diagram
they induce on the knot circle.

The quadrature works per slab, not per placement.  Inside one slab a
run of chords is an ordered block over the slab's strand pairs, so each
strand is evaluated once per quadrature setting, the chord weights
(cell width times propagator) form one (pairs, steps) array, and every
k-block comes from cumulative sums and matrix products, the 3-block by
Chen's shuffle identity.  A placement's value is the bare outer product
of its slab runs' blocks.  One generator, _degree_values, builds the
blocks once and yields every degree's strand ends and values for one
of two queries: coefficient tables take every pair and sum the
placements per induced diagram with index arrays (in enumeration
order), and linking numbers take the cross-component pairs.  A query
past MAX_PLACEMENTS or MAX_GRID is refused before any array is built,
and strands that meet on the quadrature nodes are refused there.

Integrals are truncated a fraction eps of each slab's height away from
its critical heights, at the three fixed nested insets eps = 1e-3, 5e-4
and 2.5e-4 (INSETS); a geometric fit in the differences decides between
convergence (extrapolated), a logarithmic drift (flagged, the
isolated-chord framing anomaly), and noise.  Every reported value also
carries the change under halving the step count, so the error bars are
measurements, not guesses.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from .chords import ChordDiagram
from .morse import EmbeddingError, MorseKnot

TWO_PI_I = 2j * np.pi

# Per-chord constant.  The magnitude 1/(2*pi) makes winding integrals
# integer-valued; the sign is pinned by the linking-number calibration.
KAPPA = -1.0 / TWO_PI_I


# Relative endpoint insets of every slab, the three the tail fit reads.
INSETS = (1e-3, 5e-4, 2.5e-4)


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-midpoint settings: steps per slab, each slab integrated
    at every inset of INSETS, and again at steps // 2 for the error bar.

    steps is an integer of at least MIN_STEPS.  Below 30 steps
    _degree_values refuses some shipped curves as strands that meet, and
    at the floor the half grid still has 16 steps.
    """

    steps: int = 2000
    levels: ClassVar[int] = len(INSETS)  # insets the tail fit reads; not a setting
    MIN_STEPS: ClassVar[int] = 32

    def __post_init__(self):
        try:  # a fractional step count would overshoot each slab
            object.__setattr__(self, "steps", operator.index(self.steps))
        except TypeError:
            raise ValueError(f"steps must be an integer, not {self.steps!r}") from None
        if self.steps < self.MIN_STEPS:
            raise ValueError(f"steps must be at least {self.MIN_STEPS}")


DEFAULT_QUADRATURE = QuadratureSpec()


# -- propagator bookkeeping --------------------------------------------------

_FIELDS = {"+", "0"}


@dataclass(frozen=True)
class PropagatorRule:
    components: tuple
    is_zero: bool
    delta_color: bool
    delta_time: bool
    pole: str | None

    def __str__(self):
        a, b = self.components
        if self.is_zero:
            return f"<A{a} A{b}> = 0"
        return f"<A{a} A{b}> = kappa delta^ab delta(t-s) {self.pole}"


def wick_propagator(pair):
    """Structural pair-correlation rule for field components in {+, 0}.

    Like-component correlators vanish; the mixed correlator is a color
    delta times an equal-height delta times a simple pole in z - w.
    The equal-height delta is what confines both endpoints of every
    chord to a single integration variable.
    """
    try:
        a, b = map(str, pair)
    except (TypeError, ValueError):
        a = b = None
    if not {a, b} <= _FIELDS:
        raise ValueError(f"field components must be a pair from {{+, 0}}, got {pair!r}")
    if a == b:
        return PropagatorRule((a, b), True, False, False, None)
    return PropagatorRule((a, b), False, True, True, "1/(z-w)")


# -- placement enumeration ---------------------------------------------------


@dataclass(frozen=True)
class ChordPlacement:
    """One combinatorial class: chords listed bottom to top, chord i in
    slab slabs[i] joining the strand pair pairs[i]; cross_component when
    every chord joins two components."""

    slabs: tuple
    pairs: tuple
    cross_component: bool


def _pair_pools(mk):
    """Per slab, its strand pairs (a, b) with a < b in sorted order, as an (n, 2) array."""
    pools = (itertools.combinations(slab.strand_ids, 2) for slab in mk.slabs)
    return [np.array(list(pool), dtype=int).reshape(-1, 2) for pool in pools]


MAX_DEGREE = 3  # the highest degree a coefficient table is computed to

# Bounds on one query, far above the largest shipped case at 16,000
# steps: trefoil_3max, 9,670 degree-3 placements and a grid of 464,000.
MAX_PLACEMENTS = 200_000
MAX_GRID = 5_000_000  # strand pairs times steps, summed over slabs


def _check_budget(pools, m, steps=0):
    """Refuse degree-m placements on the pair pools, or their grid, past
    the bounds.  The count is h_m of the pool sizes: m slabs in order, a pair in each."""
    h = [1] + [0] * m  # complete homogeneous symmetric polynomials
    for size in map(len, pools):
        for k in range(1, m + 1):
            h[k] += size * h[k - 1]
    grid = sum(map(len, pools)) * steps
    if h[m] > MAX_PLACEMENTS:
        raise ValueError(f"{h[m]:,} degree-{m} placements exceed the bound {MAX_PLACEMENTS:,}")
    if grid > MAX_GRID:
        raise ValueError(f"a quadrature grid of {grid:,} pair-steps exceeds the bound {MAX_GRID:,}")


def _check_arguments(what, mk, quadrature):
    """TypeError naming mk or quadrature unless they are a MorseKnot and a QuadratureSpec."""
    if not isinstance(mk, MorseKnot):
        raise TypeError(f"{what} expects a MorseKnot, not {type(mk).__name__}")
    if not isinstance(quadrature, QuadratureSpec):
        raise TypeError(f"{what} expects a QuadratureSpec as quadrature, not {quadrature!r}")


def _degree(m, what="degree"):
    """m as an int; ValueError naming it when it is not an integer."""
    try:
        return operator.index(m)
    except TypeError:
        raise ValueError(f"{what} must be an integer, not {m!r}") from None


def _placements(pools, m):
    """Degree-m placements on the pair pools in enumeration order: the
    slab sequences with a pair in every slab, and per placement its
    strand ends (N, m, 2), each sequence's pairs in itertools.product
    order.
    """
    seqs = [
        slab_seq
        for slab_seq in itertools.combinations_with_replacement(range(len(pools)), m)
        if all(len(pools[s]) for s in slab_seq)
    ]
    ends = [np.empty((0, m, 2), dtype=int)]
    for slab_seq in seqs:
        grid = np.indices([len(pools[s]) for s in slab_seq]).reshape(m, -1)
        ends.append(np.stack([pools[s][g] for s, g in zip(slab_seq, grid)], axis=1))
    return seqs, np.concatenate(ends)


def _induced_diagrams(mk, ends):
    """Chord diagrams that placements induce on the knot circle: the
    distinct ones in order of first appearance, and per placement its
    index into them.

    Endpoints are ordered around the loop: strands by index, which is
    traversal order, levels ascending on upward strands and descending
    on downward ones.  Only the matching of circle positions matters:
    each placement's matching is one int64 in base 2m (exact up to
    degree 7), and one diagram is built per distinct matching (at most
    15 at degree 3).  Only defined for single-component embeddings.
    """
    n, m, _ = ends.shape
    if m > 7:
        raise ValueError("induced diagrams are encoded in int64 only up to degree 7")
    up = np.array([s.goes_up for s in mk.strands])
    level = np.arange(m)[:, None]
    key = ends * m + np.where(up[ends], level, m - 1 - level)
    # endpoint 2 * level + side sits at circle position pos; its partner is endpoint ^ 1
    pos = key.reshape(n, 2 * m).argsort(axis=1).argsort(axis=1)
    partner = np.empty_like(pos)
    np.put_along_axis(partner, pos, pos[:, np.arange(2 * m) ^ 1], axis=1)
    code = partner @ (2 * m) ** np.arange(2 * m)
    _, first, group = np.unique(code, return_index=True, return_inverse=True)
    diagrams, of_group = {}, np.empty(len(first), dtype=int)
    for g in np.argsort(first):
        d = ChordDiagram((i, j) for i, j in enumerate(partner[first[g]].tolist()) if i < j)
        of_group[g] = diagrams.setdefault(d, len(diagrams))
    return list(diagrams), of_group[group]


def enumerate_placements(mk, m):
    """All degree-m chord placement classes of a Morse embedding.

    Chord heights are ordered, so slab indices run nondecreasing and
    the within-slab chord order is the listed order.  Only the tables
    read a placement's induced diagram, from the strand ends of
    _placements (see _induced_diagrams).
    """
    m = _degree(m, "placement degree")
    if m < 1:
        raise ValueError("placement degree must be at least 1")
    pools = _pair_pools(mk)
    _check_budget(pools, m)
    seqs, ends = _placements(pools, m)
    slabs = (seq for seq in seqs for _ in range(math.prod(len(pools[s]) for s in seq)))
    # Placements share one tuple per strand pair, pair[a * n + b]: a tuple
    # per chord raised the peak RSS of a process holding trefoil_3max's
    # 9,670 degree-3 placements by about 4 MB.
    n = len(mk.strands)
    pair = [(a, b) for a in range(n) for b in range(n)]
    flat = map(pair.__getitem__, (ends[..., 0] * n + ends[..., 1]).ravel().tolist())
    comp = np.array([s.component for s in mk.strands])[ends]
    cross = (comp[..., 0] != comp[..., 1]).all(axis=1).tolist()
    # zip(*[flat] * m) deals the pairs out m at a time, one placement each
    return [ChordPlacement(*c) for c in zip(slabs, zip(*[flat] * m), cross)]


# -- quadrature --------------------------------------------------------------


def _ordered_blocks(G, degree):
    """Ordered chord integrals inside one slab on one quadrature setting.

    G holds the slab's chord weights, one row per strand pair: on each
    cell of the setting's midpoint grid, the cell width times the
    chord's integrand (and its constant) at the node.  Entry k - 1 of
    the result is the k-block, an array over k pair indices: the
    integral over t_1 < ... < t_k of G[p_1](t_1) ... G[p_k](t_k), for
    k up to MAX_DEGREE.  On the midpoint grid a node's own cell counts
    half, so the heads H = cumsum(G) - G / 2 integrate each row from the
    bottom to every node, the 2-block is H @ G.T and the 1-block a row
    sum.  A row's tail above a node is its 1-block minus its head there
    (Chen's shuffle identity), so the 3-block is B1[p] * B2[i, j] minus
    sum H_i G_j H_p, which is symmetric in i and p: one matrix product
    per p fills it for i <= p, and its transpose for i >= p.
    """
    if degree > MAX_DEGREE:
        raise ValueError(f"ordered blocks stop at MAX_DEGREE = {MAX_DEGREE}, not {degree}")
    blocks = [G.sum(axis=1)]
    if degree < 2:
        return blocks
    H = np.cumsum(G, axis=1) - 0.5 * G
    blocks.append(H @ G.T)
    if degree == 3:
        block = np.multiply.outer(blocks[1], blocks[0])
        for p in range(len(G)):
            # at least two rows: numpy hands a 1-row product to OpenBLAS's
            # threaded matrix-vector call, whose worker then spins idle
            below = ((H[: max(p, 1) + 1] * H[p]) @ G.T)[: p + 1]
            block[: p + 1, :, p] -= below
            block[p, :, :p] -= below[:p].T
        blocks.append(block)
    return blocks


def _settings(quadrature):
    """The (eps, steps) quadrature settings in the order of every
    per-setting array, which _classify reads: each inset of INSETS at
    full steps, then each at half steps."""
    return [(eps, steps) for steps in (quadrature.steps, quadrature.steps // 2) for eps in INSETS]


def _degree_values(mk, m, quadrature, pools):
    """For each degree d = 1..m, the strand ends (N, d, 2) of its
    placements on the pair pools (see _placements) and their raw
    integrals, a (settings, N) array.

    Every degree reads one set of per-slab blocks: blocks[slab][k - 1]
    stacks that slab's k-block over the settings.  Each setting is
    computed on its own midpoint grid, every strand of a slab with pairs
    evaluated once on it; for m = 0 no block is built.  Each chord's row
    carries its whole weight: cell width, kappa, and a sign per downward
    strand.  So a placement's value is the bare outer product of the
    blocks of its runs of equal slabs.

    On the full-step grid with the smallest inset, the widest span any
    setting integrates, two strands whose separation turns by a right
    angle or more between adjacent nodes meet, or pass closer than the
    grid resolves: EmbeddingError names the first such pair.  A
    transversal meeting turns the separation by pi; on the shipped
    fixtures the largest turn is 0.03 rad at the default spec, and none
    is refused from QuadratureSpec.MIN_STEPS on.
    """
    _check_budget(pools, m, quadrature.steps)
    settings = _settings(quadrature)
    widest = settings[quadrature.levels - 1]
    n = len(settings)
    orient = [1 if s.goes_up else -1 for s in mk.strands]
    blocks = []
    for slab, pairs in zip(mk.slabs, pools):
        pairs = pairs.tolist()
        per_setting = []
        for eps, steps in settings if pairs and m else ():
            lo, hi = slab.t_lo + eps * slab.height, slab.t_hi - eps * slab.height
            step = (hi - lo) / steps
            t = lo + (np.arange(steps) + 0.5) * step
            at = {s: mk.strands[s].at(t) for s in {s for pair in pairs for s in pair}}
            G = []
            for a, b in pairs:
                z = at[a][0] - at[b][0]
                if (eps, steps) == widest:
                    turned = (z[1:] * z[:-1].conj()).real <= 0
                    if turned.any():
                        j = turned.argmax()
                        raise EmbeddingError(
                            f"strands {a} and {b} meet or nearly meet between heights {t[j]:.6g} "
                            f"and {t[j + 1]:.6g}: their separation turns by a right angle or more "
                            f"between adjacent nodes at {steps} steps; "
                            f"if the curve is embedded, raise --steps"
                        )
                G.append(orient[a] * orient[b] * step * KAPPA * (at[a][1] - at[b][1]) / z)
            per_setting.append(_ordered_blocks(np.array(G), m))
        blocks.append([np.stack(b) for b in zip(*per_setting)])
    for d in range(1, m + 1):
        seqs, ends = _placements(pools, d)
        values = [np.empty((n, 0), dtype=complex)]
        for slab_seq in seqs:
            val = np.ones((n, 1), dtype=complex)
            for slab, run in itertools.groupby(slab_seq):
                block = blocks[slab][len(list(run)) - 1].reshape(n, 1, -1)
                val = (val[:, :, None] * block).reshape(n, -1)
            values.append(val)
        # rebound, not yielded in place, so the pieces are freed while the caller reads it
        values = np.concatenate(values, axis=1)
        yield ends, values


def _sums(values, index, n):
    """(n, settings) sums of the columns of values per index 0..n-1,
    each added in column order."""
    k = len(values)
    bins = (index * k + np.arange(k)[:, None]).ravel()
    out = np.empty(n * k, dtype=complex)
    out.real = np.bincount(bins, values.real.ravel(), n * k)
    out.imag = np.bincount(bins, values.imag.ravel(), n * k)
    return out.reshape(n, k)


# -- eps extrapolation -------------------------------------------------------


@dataclass(frozen=True)
class IntegralResult:
    value: complex
    error: float
    converged: bool
    log_divergent: bool
    per_epsilon: tuple
    per_epsilon_half: tuple


def _fit_epsilon_tail(vals, floor):
    """Classify the three-inset eps sequence by the ratio of its
    successive differences.

    A geometric ratio below 0.85 is a power law (extrapolated: the
    exact limit for a pure power); a ratio near 1 is the logarithmic
    drift of a chord pinching at a critical point (flagged, value
    reported as-is); anything larger is treated as non-convergent.
    """
    v0, v1, v2 = vals
    d1, d2 = v1 - v0, v2 - v1
    if abs(d2) <= floor and abs(d1) <= floor:
        return v2, abs(d2) + floor, True, False
    if abs(d1) <= floor:
        return v2, abs(d2) + floor, False, False
    rho = d2 / d1
    if abs(rho) <= 0.85:
        corr = d2 * rho / (1 - rho)
        return v2 + corr, abs(corr) + 0.1 * abs(d2) + floor, True, False
    log_like = abs(rho) <= 1.2
    return v2, 2.0 * abs(d2) + floor, False, log_like


def _classify(series):
    """IntegralResult of one array over the quadrature settings."""
    vals = series.tolist()
    n = len(vals) // 2
    seq_full, seq_half = vals[:n], vals[n:]
    floor = 1e-9 * (1.0 + abs(seq_full[-1]))
    v_full, err_full, conv_full, log_full = _fit_epsilon_tail(seq_full, floor)
    v_half, _, _, log_half = _fit_epsilon_tail(seq_half, floor)
    error = err_full + abs(v_full - v_half)
    return IntegralResult(
        value=v_full,
        error=error,
        converged=conv_full,
        log_divergent=log_full or log_half,
        per_epsilon=tuple(seq_full),
        per_epsilon_half=tuple(seq_half),
    )


# -- per-diagram aggregation -------------------------------------------------


_EMPTY = ChordDiagram(())


def _raw_series(mk, m, quadrature):
    """Raw series of a single-component knot up to degree m.

    Entry d maps each degree-d chord diagram to its placement sum, an
    array over the quadrature settings in _settings order; degree 0 maps
    the empty diagram to the scalar 1.  Each diagram's sum adds its
    placements in enumeration order, so results are bit-reproducible.
    """
    series = [{_EMPTY: 1 + 0j}]
    for ends, values in _degree_values(mk, m, quadrature, _pair_pools(mk)):
        diagrams, index = _induced_diagrams(mk, ends)
        series.append(dict(zip(diagrams, _sums(values, index, len(diagrams)))))
    return series


class CoefficientTable:
    """Degree-m coefficients grouped by canonical chord diagram.

    Built from a series (see _raw_series) whose lower degrees the table
    keeps, so hump division needs no further quadrature.
    """

    def __init__(self, series, quadrature, n_maxima):
        self.degree = len(series) - 1
        self.quadrature = quadrature
        self.n_maxima = n_maxima
        self._series = series
        self._entries = dict(self._classified(self.degree))

    def _classified(self, m):
        """(diagram, IntegralResult) pairs of degree m, sorted by diagram."""
        if m == 0:
            # The empty diagram is exactly 1: there is no quadrature error.
            ones = (1 + 0j,) * self.quadrature.levels
            return [(_EMPTY, IntegralResult(1 + 0j, 0.0, True, False, ones, ones))]
        sums = self._series[m]
        return [(d, _classify(sums[d])) for d in sorted(sums)]

    def diagrams(self):
        return list(self._entries)

    def coefficient(self, diagram):
        return self._entries.get(diagram)

    def value(self, diagram):
        c = self._entries.get(diagram)
        return c.value if c is not None else 0j

    def error(self, diagram):
        c = self._entries.get(diagram)
        return c.error if c is not None else 0.0

    def items(self):
        return list(self._entries.items())

    def __len__(self):
        return len(self._entries)

    def __repr__(self):
        return (
            f"<CoefficientTable degree={self.degree} diagrams={len(self._entries)} "
            f"steps={self.quadrature.steps}>"
        )

    def to_json_dict(self):
        return {
            "degree": self.degree,
            "quadrature": asdict(self.quadrature),
            "n_maxima": self.n_maxima,
            "coefficients": [
                {
                    "diagram": str(d),
                    "value_re": float(c.value.real),
                    "value_im": float(c.value.imag),
                    "error": float(c.error),
                    "converged": c.converged,
                    "log_divergent": c.log_divergent,
                }
                for d, c in self.items()
            ],
        }


def degree_coefficients(mk, m, quadrature=DEFAULT_QUADRATURE):
    """CoefficientTable of the raw degree-m integrals of a knot.

    Degrees 0 to MAX_DEGREE = 3 are computed and anything higher is
    refused; the tests check degree 3 against the signed resolution sums
    of the chord diagram.  All degrees read one set of per-slab blocks;
    per slab and setting, the 2-block is one matrix product and the
    3-block one per strand pair (see _ordered_blocks).  Multi-component
    embeddings have no single knot circle; use linking_number for those.
    """
    _check_arguments("degree_coefficients", mk, quadrature)
    m = _degree(m)
    if m < 0 or m > MAX_DEGREE:
        raise ValueError(f"degree must be between 0 and {MAX_DEGREE}")
    if m > 0 and mk.n_components != 1:
        raise ValueError(
            "coefficient tables need a single component; see linking_number"
        )
    return CoefficientTable(_raw_series(mk, m, quadrature), quadrature, mk.n_maxima)


# -- hump normalization ------------------------------------------------------

# Truncated series with diagram-map coefficients: degree d holds
# {diagram: array over the quadrature settings}.  Multiplication
# concatenates diagrams.  Every operation builds new arrays: a series
# may share its arrays with the table it came from.


def _series_div(a, divisor, max_degree):
    """c with divisor * c = a, both sides unit at degree 0."""
    c = [{_EMPTY: 1 + 0j}]
    for m in range(1, max_degree + 1):
        acc = dict(a[m])
        for k in range(1, m + 1):
            for d1, c1 in divisor[k].items():
                for d2, c2 in c[m - k].items():
                    d = d1.concat(d2)
                    acc[d] = acc.get(d, 0j) - c1 * c2
        c.append(acc)
    return c


@functools.lru_cache(maxsize=16)
def _hump_reference_series(quadrature):
    """Raw series of the shipped 2-maxima unknot to MAX_DEGREE, the most
    degree_coefficients allows; cache_info() gives the cache's hits and
    size.

    One series serves every degree: its entries 0..m are bit-identical
    to a degree-m series, since the k-blocks for k <= m and the
    placements of degree <= m are the same arithmetic at any top degree.
    """
    from .fixtures import load_fixture
    from .morse import morse_embed

    return _raw_series(morse_embed(load_fixture("hump")), MAX_DEGREE, quadrature)


def hump_normalize(raw, mk):
    """Divide out the critical-point contribution from a raw table.

    The corrected series is raw / hump^(maxima - 1) as truncated series
    in diagram degree, divided elementwise over the quadrature settings
    so the corrected sequences extrapolate exactly like raw ones.  The
    raw table carries its lower degrees and the 2-maxima unknot series
    is cached once per quadrature spec, to MAX_DEGREE, so the knot needs
    no new quadrature.  A 1-maximum embedding is returned unchanged.
    """
    if not isinstance(raw, CoefficientTable):
        raise TypeError("hump_normalize expects a CoefficientTable")
    if raw.n_maxima != mk.n_maxima:
        raise ValueError("table was computed for a different embedding")
    power = mk.n_maxima - 1
    if raw.degree == 0 or power == 0:
        return raw
    m = raw.degree
    hump = _hump_reference_series(raw.quadrature)
    corrected = raw._series
    for _ in range(power):
        corrected = _series_div(corrected, hump, m)
    return CoefficientTable(corrected, raw.quadrature, mk.n_maxima)


# -- linking number ----------------------------------------------------------


def linking_number(mk, quadrature=DEFAULT_QUADRATURE):
    """Total linking number of a multi-component embedding.

    Sum of all degree-1 cross-component placement integrals; matches
    half the signed inter-component crossing count of a diagram of the
    same link.  The log|dz| terms telescope, so the limit is real and the
    error covers the imaginary part of the value as well.
    """
    _check_arguments("linking_number", mk, quadrature)
    if mk.n_components < 2:
        raise ValueError("linking number needs at least 2 components")
    comp = np.array([s.component for s in mk.strands])
    pools = [pool[comp[pool[:, 0]] != comp[pool[:, 1]]] for pool in _pair_pools(mk)]
    ((_, values),) = _degree_values(mk, 1, quadrature, pools)
    res = _classify(_sums(values, np.zeros(values.shape[1], dtype=int), 1)[0])
    return replace(res, error=res.error + abs(res.value.imag))


# -- pairing with weight systems --------------------------------------------


@dataclass(frozen=True)
class ExpectationSeries:
    partial_sums: tuple
    terms: tuple
    term_errors: tuple
    log_divergent: bool


def expectation_series(mk, algebra, max_degree, k, quadrature=DEFAULT_QUADRATURE):
    """Partial sums of sum_m k^-m sum_D weight(D) * coefficient_m[D].

    The degree-0 term is the weight of the empty diagram (the trace of
    the identity in the chosen representation).  Coefficients are hump
    normalized, every degree read from one degree-max_degree table;
    divergence flags on any contributing coefficient are propagated.
    """
    from .lie import weight

    if k == 0:
        raise ValueError("k must be nonzero")
    table = hump_normalize(degree_coefficients(mk, max_degree, quadrature), mk)
    terms = [complex(weight(algebra, _EMPTY))]
    errors = [0.0]
    flagged = False
    for m in range(1, max_degree + 1):
        term = 0j
        err = 0.0
        for diagram, coeff in table._classified(m):
            w = complex(weight(algebra, diagram))
            term += w * coeff.value
            err += abs(w) * coeff.error
            flagged = flagged or coeff.log_divergent
        terms.append(term / k**m)
        errors.append(err / abs(k) ** m)
    partial = list(itertools.accumulate(terms))
    return ExpectationSeries(
        partial_sums=tuple(partial),
        terms=tuple(terms),
        term_errors=tuple(errors),
        log_divergent=flagged,
    )
