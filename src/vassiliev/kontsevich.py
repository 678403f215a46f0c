"""Iterated chord integrals over Morse-embedded curves.

The degree-m coefficient of a knot's expansion is a sum over chord
placements: m horizontal chords at heights t_1 < ... < t_m, each chord
joining two strands that coexist in one slab: the iterated integral of
one propagator kappa * (dz - dz')/(z - z') per chord, kappa =
-1/(2*pi*i), negated when the chord has one endpoint on a downward
strand.  The kappa sign is calibrated once so the degree-1
cross-component sum equals the combinatorial linking number (signed,
not just in magnitude).  Placements are grouped by the chord diagram
they induce on the knot circle, which only their strand pairs decide.

That propagator is the paper's light-cone rule for the gauge field's
components A_+ and A_0 (Witten's functional integral in light-cone
gauge; Froehlich-King, Labastida-Perez).  Like-component correlators
vanish; the mixed one, <A_+^a(z, t) A_0^b(w, s)> = kappa delta^ab
delta(t - s) / (z - w), is a color delta times an equal-height delta
times a simple pole in z - w.  The equal-height delta puts both ends of
every chord at one height, a single integration variable, so chords are
horizontal; _degree_values applies the rule as each chord's weight.

The quadrature works per slab, not per placement.  Inside one slab a
run of chords is an ordered block over the slab's strand pairs, so each
strand is evaluated once per quadrature setting, the chord weights
(cell width times propagator) form one (pairs, steps) array, and every
k-block comes from cumulative sums and matrix products, the 3-block by
Chen's shuffle identity.  The whole height's integral is the ordered
product of the slab integrals, as in the operator method, so one
generator, _degree_values, folds the blocks bottom to top over words of
strand pairs and yields every degree's words and values for one of two
queries: coefficient tables take every pair and sum the words per
induced diagram with index arrays, and linking numbers take the
cross-component pairs.  A query past MAX_PLACEMENTS or MAX_GRID is
refused before any array is built, and strands that meet on the
quadrature nodes are refused there.

One slab on one setting is in memory at a time: the slab's strand
values on the setting's nodes, then, with those released, its weight
array and the heads, and in the 3-block one product block of at most
as many rows.  So the working set follows the largest slab's pairs
times steps, about three (pairs, steps) complex arrays, while
MAX_GRID bounds the sum over slabs, which the time follows.

Integrals are truncated a fraction eps of each slab's height away from
its critical heights, at the three fixed nested insets eps = 1e-3, 5e-4
and 2.5e-4 (INSETS); a geometric fit in the differences decides between
convergence (extrapolated), a logarithmic drift (flagged, the
isolated-chord framing anomaly), and noise.  Every reported value also
carries the change under halving the step count, so the error bars are
measurements, not guesses.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import numbers
from dataclasses import asdict, dataclass, replace
from typing import ClassVar

import numpy as np

from .chords import ChordDiagram
from .codes import _expect, _integer
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

    steps is an integer of at least MIN_STEPS, read by `codes._integer`:
    steps=100.0 raises ValueError("steps 100.0 is not an integer") and
    steps=31 ValueError("steps must be at least 32, not 31").  Below 30
    steps _degree_values refuses some shipped curves as strands that
    meet, and at the floor the half grid still has 16 steps.
    """

    steps: int = 2000
    levels: ClassVar[int] = len(INSETS)  # insets the tail fit reads; not a setting
    MIN_STEPS: ClassVar[int] = 32

    def __post_init__(self):
        # a fractional step count would overshoot each slab
        object.__setattr__(self, "steps", _integer(self.steps, "steps", self.MIN_STEPS, ValueError))


DEFAULT_QUADRATURE = QuadratureSpec()


# -- placement enumeration ---------------------------------------------------


@dataclass(frozen=True)
class ChordPlacement:
    """One combinatorial class: chords listed bottom to top, chord i in
    slab slabs[i] joining the strand pair pairs[i]; cross_component when
    every chord joins two components."""

    slabs: tuple
    pairs: tuple
    cross_component: bool


MAX_DEGREE = 3  # the highest degree a coefficient table is computed to

# Bounds on one query, far above the largest shipped case at 16,000
# steps: trefoil_3max, 9,670 degree-3 placements and a grid of 464,000.
MAX_PLACEMENTS = 200_000
MAX_GRID = 5_000_000  # strand pairs times steps, summed over slabs


def _check_budget(pools, m, steps=0):
    """Refuse degree-m placements on the pair pools, or their grid, past
    the bounds.  The count is h_m of the pool sizes (m slabs in order, a
    pair in each) over prefix sums.  It never falls from degree 1 on (add
    a chord in the last slab), so it stops at the first degree past the
    bound, and a degree past the bound is refused before counting."""
    if m > MAX_PLACEMENTS:
        raise ValueError(f"degree {m:,} exceeds the bound {MAX_PLACEMENTS:,}")
    sizes = list(map(len, pools))
    h = [1] * len(sizes)  # complete homogeneous symmetric polynomials of each prefix
    for k in range(1, m + 1):
        h = list(itertools.accumulate(size * c for size, c in zip(sizes, h)))
        if h[-1] > MAX_PLACEMENTS:
            also = f", and degree {m:,} has no fewer" if k < m else ""
            raise ValueError(f"{h[-1]:,} degree-{k} placements exceed the bound {MAX_PLACEMENTS:,}{also}")
    grid = sum(sizes) * steps
    if grid > MAX_GRID:
        raise ValueError(f"a quadrature grid of {grid:,} pair-steps exceeds the bound {MAX_GRID:,}")


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
    """All degree-m chord placement classes of a Morse embedding, by
    slab sequence and then by their pairs in itertools.product order.

    Chord heights are ordered, so slab indices run nondecreasing and
    the within-slab chord order is the listed order.  The quadrature
    lists no placement: it folds slab blocks over words of strand pairs
    (see _degree_values).
    """
    _expect(mk, MorseKnot, "enumerate_placements", "mk")
    m = _integer(m, "placement degree", 1, ValueError)
    pools = [slab.pairs for slab in mk.slabs]
    _check_budget(pools, m)
    # Placements share one tuple per strand pair: a tuple per chord raised
    # the peak RSS of a process holding trefoil_3max's 9,670 degree-3
    # placements by about 4 MB.
    shared = {}
    pools = [[shared.setdefault(p, p) for p in map(tuple, pool.tolist())] for pool in pools]
    comp = [s.component for s in mk.strands]
    return [
        ChordPlacement(slabs, pairs, all(comp[a] != comp[b] for a, b in pairs))
        for slabs in itertools.combinations_with_replacement(range(len(pools)), m)
        for pairs in itertools.product(*(pools[s] for s in slabs))
    ]


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
    H = np.cumsum(G, axis=1)
    H -= 0.5 * G
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
    """For each degree d = 1..m, the words of d strand pairs that the
    placements on the pair pools read, as strand ends (N, d, 2), and
    their raw integrals, a (settings, N) array.

    Each slab's k-blocks are stacked over the settings under a row of
    ones, each setting on its own midpoint grid with every strand of a
    slab with pairs evaluated once on it (for m = 0 no block is built),
    and each chord's row carries its whole weight: cell width, kappa,
    and a sign per downward strand.  By Chen's identity a fold bottom to
    top, X[d] += sum over k < d of X[k] (x) Y[d - k] with Y the slab's
    blocks, X[0] = 1 and d going down so each update reads the slabs
    below, sums each word of letters (strand pairs, numbered as the
    slabs list them) over its placements.  The ones fold to each word's
    placement count; the counted words, at most h_d, are yielded.  X[d]
    holds P**d <= d! * h_d words, as sorting a word's letters by the
    first slab of each gives a placement.

    Per slab and setting the strand values come first; each chord's
    weights are written into the setting's one (pairs, steps) array and
    the strand values released before _ordered_blocks, and the weights
    before the next setting's strand values.  Under tracemalloc a
    degree-2 table of trefoil_3max (at most 15 pairs in a slab) peaks at
    1.44 MiB at the default 2,000 steps and 11.4 MiB at 16,000, about
    3.1 times its largest slab's pairs * steps * 16 bytes.

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
    n = len(settings) + 1  # a row of placement counts, then one per setting
    orient = [1 if s.goes_up else -1 for s in mk.strands]
    letter, blocks = {}, []
    for slab, pairs in zip(mk.slabs, (pool.tolist() for pool in pools)):
        if not pairs:
            continue
        per_setting = [[np.ones((len(pairs),) * k) for k in range(1, m + 1)]]
        # One setting at a time: stacking the three insets raised the integrals
        # benchmark's peak RSS 7% and tail latency 12% (2-CPU machine).  Its
        # weights fill one array and its strand values go before the blocks,
        # so it holds about three (pairs, steps) arrays at once.
        for eps, steps in settings if m else ():
            lo, hi = slab.t_lo + eps * slab.height, slab.t_hi - eps * slab.height
            step = (hi - lo) / steps
            t = lo + (np.arange(steps) + 0.5) * step
            at = {s: mk.strands[s].at(t) for s in {s for pair in pairs for s in pair}}
            G = np.empty((len(pairs), steps), dtype=complex)
            for i, (a, b) in enumerate(pairs):
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
                G[i] = orient[a] * orient[b] * step * KAPPA * (at[a][1] - at[b][1]) / z
            del at
            per_setting.append(_ordered_blocks(G, m))
            del G
        word = [letter.setdefault((a, b), len(letter)) for a, b in pairs]
        blocks.append((word, [np.array(b).reshape(n, -1) for b in zip(*per_setting)]))
    P = len(letter)
    X = [None] + [np.zeros((n, P**d), dtype=complex) for d in range(1, m + 1)]
    for word, Y in blocks:
        cols = [np.array(word)]  # flat index of each slab word of k + 1 letters
        for _ in range(1, m):
            cols.append(np.add.outer(cols[-1] * P, word).ravel())
        for d in range(m, 0, -1):
            X[d][:, cols[d - 1]] += Y[d - 1]  # the term of X[0] = 1
            for k in range(1, d):
                col = np.add.outer(np.arange(P**k) * P ** (d - k), cols[d - k - 1]).ravel()
                X[d][:, col] += (X[k][:, :, None] * Y[d - k - 1][:, None, :]).reshape(n, -1)
    letters = np.array(list(letter), dtype=int).reshape(-1, 2)
    for d in range(1, m + 1):
        words = np.flatnonzero(X[d][0])
        yield letters[words[:, None] // P ** np.arange(d - 1, -1, -1) % P], X[d][1:, words]


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
    words in letter-word order, each a fold over the slabs (see
    _degree_values), so results are bit-reproducible.
    """
    series = [{_EMPTY: 1 + 0j}]
    for ends, values in _degree_values(mk, m, quadrature, [slab.pairs for slab in mk.slabs]):
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


def _table_degree(m):
    """m as an int from 0 to MAX_DEGREE, the degrees a table is computed to."""
    m = _integer(m, "degree", error=ValueError)
    if m < 0 or m > MAX_DEGREE:
        raise ValueError(f"degree must be between 0 and {MAX_DEGREE}")
    return m


def degree_coefficients(mk, m, quadrature=DEFAULT_QUADRATURE):
    """CoefficientTable of the raw degree-m integrals of a knot.

    Degrees 0 to MAX_DEGREE = 3 are computed and anything higher is
    refused; the tests check degree 3 against the signed resolution sums
    of the chord diagram.  All degrees read one set of per-slab blocks;
    per slab and setting, the 2-block is one matrix product and the
    3-block one per strand pair (see _ordered_blocks).  Multi-component
    embeddings have no single knot circle; use linking_number for those.
    """
    _expect(mk, MorseKnot, "degree_coefficients", "mk")
    _expect(quadrature, QuadratureSpec, "degree_coefficients", "quadrature")
    m = _table_degree(m)
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
    to a degree-m series, since the k-blocks and the fold's updates of
    degree <= m are the same arithmetic at any top degree.
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
    _expect(raw, CoefficientTable, "hump_normalize", "raw")
    _expect(mk, MorseKnot, "hump_normalize", "mk")
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
    _expect(mk, MorseKnot, "linking_number", "mk")
    _expect(quadrature, QuadratureSpec, "linking_number", "quadrature")
    if mk.n_components < 2:
        raise ValueError("linking number needs at least 2 components")
    comp = np.array([s.component for s in mk.strands])
    pools = [pool[comp[pool[:, 0]] != comp[pool[:, 1]]] for pool in (slab.pairs for slab in mk.slabs)]
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
    max_degree is refused first, as degree_coefficients refuses it, so
    a degree past MAX_DEGREE costs nothing.  Then, before any
    quadrature, k is refused unless every k**m, m up to max_degree, is
    a finite nonzero complex.
    """
    from .lie import LieAlgebraData, weight

    max_degree = _table_degree(max_degree)
    _expect(algebra, LieAlgebraData, "expectation_series", "algebra")
    _expect(k, numbers.Number, "expectation_series", "k")
    if k == 0:
        raise ValueError("k must be nonzero")
    try:
        kc = complex(k)
    except OverflowError:
        raise ValueError("k must be finite; this k overflows a float") from None
    if not cmath.isfinite(kc):
        raise ValueError(f"k must be finite, not {k}")
    # the degree-m term is divided by k**m
    for m in range(1, max_degree + 1):
        try:
            power = kc**m
        except OverflowError:
            power = cmath.inf
        if power == 0 or not cmath.isfinite(power):
            raise ValueError(
                f"k**{m} leaves the floats: k's powers to degree {max_degree} must be finite and nonzero"
            )
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
