"""Iterated chord integrals over Morse-embedded curves.

The degree-m coefficient of a knot's expansion is a sum over chord
placements: m horizontal chords at heights t_1 < ... < t_m, each chord
joining two strands that coexist in one slab, weighted by
(-1)^(number of endpoints on downward strands) and the iterated
integral of prod (dz - dz')/(z - z'), with one factor
kappa = -1/(2*pi*i) per chord; the kappa sign is calibrated once so
the degree-1 cross-component sum equals the combinatorial linking
number (signed, not just in magnitude).  Placements are grouped by the
chord diagram they induce on the knot circle.

Integrals are truncated eps away from critical heights and evaluated
at three nested eps levels; a geometric fit in the differences decides
between convergence (extrapolated), a logarithmic drift (flagged, the
isolated-chord framing anomaly), and noise.  Every reported value also
carries the change under halving the step count, so the error bars are
measurements, not guesses.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import asdict, dataclass

import numpy as np

from .chords import ChordDiagram
from .morse import MorseKnot

TWO_PI_I = 2j * np.pi

# Per-chord constant.  The magnitude 1/(2*pi) makes winding integrals
# integer-valued; the sign is pinned by the linking-number calibration.
KAPPA = -1.0 / TWO_PI_I


@dataclass(frozen=True)
class QuadratureSpec:
    """Composite-midpoint settings: steps per slab, relative endpoint
    inset, and the number of nested inset levels used to extrapolate."""

    steps: int = 2000
    eps_rel: float = 1e-3
    levels: int = 3

    def __post_init__(self):
        if self.steps < 16:
            raise ValueError("steps must be at least 16")
        if not 0 < self.eps_rel <= 0.05:
            raise ValueError("eps_rel must lie in (0, 0.05]")
        if not 3 <= self.levels <= 6:
            raise ValueError("levels must lie in [3, 6]")

    def epsilons(self):
        return tuple(self.eps_rel / 2**k for k in range(self.levels))

    def halved(self):
        return QuadratureSpec(self.steps // 2, self.eps_rel, self.levels)


DEFAULT_QUADRATURE = QuadratureSpec()


# -- propagator bookkeeping --------------------------------------------------

_FIELD_ALIASES = {"+": "+", "plus": "+", "0": "0", "zero": "0"}


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
        a, b = pair
        a = _FIELD_ALIASES[str(a)]
        b = _FIELD_ALIASES[str(b)]
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"field components must be a pair from {{+, 0}}, got {pair!r}")
    if a == b:
        return PropagatorRule((a, b), True, False, False, None)
    return PropagatorRule((a, b), False, True, True, "1/(z-w)")


# -- placement enumeration ---------------------------------------------------


@dataclass(frozen=True)
class ChordPlacement:
    """One combinatorial class: chords listed bottom to top, chord i in
    slab slabs[i] joining the strand pair pairs[i]."""

    slabs: tuple
    pairs: tuple
    down_endpoints: int
    diagram: ChordDiagram | None
    cross_component: bool

    @property
    def degree(self):
        return len(self.slabs)


def _induced_diagram(mk, pairs_seq):
    """Chord diagram on the knot circle from levelled strand pairs.

    Endpoints are ordered around the loop: strands in traversal order,
    levels ascending on upward strands and descending on downward ones.
    Only defined for single-component embeddings.
    """
    if len(mk.component_cycles) != 1:
        return None
    on_strand = {}
    for level, (a, b) in enumerate(pairs_seq):
        on_strand.setdefault(a, []).append(level)
        on_strand.setdefault(b, []).append(level)
    circle = []
    for s in mk.component_cycles[0]:
        levels = sorted(on_strand.get(s, ()))
        if not mk.strands[s].goes_up:
            levels.reverse()
        circle.extend(levels)
    pos = {}
    for p, level in enumerate(circle):
        pos.setdefault(level, []).append(p)
    return ChordDiagram([tuple(pos[level]) for level in range(len(pairs_seq))])


def enumerate_placements(mk, m):
    """All degree-m chord placement classes of a Morse embedding.

    Chord heights are ordered, so slab indices run nondecreasing and
    the within-slab chord order is the listed order.  Each class
    records its induced diagram and downward-endpoint count.
    """
    if m < 1:
        raise ValueError("placement degree must be at least 1")
    slab_pairs = [
        sorted(itertools.combinations(sorted(slab.strand_ids), 2))
        for slab in mk.slabs
    ]
    out = []
    for slab_seq in itertools.combinations_with_replacement(range(len(mk.slabs)), m):
        pools = [slab_pairs[s] for s in slab_seq]
        if any(not pool for pool in pools):
            continue
        for pairs_seq in itertools.product(*pools):
            down = sum(
                (not mk.strands[a].goes_up) + (not mk.strands[b].goes_up)
                for a, b in pairs_seq
            )
            cross = all(
                mk.strands[a].component != mk.strands[b].component
                for a, b in pairs_seq
            )
            out.append(
                ChordPlacement(
                    slabs=slab_seq,
                    pairs=tuple(pairs_seq),
                    down_endpoints=down,
                    diagram=_induced_diagram(mk, pairs_seq),
                    cross_component=cross,
                )
            )
    return out


# -- quadrature --------------------------------------------------------------


class _QuadCache:
    """Chord integrands and ordered block integrals for one MorseKnot,
    each held once per quadrature setting.  The settings run each eps
    level at full steps, then each at half steps: the order of every
    per-setting array, which _classify reads."""

    def __init__(self, mk, quadrature):
        self.mk = mk
        self.settings = [
            (eps, steps)
            for steps in (quadrature.steps, quadrature.steps // 2)
            for eps in quadrature.epsilons()
        ]
        self._fs = {}
        self._blocks = {}

    def f(self, slab_idx, pair):
        """Per setting, the chord integrand on that setting's midpoint
        grid and the grid step."""
        key = (slab_idx, pair)
        got = self._fs.get(key)
        if got is None:
            slab = self.mk.slabs[slab_idx]
            sa, sb = self.mk.strands[pair[0]], self.mk.strands[pair[1]]
            got = []
            for eps, steps in self.settings:
                a, b = slab.t_lo + eps * slab.height, slab.t_hi - eps * slab.height
                step = (b - a) / steps
                t = a + (np.arange(steps) + 0.5) * step
                (za, dza), (zb, dzb) = sa.at(t), sb.at(t)
                got.append(((dza - dzb) / (za - zb), step))
            self._fs[key] = got
        return got

    def block(self, slab_idx, pairs):
        """Ordered integral over t_1 < ... < t_k inside one slab, as one
        complex array over the settings."""
        key = (slab_idx, pairs)
        got = self._blocks.get(key)
        if got is None:
            got = np.empty(len(self.settings), dtype=complex)
            for k, row in enumerate(zip(*(self.f(slab_idx, p) for p in pairs))):
                fs, step = [f for f, _ in row], row[0][1]
                R = 1.0
                for f in fs[:0:-1]:
                    g = f * R
                    suffix = np.cumsum(g[::-1])[::-1]
                    R = step * (suffix - 0.5 * g)
                got[k] = step * np.sum(fs[0] * R)
            self._blocks[key] = got
        return got


def _placement_value(cache, placement):
    """Raw placement integral over the quadrature settings, including
    the downward sign and one factor kappa per chord."""
    val = 1 + 0j
    for slab, run in itertools.groupby(
        zip(placement.slabs, placement.pairs), key=lambda sp: sp[0]
    ):
        val = val * cache.block(slab, tuple(pair for _, pair in run))
    sign = -1 if placement.down_endpoints % 2 else 1
    return sign * val * KAPPA**placement.degree


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
    """Classify the eps sequence by the ratio of successive differences.

    A geometric ratio below 0.85 is a power law (extrapolated: the
    exact limit for a pure power); a ratio near 1 is the logarithmic
    drift of a chord pinching at a critical point (flagged, value
    reported as-is); anything larger is treated as non-convergent.
    """
    v0, v1, v2 = vals[-3], vals[-2], vals[-1]
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


def placement_integral(mk, placement, quadrature=DEFAULT_QUADRATURE):
    """Extrapolated integral of one placement class with error bar."""
    return _classify(_placement_value(_QuadCache(mk, quadrature), placement))


# -- per-diagram aggregation -------------------------------------------------


def _empty_diagram():
    return ChordDiagram(())


def _raw_series(mk, m, quadrature):
    """Raw series of a single-component knot up to degree m.

    Entry d maps each degree-d chord diagram to its placement sum, an
    array over the quadrature settings in _QuadCache order; degree 0 is
    the empty diagram, exactly 1.  Sums run in enumeration order, so
    results are bit-reproducible, and one _QuadCache serves every
    degree.
    """
    cache = _QuadCache(mk, quadrature)
    n = len(cache.settings)
    series = [{_empty_diagram(): np.ones(n, dtype=complex)}]
    for deg in range(1, m + 1):
        sums = {}
        for p in enumerate_placements(mk, deg):
            acc = sums.setdefault(p.diagram, np.zeros(n, dtype=complex))
            acc += _placement_value(cache, p)
        series.append(sums)
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
            return [(_empty_diagram(), IntegralResult(1 + 0j, 0.0, True, False, ones, ones))]
        sums = self._series[m]
        return [(d, _classify(sums[d])) for d in sorted(sums)]

    def diagrams(self):
        return sorted(self._entries)

    def coefficient(self, diagram):
        return self._entries.get(diagram)

    def value(self, diagram):
        c = self._entries.get(diagram)
        return c.value if c is not None else 0j

    def error(self, diagram):
        c = self._entries.get(diagram)
        return c.error if c is not None else 0.0

    def items(self):
        return [(d, self._entries[d]) for d in self.diagrams()]

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

    Degrees 1 and 2 are the supported regime; 3 is allowed best-effort
    and anything higher is refused.  Multi-component embeddings have no
    single knot circle; use linking_number for those.
    """
    if not isinstance(mk, MorseKnot):
        raise TypeError("degree_coefficients expects a MorseKnot")
    if m < 0 or m > 3:
        raise ValueError("degree must be between 0 and 3")
    if m > 0 and len(mk.component_cycles) != 1:
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
    c = [dict() for _ in range(max_degree + 1)]
    c[0][_empty_diagram()] = 1 + 0j
    for m in range(1, max_degree + 1):
        acc = dict(a[m]) if m < len(a) else {}
        for k in range(1, m + 1):
            if k >= len(divisor) or not divisor[k]:
                continue
            for d1, c1 in divisor[k].items():
                for d2, c2 in c[m - k].items():
                    d = d1.concat(d2)
                    acc[d] = acc.get(d, 0j) - c1 * c2
        c[m] = acc
    return c


@functools.lru_cache(maxsize=16)
def _hump_reference_series(quadrature, max_degree):
    """Raw series of the shipped 2-maxima unknot; cache_info() gives
    the cache's hits and size."""
    from .fixtures import load_fixture
    from .morse import morse_embed

    return _raw_series(morse_embed(load_fixture("hump")), max_degree, quadrature)


def hump_normalize(raw, mk):
    """Divide out the critical-point contribution from a raw table.

    The corrected series is raw / hump^(maxima - 1) as truncated series
    in diagram degree, divided elementwise over the quadrature settings
    so the corrected sequences extrapolate exactly like raw ones.  The
    raw table carries its lower degrees and the 2-maxima unknot series
    is cached, so the knot needs no new quadrature.  A 1-maximum
    embedding is returned unchanged.
    """
    if not isinstance(raw, CoefficientTable):
        raise TypeError("hump_normalize expects a CoefficientTable")
    if raw.n_maxima != mk.n_maxima:
        raise ValueError("table was computed for a different embedding")
    power = mk.n_maxima - 1
    if raw.degree == 0 or power == 0:
        return raw
    m = raw.degree
    hump = _hump_reference_series(raw.quadrature, m)
    corrected = raw._series
    for _ in range(power):
        corrected = _series_div(corrected, hump, m)
    return CoefficientTable(corrected, raw.quadrature, mk.n_maxima)


# -- linking number ----------------------------------------------------------


def linking_number(mk, quadrature=DEFAULT_QUADRATURE):
    """Total linking number of a multi-component embedding.

    Sum of all degree-1 cross-component placement integrals; matches
    half the signed inter-component crossing count of a diagram of the
    same link.
    """
    if len(mk.component_cycles) < 2:
        raise ValueError("linking number needs at least 2 components")
    cache = _QuadCache(mk, quadrature)
    total = np.zeros(len(cache.settings), dtype=complex)
    for p in enumerate_placements(mk, 1):
        if p.cross_component:
            total += _placement_value(cache, p)
    return _classify(total)


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
    terms = [complex(weight(algebra, _empty_diagram()))]
    errors = [0.0]
    flagged = False
    for m in range(1, max_degree + 1):
        term = 0j
        err = 0.0
        for diagram, coeff in table._classified(m):
            w = weight(algebra, diagram)
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
