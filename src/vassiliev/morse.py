"""Morse embeddings of closed curves in C x R.

A curve component is a closed loop of samples, given as one pair (z, t)
of equal-length 1-D arrays: z complex, t the real height, sample i at
(z[i], t[i]).  curve_from_json returns this form, curve_to_json writes
it, and the fixtures build it.  morse_embed cuts every component at its
height extrema into monotone strands, interpolates each strand as a
function z(t), and organizes the strands into slabs between consecutive
critical heights: a strand's ends are two of those heights, and their
places among them give its slabs, the only ones it is evaluated on when
checking the embedding.  Chords are horizontal, so the chords at a
height join the strand pairs of its slab, Slab.pairs.  Critical heights
that coincide across components are separated by a tiny jitter, recorded
in the embedding's notes; critical heights that coincide within one
component, coincident strands, and splines that overflow are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import combinations
from numbers import Real

import numpy as np


class EmbeddingError(ValueError):
    pass


MAX_PAIRS = 200_000  # strand pairs the embedding check compares, summed over slabs


def _not_a_knot_cubics(ts, zs):
    """Not-a-knot cubic splines through the pieces (ts[k], zs[k]), each
    with t increasing: per piece, its heights and its per-interval
    coefficients, cubic first.

    A piece's knot slopes solve the usual tridiagonal system: a
    continuous second derivative at the interior knots, and a continuous
    third derivative at t[1] and t[-2].  Elimination needs no pivoting:
    every pivot is positive, at least one interval width except in the
    last row, which keeps dt[-2]**2 / (2 (dt[-2] + dt[-1])).  Through 2
    or 3 samples the spline is the line or the parabola.

    The rows and the coefficients of all pieces come from one set of
    array operations over the concatenated samples.  Only the sweep runs
    piece by piece, in Python floats, and so do its end rows' right-hand
    sides: numpy divides a complex by a float through the reciprocal and
    squares by a product, where Python divides and calls pow.
    """
    sizes = [len(t) for t in ts]
    t, z = np.concatenate(ts), np.concatenate(zs)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    # Without the steps across joins, piece k's intervals start at
    # starts[k] - k, and interior row i of a piece is built from its
    # intervals i - 1 and i; the rows across a join go unused.
    joins = ends[:-1] - 1
    dt = np.delete(np.diff(t), joins)
    m = np.delete(np.diff(z), joins) / dt
    inner_diag = 2 * (dt[:-1] + dt[1:])
    inner_rhs = 3 * (dt[1:] * m[:-1] + dt[:-1] * m[1:])
    bounds = list(zip(starts.tolist(), ends.tolist()))
    d = np.empty(len(t), dtype=complex)
    for k, (a, b) in enumerate(bounds):
        i, j = a - k, b - k - 1
        if b - a <= 3:
            mid = np.dot(dt[i:j][::-1], m[i:j]) / (t[b - 1] - t[a])
            d[a:b] = np.r_[2 * m[i] - mid, [mid] * (b - a - 2), 2 * m[j - 1] - mid]
            continue
        h = dt[i:j].tolist()
        w = m[i : i + 2].tolist() + m[j - 2 : j].tolist()
        span0, span1 = float(t[a + 2] - t[a]), float(t[b - 1] - t[b - 3])
        lower = h[1:] + [span1]
        upper = [span0] + h[:-1]
        diag = [h[1]] + inner_diag[i : j - 1].tolist() + [h[-2]]
        rhs = (
            [((h[0] + 2 * span0) * h[1] * w[0] + h[0] ** 2 * w[1]) / span0]
            + inner_rhs[i : j - 1].tolist()
            + [(h[-1] ** 2 * w[2] + (2 * span1 + h[-1]) * h[-2] * w[3]) / span1]
        )
        piv, r = diag[0], rhs[0]
        pivots, rights = [piv], [r]
        for lo, up, dg, rh in zip(lower, upper, diag[1:], rhs[1:]):
            f = lo / piv
            piv = dg - f * up
            r = rh - f * r
            pivots.append(piv)
            rights.append(r)
        x = r / piv
        back = [x]
        for up, piv, r in zip(upper[::-1], pivots[-2::-1], rights[-2::-1]):
            x = (r - up * x) / piv
            back.append(x)
        d[a:b] = back[::-1]
    first, last = np.delete(d, ends - 1), np.delete(d, starts)
    c = (first + last - 2 * m) / dt
    coeffs = (c / dt, (m - first) / dt - c, first, np.delete(z, ends - 1))
    return [
        (t[a:b], tuple(row[a - k : b - k - 1] for row in coeffs))
        for k, (a, b) in enumerate(bounds)
    ]


class Strand:
    """One height-monotone piece of a component.

    at(t) gives z(t) and dz/dt on the spline with heights t and
    per-interval coefficients coeffs, one piece as _not_a_knot_cubics
    returns it; t_lo/t_hi are the critical heights bounding the strand;
    goes_up records the traversal direction along the original loop.
    """

    __slots__ = ("component", "goes_up", "t_lo", "t_hi", "_t", "_coeffs")

    def __init__(self, component, goes_up, t, coeffs):
        self.component = component
        self.goes_up = goes_up
        self.t_lo = float(t[0])
        self.t_hi = float(t[-1])
        self._t = t
        self._coeffs = coeffs

    def at(self, t):
        """(z, dz/dt) at heights t; the end cubics extend past t_lo/t_hi."""
        i = np.searchsorted(self._t[1:-1], t, side="right")
        # One cast of s, then Horner in place on the fresh coefficient rows
        # (numpy scalars rebind for a scalar t): ~10% faster on a 2-CPU machine
        # than the bit-identical ((a*s + b)*s + c)*s + z0 over mixed tables.
        s = np.asarray(t - self._t[i], dtype=complex)
        a, b, c, z0 = (k[i] for k in self._coeffs)
        z = a * s
        z += b
        z *= s
        z += c
        z *= s
        z += z0
        a *= 3
        a *= s
        b *= 2
        a += b
        a *= s
        a += c
        return z, a

    def __repr__(self):
        arrow = "up" if self.goes_up else "down"
        return f"<Strand comp={self.component} {arrow} [{self.t_lo:.3g},{self.t_hi:.3g}]>"


@dataclass(frozen=True)
class Slab:
    """Between consecutive critical heights; strand_ids ascending.  pairs:
    the strand pairs (a, b), a < b, as an (n, 2) int array in combinations
    order, which kontsevich's blocks, letters and placements follow."""

    t_lo: float
    t_hi: float
    strand_ids: tuple

    @property
    def height(self):
        return self.t_hi - self.t_lo

    @property
    def pairs(self):
        return np.array(list(combinations(self.strand_ids, 2)), dtype=int).reshape(-1, 2)


@dataclass
class MorseKnot:
    """Strands and slabs of a Morse embedding.  The order of the strands
    is the only record of the knot circle: a strand's index is its place
    there, and the component and maxima counts derive from it."""

    strands: tuple  # each component's strands consecutive, in traversal order; components in order
    slabs: tuple  # between consecutive critical heights, bottom to top
    embedding_margin: float
    notes: tuple = field(default_factory=tuple)

    @property
    def n_components(self):
        return self.strands[-1].component + 1

    @property
    def n_maxima(self):
        # extrema alternate around a component, and each strand joins one to the next
        return len(self.strands) // 2


def _extrema_indices(t):
    """Indices of the cyclic strict local extrema of the sample heights,
    ascending; maxima and minima alternate.  Plateaus at sample
    resolution are rejected.
    """
    if t[0] == t[-1] or np.any(t[1:] == t[:-1]):
        raise EmbeddingError(
            "flat height step at sample resolution; resample the curve"
        )
    # rises[i]: the height rises into sample i.  With no flat step, an
    # extremum rises into its sample and falls out of it, or the reverse.
    rises = np.concatenate(([t[0] > t[-1]], t[1:] > t[:-1]))
    idx = np.flatnonzero(rises != np.concatenate((rises[1:], rises[:1]))).tolist()
    return idx


def _component_arrays(ci, component):
    """(z, t) arrays of one component; EmbeddingError unless it is two
    equal-length 1-D arrays of at least 4 finite numbers with real t."""
    try:
        z, t = (np.asarray(c) for c in component)
        pair = z.ndim == t.ndim == 1 and len(z) == len(t)
        numeric = pair and z.dtype.kind in "biufc" and t.dtype.kind in "biufc"
    except (TypeError, ValueError):
        numeric = False
    if not numeric:
        raise EmbeddingError(
            f"component {ci} must be a pair (z, t) of equal-length 1-D arrays of numbers"
        )
    if len(t) < 4:
        raise EmbeddingError(f"component {ci} needs at least 4 samples, not {len(t)}")
    if np.any(t.imag):
        raise EmbeddingError("sample heights t must be real")
    z, t = z.astype(complex, copy=False), t.real.astype(float, copy=False)
    finite = np.isfinite(z) & np.isfinite(t)
    if not finite.all():
        si = int(np.argmin(finite))
        raise EmbeddingError(
            f"sample {si} of component {ci} is not finite: z = {z[si]}, t = {t[si]}"
        )
    return z, t


def morse_embed(components):
    """Build a MorseKnot from sampled closed curves.

    components: iterable of pairs (z, t) of equal-length 1-D arrays, z
    complex and t real, as curve_from_json and load_fixture return them.
    The embedding copies what it keeps, so the caller's arrays stay theirs.
    Critical heights across the whole curve must be distinct.  Two of
    one component that coincide raise EmbeddingError at once; when two
    of different components collide, each component's heights are
    shifted by its own multiple of a tiny epsilon, recorded in notes,
    and the embedding is rebuilt.
    """
    comps = [_component_arrays(ci, samples) for ci, samples in enumerate(components)]
    if not comps:
        raise EmbeddingError("no components")

    scale = max(float(np.ptp(t)) for _, t in comps) or 1.0
    # A constant shift moves no extremum and separates no two heights
    # of one component, so those must differ before any jitter.
    extrema = [_extrema_indices(t) for _, t in comps]
    for ci, ((_, t), idx) in enumerate(zip(comps, extrema)):
        if np.any(np.diff(np.sort(t[idx])) <= 1e-9 * scale):
            raise EmbeddingError(
                f"component {ci} has two critical heights that coincide; "
                "jitter shifts whole components and cannot separate them"
            )
    notes = []
    for attempt in range(6):
        crits = np.sort(np.concatenate([t[idx] for (_, t), idx in zip(comps, extrema)]))
        if np.all(np.diff(crits) > 1e-9 * scale):
            break
        # shift each component by a distinct tiny offset and retry
        delta = 3e-8 * scale * (attempt + 1)
        comps = [(z, t + ci * delta) for ci, (z, t) in enumerate(comps)]
        notes.append(f"jittered component heights by multiples of {delta:.3e}")
    else:
        raise EmbeddingError("could not separate critical heights by jitter")

    # Each strand's samples, sorted by height, cut in traversal order: a
    # strand is monotone between its two extrema, so a downward one is only reversed.
    ts, zs, specs = [], [], []
    for ci, ((z, t), idx) in enumerate(zip(comps, extrema)):
        n = len(t)
        # the last strand wraps past the end of the loop to its first extremum
        t, z = np.concatenate((t, t[: idx[0] + 1])), np.concatenate((z, z[: idx[0] + 1]))
        for a, b in zip(idx, idx[1:] + [idx[0] + n]):
            goes_up = t[b] > t[a]
            step = 1 if goes_up else -1
            ts.append(t[a : b + 1][::step])
            zs.append(z[a : b + 1][::step])
            specs.append((ci, goes_up))
    # past the floats, Python raises on pow and division, and numpy under errstate
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            built = _not_a_knot_cubics(ts, zs)
    except ArithmeticError:
        raise EmbeddingError(
            f"the strand splines overflow on heights spanning {scale:.3e}; rescale the curve"
        ) from None
    strands = [Strand(*spec, *b) for spec, b in zip(specs, built)]

    # A strand's ends are two of the critical heights, so their places in
    # crits are exact, and the slabs between them are the strand's span.
    spans = np.searchsorted(crits, [(s.t_lo, s.t_hi) for s in strands]).tolist()
    ids = [[] for _ in crits[1:]]
    for s, (i, j) in enumerate(spans):
        for k in range(i, j):
            ids[k].append(s)
    slabs = [Slab(lo, hi, tuple(members)) for lo, hi, members in zip(crits, crits[1:], ids)]
    pairs = sum(len(members) * (len(members) - 1) // 2 for members in ids)
    if pairs > MAX_PAIRS:
        raise EmbeddingError(f"the embedding check's {pairs:,} strand pairs exceed the bound {MAX_PAIRS:,}")

    margin = _check_embedding(strands, slabs, spans)
    if not margin >= 1e-8 * scale:
        raise EmbeddingError(
            f"strands nearly coincide (min separation {margin:.3e}); not an embedding"
        )
    return MorseKnot(
        strands=tuple(strands),
        slabs=tuple(slabs),
        embedding_margin=margin,
        notes=tuple(notes),
    )


def _check_embedding(strands, slabs, spans):
    """Least distance between two strands of one slab, at 25 heights
    through each slab with 2% of its height left out at either end.
    Strand s is evaluated only on its span, slabs spans[s][0] to spans[s][1] - 1."""
    lo, hi = np.array([(slab.t_lo, slab.t_hi) for slab in slabs]).T
    h = hi - lo
    probes = np.linspace(lo + 0.02 * h, hi - 0.02 * h, 25, axis=1)
    zs = np.concatenate([strand.at(probes[i:j])[0] for strand, (i, j) in zip(strands, spans)])
    # zs holds the strands' rows one after another: strand s's on slab k is offset[s] + k
    offset = np.cumsum([0] + [j - i for i, j in spans[:-1]]) - [i for i, _ in spans]
    return float(np.min([
        np.min(np.abs(zs[offset[a] + k] - zs[offset[b] + k]), initial=np.inf)
        for k, (a, b) in enumerate(slab.pairs.T for slab in slabs)
    ]))


# -- curve files -----------------------------------------------------------


def curve_from_json(data):
    """Curve from the JSON form {"components": [[{re, im, t}...]]}.

    Accepts a dict, a JSON string, or a path to a JSON file.  Returns a
    list of components, each a pair (z, t) of arrays, complex and float.
    A missing field, or one that is not a JSON number (a string or a
    boolean), raises EmbeddingError, as schemas/curve.schema.json does.
    """
    if isinstance(data, (str, bytes)):
        text = data
        if data.lstrip()[:1] not in ("{", b"{"):
            with open(data) as fh:
                text = fh.read()
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise EmbeddingError(
                f"curve JSON does not decode: {exc.msg} at char {exc.pos}"
            ) from None
    components = data.get("components") if isinstance(data, dict) else None
    if not isinstance(components, list) or not all(isinstance(c, list) for c in components):
        raise EmbeddingError("curve JSON needs 'components', a list of sample lists")
    comps = []
    for ci, comp in enumerate(components):
        rows = np.empty((len(comp), 3))  # re, im, t
        for si, s in enumerate(comp):
            try:
                row = s["re"], s["im"], s["t"]
                if any(isinstance(v, bool) or not isinstance(v, Real) for v in row):
                    raise TypeError
                rows[si] = row
            except KeyError as exc:
                raise EmbeddingError(
                    f"sample {si} of curve component {ci} has no {exc.args[0]!r} field"
                ) from None
            except (TypeError, ValueError, OverflowError):
                raise EmbeddingError(
                    f"sample {si} of curve component {ci} needs numbers 're', 'im' and 't'"
                ) from None
        # the re and im columns side by side are the complex z, bit for bit
        comps.append((rows[:, :2].copy().view(complex).ravel(), rows[:, 2].copy()))
    return comps


def curve_to_json(components, name=None):
    """The JSON form of a curve given as pairs (z, t) of arrays."""
    out = {"components": []}
    if name:
        out["name"] = name
    for z, t in components:
        z = np.asarray(z, dtype=complex)
        rows = zip(z.real.tolist(), z.imag.tolist(), np.asarray(t, dtype=float).tolist())
        out["components"].append([{"re": re, "im": im, "t": h} for re, im, h in rows])
    return out
