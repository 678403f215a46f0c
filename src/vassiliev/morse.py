"""Morse embeddings of closed curves in C x R.

A curve component is a closed loop of samples (z, t) with z complex and
t the height.  morse_embed cuts every component at its height extrema
into monotone strands, interpolates each strand as a function z(t), and
organizes the strands into slabs between consecutive critical heights.
Critical heights that coincide across components are always separated
by a tiny jitter, recorded in the embedding's notes; critical heights
that coincide within one component, and genuinely coincident strands,
are rejected.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np


class EmbeddingError(ValueError):
    pass


def _not_a_knot_cubic(t, z):
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
        diag = np.r_[h[1], 2 * (dt[:-1] + dt[1:]), h[-2]].tolist()
        upper = [span0] + h[:-1]
        rhs = np.r_[
            ((h[0] + 2 * span0) * h[1] * w[0] + h[0] ** 2 * w[1]) / span0,
            3 * (dt[1:] * m[:-1] + dt[:-1] * m[1:]),
            (h[-1] ** 2 * w[-2] + (2 * span1 + h[-1]) * h[-2] * w[-1]) / span1,
        ].tolist()
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


class Strand:
    """One height-monotone piece of a component.

    at(t) gives z(t) and dz/dt on the spline through the samples;
    t_lo/t_hi are the critical heights bounding the strand; goes_up
    records the traversal direction along the original loop.
    """

    __slots__ = ("index", "component", "goes_up", "t_lo", "t_hi", "_t", "_coeffs")

    def __init__(self, index, component, goes_up, t_values, z_values):
        self.index = index
        self.component = component
        self.goes_up = goes_up
        order = np.argsort(t_values)
        self._t = np.asarray(t_values, dtype=float)[order]
        self.t_lo = float(self._t[0])
        self.t_hi = float(self._t[-1])
        self._coeffs = _not_a_knot_cubic(self._t, np.asarray(z_values, dtype=complex)[order])

    def at(self, t):
        """(z, dz/dt) at heights t; the end cubics extend past t_lo/t_hi."""
        i = np.searchsorted(self._t[1:-1], t, side="right")
        # One cast of s; Horner then runs in place on the fresh
        # coefficient rows (numpy scalars just rebind for a scalar t).
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
        return f"<Strand {self.index} comp={self.component} {arrow} [{self.t_lo:.3g},{self.t_hi:.3g}]>"


@dataclass(frozen=True)
class Slab:
    t_lo: float
    t_hi: float
    strand_ids: tuple

    @property
    def height(self):
        return self.t_hi - self.t_lo


@dataclass
class MorseKnot:
    strands: tuple
    slabs: tuple
    criticals: tuple
    component_cycles: tuple  # per component, strand indices in traversal order
    maxima_per_component: tuple
    embedding_margin: float
    notes: tuple = field(default_factory=tuple)

    @property
    def n_components(self):
        return len(self.component_cycles)

    @property
    def n_maxima(self):
        return sum(self.maxima_per_component)


def _extrema_indices(t):
    """Cyclic strict local extrema of the sample heights.

    Returns (indices, kinds) with kind +1 for a maximum.  Plateaus at
    sample resolution are rejected.
    """
    if np.any(t == np.roll(t, 1)):
        raise EmbeddingError(
            "flat height step at sample resolution; resample the curve"
        )
    rises_in, falls_out = t > np.roll(t, 1), t > np.roll(t, -1)
    idx = np.flatnonzero(rises_in == falls_out)
    return idx.tolist(), np.where(rises_in[idx], 1, -1).tolist()


def morse_embed(components):
    """Build a MorseKnot from sampled closed curves.

    components: iterable of sample lists, each sample a (z, t) pair with
    real t, as curve_from_json returns them.
    Critical heights across the whole curve must be distinct.  Two of
    one component that coincide raise EmbeddingError at once; when two
    of different components collide, each component's heights are
    shifted by its own multiple of a tiny epsilon, recorded in notes,
    and the embedding is rebuilt.
    """
    comps = []
    for samples in components:
        zt = np.array(samples, dtype=complex)
        if len(zt) < 4:
            raise EmbeddingError("need at least 4 samples per component")
        if np.any(zt[:, 1].imag):
            raise EmbeddingError("sample heights t must be real")
        comps.append((zt[:, 0], zt[:, 1].real))
    if not comps:
        raise EmbeddingError("no components")

    scale = max(float(np.ptp(t)) for _, t in comps) or 1.0
    # A constant shift moves no extremum and separates no two heights
    # of one component, so those must differ before any jitter.
    extrema = [_extrema_indices(t) for _, t in comps]
    for ci, ((_, t), (idx, _)) in enumerate(zip(comps, extrema)):
        if np.any(np.diff(np.sort(t[idx])) <= 1e-9 * scale):
            raise EmbeddingError(
                f"component {ci} has two critical heights that coincide; "
                "jitter shifts whole components and cannot separate them"
            )
    notes = []
    for attempt in range(6):
        crits = np.sort(np.concatenate([t[idx] for (_, t), (idx, _) in zip(comps, extrema)]))
        if np.all(np.diff(crits) > 1e-9 * scale):
            break
        # shift each component by a distinct tiny offset and retry
        delta = 3e-8 * scale * (attempt + 1)
        comps = [(z, t + ci * delta) for ci, (z, t) in enumerate(comps)]
        notes.append(f"jittered component heights by multiples of {delta:.3e}")
    else:
        raise EmbeddingError("could not separate critical heights by jitter")

    strands = []
    component_cycles = []
    maxima_per_component = []
    criticals = []
    for ci, ((z, t), (idx, kinds)) in enumerate(zip(comps, extrema)):
        if not idx:
            raise EmbeddingError("closed component with no height extremum")
        criticals.extend(t[i] for i in idx)
        maxima_per_component.append(sum(1 for k in kinds if k > 0))
        n = len(t)
        cycle = []
        for a, b in zip(idx, idx[1:] + [idx[0] + n]):
            sel = np.arange(a, b + 1) % n
            ts, zs = t[sel], z[sel]
            goes_up = ts[-1] > ts[0]
            strand = Strand(len(strands), ci, goes_up, ts, zs)
            cycle.append(strand.index)
            strands.append(strand)
        component_cycles.append(tuple(cycle))

    criticals = tuple(sorted(criticals))
    slabs = []
    for lo, hi in zip(criticals, criticals[1:]):
        ids = tuple(
            s.index
            for s in strands
            if s.t_lo <= lo + 1e-12 * scale and s.t_hi >= hi - 1e-12 * scale
        )
        slabs.append(Slab(lo, hi, ids))

    margin = _check_embedding(strands, slabs)
    if margin < 1e-8 * scale:
        raise EmbeddingError(
            f"strands nearly coincide (min separation {margin:.3e}); not an embedding"
        )
    return MorseKnot(
        strands=tuple(strands),
        slabs=tuple(slabs),
        criticals=criticals,
        component_cycles=tuple(component_cycles),
        maxima_per_component=tuple(maxima_per_component),
        embedding_margin=margin,
        notes=tuple(notes),
    )


def _check_embedding(strands, slabs):
    margin = np.inf
    for slab in slabs:
        if len(slab.strand_ids) < 2:
            continue
        h = slab.height
        ts = np.linspace(slab.t_lo + 0.02 * h, slab.t_hi - 0.02 * h, 25)
        zs = np.array([strands[i].at(ts)[0] for i in slab.strand_ids])
        i, j = np.triu_indices(len(zs), 1)
        margin = min(margin, float(np.min(np.abs(zs[i] - zs[j]))))
    return margin


# -- curve files -----------------------------------------------------------


def curve_from_json(data):
    """Samples from the curve JSON form {"components": [[{re, im, t}...]]}.

    Accepts a dict, a JSON string, or a path to a JSON file.  Returns a
    list of components, each a list of (z, t) pairs.  A missing or bad
    field raises EmbeddingError.
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
        samples = []
        for si, s in enumerate(comp):
            try:
                samples.append((complex(float(s["re"]), float(s["im"])), float(s["t"])))
            except KeyError as exc:
                raise EmbeddingError(
                    f"sample {si} of curve component {ci} has no {exc.args[0]!r} field"
                ) from None
            except (TypeError, ValueError):
                raise EmbeddingError(
                    f"sample {si} of curve component {ci} needs numbers 're', 'im' and 't'"
                ) from None
        comps.append(samples)
    return comps


def curve_to_json(components, name=None):
    out = {"components": []}
    if name:
        out["name"] = name
    for comp in components:
        out["components"].append(
            [
                {"re": float(np.real(z)), "im": float(np.imag(z)), "t": float(t)}
                for z, t in comp
            ]
        )
    return out
