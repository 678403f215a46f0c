"""Morse embeddings of closed curves in C x R.

A curve component is a closed loop of samples (z, t) with z complex and
t the height.  morse_embed cuts every component at its height extrema
into monotone strands, interpolates each strand as a function z(t), and
organizes the strands into slabs between consecutive critical heights.
Degenerate critical heights are separated by a tiny documented jitter;
genuinely coincident strands are rejected.
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
        s = t - self._t[i]
        a, b, c, z0 = (k[i] for k in self._coeffs)
        return ((a * s + b) * s + c) * s + z0, (3 * a * s + 2 * b) * s + c

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


def morse_embed(components, *, jitter=True):
    """Build a MorseKnot from sampled closed curves.

    components: iterable of sample lists, each sample a (z, t) pair as
    curve_from_json returns them; only s[0] and s[1] are read.
    Critical heights across the whole curve must be distinct; when two
    collide and jitter is enabled, the later component's heights are
    shifted by a recorded epsilon and the embedding is rebuilt.
    """
    comps = []
    for samples in components:
        z = np.array([complex(s[0]) for s in samples])
        t = np.array([float(s[1]) for s in samples])
        if len(z) < 4:
            raise EmbeddingError("need at least 4 samples per component")
        comps.append((z, t))
    if not comps:
        raise EmbeddingError("no components")

    scale = max(float(np.ptp(t)) for _, t in comps) or 1.0
    notes = []
    for attempt in range(6):
        extrema = [_extrema_indices(t) for _, t in comps]
        crits = np.sort(np.concatenate([t[idx] for (_, t), (idx, _) in zip(comps, extrema)]))
        if np.all(np.diff(crits) > 1e-9 * scale):
            break
        if not jitter:
            raise EmbeddingError("degenerate critical heights (jitter disabled)")
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
            sel = [(k % n) for k in range(a, b + 1)]
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
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                sep = float(np.min(np.abs(zs[i] - zs[j])))
                margin = min(margin, sep)
    return margin


# -- curve files -----------------------------------------------------------


def curve_from_json(data):
    """Samples from the curve JSON form {"components": [[{re, im, t}...]]}.

    Accepts a dict, a JSON string, or a path to a JSON file.  Returns a
    list of components, each a list of (z, t) pairs.
    """
    if isinstance(data, (str, bytes)):
        text = data
        if data.lstrip()[:1] not in ("{", b"{"):
            with open(data) as fh:
                text = fh.read()
        data = json.loads(text)
    comps = []
    for comp in data["components"]:
        samples = []
        for s in comp:
            samples.append((complex(float(s["re"]), float(s["im"])), float(s["t"])))
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
