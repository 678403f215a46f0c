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
from scipy.interpolate import CubicSpline


class EmbeddingError(ValueError):
    pass


class Strand:
    """One height-monotone piece of a component.

    z(t) and dz(t) interpolate the samples; t_lo/t_hi are the critical
    heights bounding the strand; goes_up records the traversal
    direction along the original loop.
    """

    __slots__ = ("index", "component", "goes_up", "t_lo", "t_hi", "_z", "_dz")

    def __init__(self, index, component, goes_up, t_values, z_values):
        self.index = index
        self.component = component
        self.goes_up = goes_up
        order = np.argsort(t_values)
        t_sorted = np.asarray(t_values)[order]
        z_sorted = np.asarray(z_values)[order]
        self.t_lo = float(t_sorted[0])
        self.t_hi = float(t_sorted[-1])
        # not-a-knot; through 2 or 3 samples this is the line or parabola
        spline = CubicSpline(t_sorted, z_sorted)
        self._z = spline
        self._dz = spline.derivative()

    def z(self, t):
        return self._z(t)

    def dz(self, t):
        return self._dz(t)

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
    n = len(t)
    idx, kinds = [], []
    for i in range(n):
        prev_t = t[(i - 1) % n]
        next_t = t[(i + 1) % n]
        if t[i] == prev_t or t[i] == next_t:
            raise EmbeddingError(
                "flat height step at sample resolution; resample the curve"
            )
        if t[i] > prev_t and t[i] > next_t:
            idx.append(i)
            kinds.append(1)
        elif t[i] < prev_t and t[i] < next_t:
            idx.append(i)
            kinds.append(-1)
    return idx, kinds


def morse_embed(components, *, jitter=True, embed_tol=1e-8, slab_probes=25):
    """Build a MorseKnot from sampled closed curves.

    components: iterable of sample lists, each sample a (z, t) pair (or
    an object with re/im/t keys already converted by curve_from_json).
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
        crit_values = []
        ok = True
        for z, t in comps:
            idx, kinds = _extrema_indices(t)
            crit_values.extend(t[i] for i in idx)
        crit_sorted = sorted(crit_values)
        min_gap = min(
            (b - a for a, b in zip(crit_sorted, crit_sorted[1:])), default=scale
        )
        if min_gap > 1e-9 * scale:
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
    for ci, (z, t) in enumerate(comps):
        idx, kinds = _extrema_indices(t)
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

    margin = _check_embedding(strands, slabs, probes=slab_probes)
    if margin < embed_tol * scale:
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


def _check_embedding(strands, slabs, probes):
    margin = np.inf
    for slab in slabs:
        if len(slab.strand_ids) < 2:
            continue
        h = slab.height
        ts = np.linspace(slab.t_lo + 0.02 * h, slab.t_hi - 0.02 * h, probes)
        zs = np.array([strands[i].z(ts) for i in slab.strand_ids])
        for i in range(len(zs)):
            for j in range(i + 1, len(zs)):
                sep = float(np.min(np.abs(zs[i] - zs[j])))
                margin = min(margin, sep)
    return margin if np.isfinite(margin) else np.inf


# -- curve files -----------------------------------------------------------


def curve_from_json(data):
    """Samples from the curve JSON form {"components": [[{re, im, t}...]]}.

    Accepts a dict, a JSON string, or a path to a JSON file.  Returns a
    list of components, each a list of (z, t) pairs.
    """
    if isinstance(data, (str, bytes)):
        text = data
        try:
            stripped = data.lstrip() if isinstance(data, str) else data.lstrip(b" ")
            looks_like_json = stripped[:1] in ("{", b"{")
        except Exception:
            looks_like_json = False
        if not looks_like_json:
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
