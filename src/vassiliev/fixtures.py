"""Named fixtures: curves built from recipes, with combinatorial shadows.

Every fixture is a recipe (a plat word, or a circle's size and place),
and load_fixture builds its curve from that recipe on each call: one
pair (z, t) of arrays per component, the form morse_embed reads.  The
files under data/ are the command line's sample curve inputs, written
from the same recipes by write_shipped_data.

The plat builder lays n strand lanes side by side, joins them by
non-crossing cups below and caps above, and runs a braid word between.
One walk around each closed loop emits both the sampled space curve
(for the analytic pipeline) and its shadow diagram (for the skein
pipeline), so every geometric fixture carries a machine-checkable knot
type.  The walk emits each strand's tokens once, so the shadow is valid
as built.

Crossing letters are positive integers k or negative for the inverse;
the strand entering from the left at lanes (|k|, |k|+1) takes the first
passage, whose kind `codes._passages` gives for the letter's sign (over
for positive k).  The pseudo-letter ("wiggle", lane) inserts an
S-detour adding one maximum and one minimum without changing the knot.
"""

from __future__ import annotations

import functools
import json
import operator

import numpy as np

from .codes import SingularDiagram, _passages


def _validate_pairing(pairs, n, what):
    seen = set()
    for a, b in pairs:
        if not (0 <= a < b < n):
            raise ValueError(f"{what} ({a}, {b}) out of range")
        seen.update((a, b))
    if len(seen) != n or n % 2:
        raise ValueError(f"{what} must perfectly pair the {n} lanes")
    for a, b in pairs:
        for c, d in pairs:
            if a < c < b < d:
                raise ValueError(f"{what} ({a},{b}) and ({c},{d}) cross")


# Sampling phase: grids that straddle a height extremum must not place
# a sample pair exactly symmetric about it, or two consecutive heights
# tie at machine precision.  An irrational phase breaks the symmetry.
_PHASE = 1.0 / np.pi

WINDOW_SAMPLES = 56  # per strand per letter
ARC_SAMPLES = 160  # per cup or cap
BULGE = 0.18  # sideways offset of the two strands at a crossing


def _arc_samples(x_a, x_b, t_base, depth, count):
    """Half-ellipse from (x_a, t_base) to (x_b, t_base), apex offset by
    depth (negative dips down).  Open sampling, endpoints excluded."""
    u = (np.arange(count) + _PHASE) / count
    x = 0.5 * (x_a + x_b) - 0.5 * (x_b - x_a) * np.cos(np.pi * u)
    t = t_base + depth * np.sin(np.pi * u)
    return x, t


def _smoothstep(u):
    return u - np.sin(2 * np.pi * u) / (2 * np.pi)


def _wiggle_path(x0, t0):
    """S-detour within one window starting at (x0, t0): up, over, down,
    under, up again, and glide back to the lane.  Adds one maximum at
    t0+0.80 and one minimum at t0+0.10."""
    pieces = []

    def vertical(x, t_from, t_to, count):
        t = t_from + (t_to - t_from) * (np.arange(count) + 0.5) / count
        pieces.append((np.full(count, x), t))

    vertical(x0, t0, t0 + 0.76, 20)
    pieces.append(_arc_samples(x0, x0 + 0.4, t0 + 0.76, 0.04, 40))
    vertical(x0 + 0.4, t0 + 0.76, t0 + 0.14, 20)
    pieces.append(_arc_samples(x0 + 0.4, x0 + 0.8, t0 + 0.14, -0.04, 40))
    vertical(x0 + 0.8, t0 + 0.14, t0 + 0.90, 20)
    u = (np.arange(16) + 0.5) / 16
    pieces.append((x0 + 0.8 * (1 - _smoothstep(u)), t0 + 0.90 + 0.10 * u))
    xs = np.concatenate([p[0] for p in pieces])
    ts = np.concatenate([p[1] for p in pieces])
    return xs, ts


def _arcs(pairs, lanes, t_base, sign):
    """Per lane: the (x, t) samples of its cup or cap, in the plane
    y = 0, traversed from that lane, and the lane at the other end."""
    arcs = {}
    for i, (a, b) in enumerate(pairs):
        depth = 0.45 + 0.18 * (b - a) + 0.06 * i
        x, t = _arc_samples(lanes[a], lanes[b], t_base, sign * depth, ARC_SAMPLES)
        arcs[a] = ((x, t), b)
        arcs[b] = ((x[::-1], t[::-1]), a)
    return arcs


def plat(word, n, cups, caps):
    """Build the sampled curve and shadow diagram of a plat closure.

    Returns (components, shadow): components holds one pair (z, t) of
    arrays, complex and float, per closed loop, and shadow is the
    SingularDiagram that the same walk spells.
    """
    _validate_pairing(cups, n, "cup")
    _validate_pairing(caps, n, "cap")
    lanes = [float(p + 1) for p in range(n)]
    tau = (np.arange(WINDOW_SAMPLES) + 0.5) / WINDOW_SAMPLES
    ramp = _smoothstep(tau)
    hump_y = BULGE * np.sin(np.pi * tau) ** 2

    # One pass over the word.  A strand's id is its bottom lane; bottom
    # to top it collects one (z, t) window per letter and one (passage
    # kind, crossing id) token per crossing it passes through.  Windows
    # in the plane y = 0 keep z real; crossing windows bulge off it.
    occupant = list(range(n))
    samples = [[] for _ in range(n)]
    tokens = [[] for _ in range(n)]
    crossings = []  # per crossing id: (left strand, right strand, letter sign)
    for j, letter in enumerate(word):
        t_here = j + tau
        wiggle = isinstance(letter, tuple) and len(letter) == 2 and letter[0] == "wiggle"
        try:  # a wiggle's lane, or a crossing letter
            value = operator.index(letter[1] if wiggle else letter)
        except TypeError:
            raise ValueError(f"unknown plat letter {letter!r}") from None
        if wiggle:
            lane = value
            if not 0 <= lane < n:
                raise ValueError(f"wiggle lane {lane} out of range")
            samples[occupant[lane]].append(_wiggle_path(lanes[lane], float(j)))
            busy = (lane,)
        else:
            k = abs(value)
            if letter == 0 or k >= n:
                raise ValueError(f"letter {letter} out of range for {n} lanes")
            left, right = occupant[k - 1], occupant[k]
            bulge = 1j * (hump_y if letter > 0 else -hump_y)
            step = lanes[k] - lanes[k - 1]
            samples[left].append((lanes[k - 1] + ramp * step + bulge, t_here))
            samples[right].append((lanes[k] - ramp * step - bulge, t_here))
            for strand, kind in zip((left, right), _passages(letter)):
                tokens[strand].append((kind, len(crossings)))
            crossings.append((left, right, 1 if letter > 0 else -1))
            occupant[k - 1], occupant[k] = right, left
            busy = (k - 1, k)
        for p, s in enumerate(occupant):
            if p not in busy:
                samples[s].append((np.full(WINDOW_SAMPLES, lanes[p]), t_here))

    # One walk per component: up a strand, across its cap, down the
    # partner strand, across a cup, until the loop closes.  The curve
    # and its shadow component come from the same steps.
    cup_arcs = _arcs(cups, lanes, 0.0, -1)
    cap_arcs = _arcs(caps, lanes, float(len(word)), 1)
    components, shadow_components, dirs = [], [], {}
    for start in range(n):
        if start in dirs:
            continue
        bottom = start
        pieces, toks = [], []
        while bottom not in dirs:
            dirs[bottom] = 1
            pieces += samples[bottom]
            toks += tokens[bottom]
            arc, top = cap_arcs[occupant.index(bottom)]
            pieces.append(arc)
            down = occupant[top]
            dirs[down] = -1
            pieces += [(z[::-1], t[::-1]) for z, t in reversed(samples[down])]
            toks += reversed(tokens[down])
            arc, bottom = cup_arcs[down]
            pieces.append(arc)
        zs, ts = zip(*pieces)
        components.append((np.concatenate(zs, dtype=complex), np.concatenate(ts)))
        shadow_components.append(tuple(toks))

    signs = {
        sid: sign * dirs[left] * dirs[right]
        for sid, (left, right, sign) in enumerate(crossings)
    }
    return components, SingularDiagram._from_parts(tuple(shadow_components), signs)


# -- named fixtures ---------------------------------------------------------

STANDARD_CUPS = ((0, 1), (2, 3))
STANDARD_CAPS = ((0, 1), (2, 3))
HUMP_CAPS = ((1, 2), (0, 3))

# Found by machine search over short plat words: the 4-plat closure of
# this word has Conway polynomial 1 - z^2 (verified in tests).
FIGURE_EIGHT_PLAT_WORD = (2, 2, -1, 2)


def round_circle(n=720, radius=1.0, center=0.0, height=0.0):
    theta = 2 * np.pi * (np.arange(n) + _PHASE) / n
    z = center + radius * np.cos(theta)
    t = height + radius * np.sin(theta)
    return [(z.astype(complex), t)]


def two_circles(distance, n=720):
    a = round_circle(n=n, radius=1.0, center=0.0, height=0.0)
    b = round_circle(n=n, radius=0.93, center=float(distance), height=0.05)
    return [a[0], b[0]]


PLAT_FIXTURES = {
    "hump": functools.partial(plat, (), 4, STANDARD_CUPS, HUMP_CAPS),
    "trefoil_2max": functools.partial(plat, (2, 2, 2), 4, STANDARD_CUPS, STANDARD_CAPS),
    "trefoil_3max": functools.partial(
        plat, (2, 2, 2, ("wiggle", 0)), 4, STANDARD_CUPS, STANDARD_CAPS
    ),
    "figure_eight": functools.partial(
        plat, FIGURE_EIGHT_PLAT_WORD, 4, STANDARD_CUPS, STANDARD_CAPS
    ),
    "hopf": functools.partial(plat, (2, 2), 4, STANDARD_CUPS, STANDARD_CAPS),
    "torus_2_4": functools.partial(plat, (2, 2, 2, 2), 4, STANDARD_CUPS, STANDARD_CAPS),
}


ALL_FIXTURE_NAMES = ("round_circle", "split") + tuple(PLAT_FIXTURES)


def load_fixture(name):
    """Curve of a named fixture, built from its recipe: a list of
    components, each a pair (z, t) of arrays, complex and float."""
    if name == "round_circle":
        return round_circle()
    if name == "split":
        return two_circles(5.0)
    if name in PLAT_FIXTURES:
        return PLAT_FIXTURES[name]()[0]
    raise KeyError(f"unknown fixture {name!r}")


def write_shipped_data(dirpath):
    """Write the CLI's sample curve files, one <name>.json per fixture."""
    import os

    from .morse import curve_to_json

    os.makedirs(dirpath, exist_ok=True)
    for name in ALL_FIXTURE_NAMES:
        data = curve_to_json(load_fixture(name), name=name)
        with open(os.path.join(dirpath, f"{name}.json"), "w") as fh:
            json.dump(data, fh)
