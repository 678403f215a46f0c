"""Shipped fixtures: plat-built curves with combinatorial shadows.

The plat builder lays n strand lanes side by side, joins them by
non-crossing cups below and caps above, and runs a braid word between.
It returns both the sampled space curve (for the analytic pipeline) and
the shadow diagram (for the skein pipeline), so every geometric fixture
carries a machine-checkable knot type.

Crossing letters are positive integers k (the strand entering from the
left at lanes (k, k+1) passes over) or negative for the inverse.  The
pseudo-letter ("wiggle", lane) inserts an S-detour adding one maximum
and one minimum without changing the knot.
"""

from __future__ import annotations

import importlib.resources
import json

import numpy as np

from .codes import SingularDiagram

TREFOIL_GAUSS = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT_PD = "X(4,2,5,1) X(8,6,1,5) X(6,3,7,4) X(2,7,3,8)"

# Found by machine search over short plat words (see tests): the
# 4-plat closure of this word has Conway polynomial 1 - z^2.


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


def _plat_combinatorics(word, n, cups, caps):
    """Occupant tracking, shadow diagram, and the component walk.

    Returns (shadow, walk, dirs, meta): walk is a list of components,
    each a list of ("cup"|"cap", pair_index, reversed) and
    ("strand", strand_id, goes_up) steps; dirs maps strand -> +-1.
    """
    occupant = list(range(n))
    events = [[] for _ in range(n)]  # per strand: (window, kind, sid)
    letter_sign = {}
    movers = {}
    sid = 0
    for j, letter in enumerate(word):
        if isinstance(letter, tuple) and letter[0] == "wiggle":
            continue
        k = abs(letter)
        if letter == 0 or k >= n:
            raise ValueError(f"letter {letter} out of range for {n} lanes")
        left, right = occupant[k - 1], occupant[k]
        if letter > 0:
            events[left].append((j, "O", sid))
            events[right].append((j, "U", sid))
        else:
            events[left].append((j, "U", sid))
            events[right].append((j, "O", sid))
        letter_sign[sid] = 1 if letter > 0 else -1
        movers[sid] = (left, right)
        occupant[k - 1], occupant[k] = occupant[k], occupant[k - 1]
        sid += 1

    top_position = {occupant[p]: p for p in range(n)}
    bottom_of_top = {p: s for s, p in top_position.items()}
    cup_of = {}
    for ci, (a, b) in enumerate(cups):
        cup_of[a] = (ci, b)
        cup_of[b] = (ci, a)
    cap_of = {}
    for ci, (a, b) in enumerate(caps):
        cap_of[a] = (ci, b)
        cap_of[b] = (ci, a)

    # Walk: ascend a strand, cross its cap, descend, cross a cup, repeat.
    # A strand's id is its bottom lane.  The reversed flag on an arc step
    # means it is traversed from its second lane to its first.
    walk = []
    dirs = {}
    visited = set()
    for start in range(n):
        if start in visited:
            continue
        steps = []
        bottom = start
        while True:
            visited.add(bottom)
            dirs[bottom] = 1
            steps.append(("strand", bottom, True))
            top = top_position[bottom]
            ci, other_top = cap_of[top]
            steps.append(("cap", ci, caps[ci][1] == top))
            down = bottom_of_top[other_top]
            visited.add(down)
            dirs[down] = -1
            steps.append(("strand", down, False))
            ci2, partner = cup_of[down]
            steps.append(("cup", ci2, cups[ci2][1] == down))
            bottom = partner
            if bottom == start:
                break
        walk.append(steps)

    comps = []
    for steps in walk:
        toks = []
        for kind, idx, flag in steps:
            if kind != "strand":
                continue
            strand, up = idx, flag
            evs = events[strand] if up else list(reversed(events[strand]))
            for _, tok_kind, s in evs:
                toks.append((tok_kind, s))
        comps.append(tuple(toks))
    signs = {}
    for s, (l, r) in movers.items():
        signs[s] = letter_sign[s] * dirs[l] * dirs[r]
    shadow = SingularDiagram(comps, signs)
    return shadow, walk, dirs


# Sampling phase: grids that straddle a height extremum must not place
# a sample pair exactly symmetric about it, or two consecutive heights
# tie at machine precision.  An irrational phase breaks the symmetry.
_PHASE = 1.0 / np.pi


def _arc_samples(x_a, x_b, t_base, depth, count):
    """Half-ellipse from (x_a, t_base) to (x_b, t_base), apex offset by
    depth (negative dips down).  Open sampling, endpoints excluded."""
    u = (np.arange(count) + _PHASE) / count
    x = 0.5 * (x_a + x_b) - 0.5 * (x_b - x_a) * np.cos(np.pi * u)
    t = t_base + depth * np.sin(np.pi * u)
    return x, t


def _smoothstep(u):
    return u - np.sin(2 * np.pi * u) / (2 * np.pi)


def _wiggle_path(x0, t0, count_scale=1):
    """S-detour within one window starting at (x0, t0): up, over, down,
    under, up again, and glide back to the lane.  Adds one maximum at
    t0+0.80 and one minimum at t0+0.10."""
    pieces = []

    def vertical(x, t_from, t_to, count):
        t = t_from + (t_to - t_from) * (np.arange(count) + 0.5) / count
        pieces.append((np.full(count, x), t))

    vertical(x0, t0, t0 + 0.76, 20 * count_scale)
    x, t = _arc_samples(x0, x0 + 0.4, t0 + 0.76, 0.04, 40 * count_scale)
    pieces.append((x, t))
    vertical(x0 + 0.4, t0 + 0.76, t0 + 0.14, 20 * count_scale)
    x, t = _arc_samples(x0 + 0.4, x0 + 0.8, t0 + 0.14, -0.04, 40 * count_scale)
    pieces.append((x, t))
    vertical(x0 + 0.8, t0 + 0.14, t0 + 0.90, 20 * count_scale)
    u = (np.arange(16 * count_scale) + 0.5) / (16 * count_scale)
    pieces.append((x0 + 0.8 * (1 - _smoothstep(u)), t0 + 0.90 + 0.10 * u))
    xs = np.concatenate([p[0] for p in pieces])
    ts = np.concatenate([p[1] for p in pieces])
    return xs, ts


def plat(word, n, cups, caps, *, window_samples=56, arc_samples=160, bulge=0.18):
    """Build the sampled curve and shadow diagram of a plat closure.

    Returns (components, shadow, meta): components are lists of (z, t)
    samples per closed loop; meta records maxima and lane geometry.
    """
    _validate_pairing(cups, n, "cup")
    _validate_pairing(caps, n, "cap")
    shadow, walk, dirs = _plat_combinatorics(word, n, cups, caps)

    lanes = [float(p + 1) for p in range(n)]
    L = len(word)

    # strand geometry through the braid windows
    occupant = list(range(n))
    xs = {s: [] for s in range(n)}
    ys = {s: [] for s in range(n)}
    ts = {s: [] for s in range(n)}
    for j, letter in enumerate(word):
        tau = (np.arange(window_samples) + 0.5) / window_samples
        t_here = j + tau
        if isinstance(letter, tuple) and letter[0] == "wiggle":
            lane = letter[1]
            if not 0 <= lane < n:
                raise ValueError(f"wiggle lane {lane} out of range")
            wx, wt = _wiggle_path(lanes[lane], float(j))
            for p in range(n):
                s = occupant[p]
                if p == lane:
                    xs[s].append(wx)
                    ys[s].append(np.zeros_like(wx))
                    ts[s].append(wt)
                else:
                    xs[s].append(np.full(window_samples, lanes[p]))
                    ys[s].append(np.zeros(window_samples))
                    ts[s].append(t_here)
            continue
        k = abs(letter)
        left, right = occupant[k - 1], occupant[k]
        ramp = _smoothstep(tau)
        hump_y = bulge * np.sin(np.pi * tau) ** 2
        over_y = hump_y if letter > 0 else -hump_y
        for p in range(n):
            s = occupant[p]
            if s == left:
                xs[s].append(lanes[k - 1] + ramp * (lanes[k] - lanes[k - 1]))
                ys[s].append(over_y)
            elif s == right:
                xs[s].append(lanes[k] - ramp * (lanes[k] - lanes[k - 1]))
                ys[s].append(-over_y)
            else:
                xs[s].append(np.full(window_samples, lanes[p]))
                ys[s].append(np.zeros(window_samples))
            ts[s].append(t_here)
        occupant[k - 1], occupant[k] = occupant[k], occupant[k - 1]

    strand_xyz = {}
    for s in range(n):
        if xs[s]:
            strand_xyz[s] = (
                np.concatenate(xs[s]),
                np.concatenate(ys[s]),
                np.concatenate(ts[s]),
            )
        else:
            strand_xyz[s] = (np.array([]), np.array([]), np.array([]))

    def pair_depth(pairs, idx):
        a, b = pairs[idx]
        return 0.45 + 0.18 * (b - a) + 0.06 * idx

    components = []
    for steps in walk:
        px, py, pt = [], [], []
        for kind, idx, flag in steps:
            if kind in ("cup", "cap"):
                pairs = cups if kind == "cup" else caps
                a, b = pairs[idx]
                d = pair_depth(pairs, idx)
                base = 0.0 if kind == "cup" else float(L)
                x, t = _arc_samples(
                    lanes[a], lanes[b], base, -d if kind == "cup" else d, arc_samples
                )
                if flag:
                    x, t = x[::-1], t[::-1]
                px.append(x)
                py.append(np.zeros_like(x))
                pt.append(t)
            else:
                s, up = idx, flag
                x, y, t = strand_xyz[s]
                if len(x) == 0:
                    continue
                if not up:
                    x, y, t = x[::-1], y[::-1], t[::-1]
                px.append(x)
                py.append(y)
                pt.append(t)
        x = np.concatenate(px)
        y = np.concatenate(py)
        t = np.concatenate(pt)
        components.append(list(zip(x + 1j * y, t)))

    meta = {
        "n_lanes": n,
        "n_maxima": len(caps) + sum(
            1 for w in word if isinstance(w, tuple) and w[0] == "wiggle"
        ),
        "shadow_writhe": shadow.writhe,
    }
    return components, shadow, meta


# -- named fixtures ---------------------------------------------------------

STANDARD_CUPS = ((0, 1), (2, 3))
STANDARD_CAPS = ((0, 1), (2, 3))
HUMP_CAPS = ((1, 2), (0, 3))

FIGURE_EIGHT_PLAT_WORD = (2, 2, -1, 2)  # verified against conway in tests


def round_circle(n=720, radius=1.0, center=0.0, height=0.0):
    theta = 2 * np.pi * (np.arange(n) + _PHASE) / n
    z = center + radius * np.cos(theta)
    t = height + radius * np.sin(theta)
    return [list(zip(z.astype(complex), t))]


def two_circles(distance, n=720):
    a = round_circle(n=n, radius=1.0, center=0.0, height=0.0)
    b = round_circle(n=n, radius=0.93, center=float(distance), height=0.05)
    return [a[0], b[0]]


def hump_plat():
    return plat([], 4, STANDARD_CUPS, HUMP_CAPS)


def trefoil_2max_plat():
    return plat([2, 2, 2], 4, STANDARD_CUPS, STANDARD_CAPS)


def trefoil_3max_plat():
    return plat([2, 2, 2, ("wiggle", 0)], 4, STANDARD_CUPS, STANDARD_CAPS)


def figure_eight_plat():
    return plat(list(FIGURE_EIGHT_PLAT_WORD), 4, STANDARD_CUPS, STANDARD_CAPS)


def hopf_plat():
    return plat([2, 2], 4, STANDARD_CUPS, STANDARD_CAPS)


def torus_2_4_plat():
    return plat([2, 2, 2, 2], 4, STANDARD_CUPS, STANDARD_CAPS)


PLAT_FIXTURES = {
    "hump": hump_plat,
    "trefoil_2max": trefoil_2max_plat,
    "trefoil_3max": trefoil_3max_plat,
    "figure_eight": figure_eight_plat,
    "hopf": hopf_plat,
    "torus_2_4": torus_2_4_plat,
}


def fixture_curve(name):
    """Curve samples for a named fixture (built fresh, not from disk)."""
    if name == "round_circle":
        return round_circle()
    if name == "split":
        return two_circles(5.0)
    if name in PLAT_FIXTURES:
        return PLAT_FIXTURES[name]()[0]
    raise KeyError(f"unknown fixture {name!r}")


ALL_FIXTURE_NAMES = ("round_circle", "split") + tuple(PLAT_FIXTURES)


def load_fixture(name):
    """Shipped curve JSON for a named fixture."""
    from .morse import curve_from_json

    res = importlib.resources.files("vassiliev.data").joinpath(f"{name}.json")
    return curve_from_json(json.loads(res.read_text()))


def write_shipped_data(dirpath):
    """Regenerate the shipped curve files (used at development time)."""
    import os

    from .morse import curve_to_json

    os.makedirs(dirpath, exist_ok=True)
    for name in ALL_FIXTURE_NAMES:
        data = curve_to_json(fixture_curve(name), name=name)
        with open(os.path.join(dirpath, f"{name}.json"), "w") as fh:
            json.dump(data, fh)


# -- random singular samples -----------------------------------------------


def sample_singular_words(rng, n_nodes, *, n_strands=3, max_crossings=8):
    """One random singular braid word with the given node count."""
    n_cross = rng.randint(1, max_crossings)
    word = [("node", rng.randint(1, n_strands - 1)) for _ in range(n_nodes)]
    word += [
        rng.choice([1, -1]) * rng.randint(1, n_strands - 1) for _ in range(n_cross)
    ]
    rng.shuffle(word)
    return word


def sample_singular_diagrams(rng, n_nodes, count, *, n_strands=3, max_crossings=8,
                             one_component=False):
    """Random singular braid closures, optionally filtered to knots."""
    from .codes import braid_closure

    out = []
    while len(out) < count:
        word = sample_singular_words(
            rng, n_nodes, n_strands=n_strands, max_crossings=max_crossings
        )
        d = braid_closure(word, n_strands=n_strands)
        if one_component and d.n_components != 1:
            continue
        out.append(d)
    return out
