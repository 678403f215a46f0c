"""One benchmark pass, run in a fresh interpreter by perfbench/run.py.

    python perfbench/passes.py KIND SEED TRACE [CLASS ARGV_JSON]

KIND is `exact` or `integrals` (one pass of that workload), `import`
(time `import vassiliev` only) or `cli-main` (time the first
`vassiliev.cli.main(argv)` call of a light or integral command, with
argv given as a JSON list).  The
pass prints one JSON document on stdout.  The library is imported as the
first thing, so `import_s` is a cold import; the skein memo and the hump
reference cache start empty in every pass because the process is new.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import sys
import time

from recorder import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))

# -- exact workload inputs ----------------------------------------------------
# The corpus is drawn once from the library's sampler with CORPUS_SEED, and
# --seed relabels its crossings.  Skein cost varies about 50% between
# random knots of one size, so a corpus drawn per seed made the pass time
# depend on the seed; relabelling leaves the work unchanged.
CORPUS_SEED = 1998
# Knots per crossing count.  Skein cost grows about 5x per two crossings;
# 11-crossing knots (0.4 +- 0.25 s each) are left out as too uneven.
V2_QUOTAS = {3: 5, 5: 10, 7: 60, 9: 3}
V2_STRANDS = 4
# Two-node 3-strand knots for the switch check (AC4 uses up to 8
# crossings; 8-crossing items cost 0.47 +- 0.18 s each, too uneven).
SWITCH_QUOTAS = {2: 10, 4: 10, 6: 14}
LADDER = range(2, 16)  # T(2, n): knots for odd n, 2-component links for even n
CHORD_DEGREES = range(1, 7)
FOUR_TERM_DEGREES = range(2, 6)
CANONICAL_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 18, 5: 105, 6: 902}
LIE_DEGREES = range(1, 5)
LIE_4T_DEGREES = range(2, 5)

# -- integrals workload inputs ------------------------------------------------
KNOT_FIXTURES = ("round_circle", "hump", "trefoil_2max", "trefoil_3max", "figure_eight")
LINK_FIXTURES = ("hopf", "torus_2_4", "split")
DEG3_FIXTURES = ("trefoil_2max", "trefoil_3max")
LINKING_TOL = 1e-3  # AC9
V2_TOL = 5e-2  # AC11
# Degree-3 values and error bars must match the recorded ones to this
# relative tolerance: 1000x the 1e-12 a reordered summation may move them,
# far below any error bar.
DEG3_RTOL = 1e-9

DEFAULT_SEED = 1

_GAUSS_TOKEN = re.compile(r"([OU])(\d+)([+-])")


def load_reference():
    with open(os.path.join(HERE, "reference.json")) as fh:
        return json.load(fh)


def stratified(v, rng, n_nodes, quotas, n_strands, max_crossings):
    """Knot diagrams from the library's sampler, kept per crossing count
    until every quota is met (the sampler's order is kept)."""
    kept = {c: [] for c in quotas}
    while any(len(kept[c]) < q for c, q in quotas.items()):
        for d in v.sample_singular_diagrams(
            rng, n_nodes, 32, n_strands=n_strands, max_crossings=max_crossings,
            one_component=True,
        ):
            bucket = kept.get(d.n_crossings)
            if bucket is not None and len(bucket) < quotas[d.n_crossings]:
                bucket.append(d)
    return [d for c in sorted(kept) for d in kept[c]]


def relabel(v, d, rng):
    """The same diagram with its site ids permuted by rng."""
    ids = sorted({sid for comp in d.components for _, sid in comp})
    perm = dict(zip(ids, rng.sample(ids, len(ids))))
    comps = [[(kind, perm[sid]) for kind, sid in comp] for comp in d.components]
    return v.SingularDiagram(comps, {perm[sid]: sign for sid, sign in d.signs.items()})


def relabel_rotate(text, rng):
    """The same one-component Gauss code with crossing ids permuted and
    the basepoint moved; its canonical key must not change."""
    toks = _GAUSS_TOKEN.findall(text)
    ids = sorted({int(t[1]) for t in toks})
    perm = dict(zip(ids, rng.sample(range(1, len(ids) + 1), len(ids))))
    r = rng.randrange(len(toks))
    toks = toks[r:] + toks[:r]
    return "".join(f"{k}{perm[int(i)]}{s}" for k, i, s in toks)


def torus_conway(n):
    """Closed form of the Conway polynomial of T(2, n), {exponent: coeff}."""
    k = n // 2
    if n % 2:
        return {2 * j: math.comb(k + j, 2 * j) for j in range(k + 1)}
    return {2 * j + 1: math.comb(k + j, 2 * j + 1) for j in range(k)}


def exact_pass(v, seed, rec):
    corpus, rng = random.Random(CORPUS_SEED), random.Random(seed)
    t0 = time.perf_counter()
    with rec.span("fixtures.sample"):
        knots = [relabel(v, d, rng) for d in stratified(v, corpus, 0, V2_QUOTAS, V2_STRANDS, max(V2_QUOTAS))]
        mirrors = [d.mirror() for d in knots]
        switched = [relabel(v, d, rng) for d in stratified(v, corpus, 2, SWITCH_QUOTAS, 3, max(SWITCH_QUOTAS))]
        ladder = [v.braid_closure([1] * n, n_strands=2) for n in LADDER]
        algebras = [v.su2_fundamental(), v.gl_fundamental(2), v.gl_fundamental(3)]
    sample_s = time.perf_counter() - t0
    texts = [d.to_gauss() for d in knots]
    relabeled = [relabel_rotate(t, rng) for t in texts]

    results = []  # (op, kind, payload), checked after the clock stops
    t0 = time.perf_counter()
    with rec.span("solve"):
        for d, m, text, other in zip(knots, mirrors, texts, relabeled):
            with rec.op("knot") as op:
                copy, moved = op.call("codes.parse", lambda: (v.parse_gauss(text), v.parse_gauss(other)))
                keys = op.call("codes.canonical_key", lambda: (copy.canonical_key(), moved.canonical_key()))
                pair = (op.call("skein.v2", v.v2, d), op.call("skein.v2", v.v2, m))
                results.append((op, "knot", (text, copy, keys, pair)))
        for d in switched:
            with rec.op("switch") as op:
                switches = [[sid] for sid in d.crossing_ids]
                got = op.call("skein.switch_check", v.embedding_independence_check, v.v2, 2, d, switches)
                results.append((op, "switch", got))
        for n, d in zip(LADDER, ladder):
            with rec.op("ladder") as op:
                memo = {}
                poly = op.call("skein.conway", v.conway, d, memo=memo)
                results.append((op, "ladder", (n, d, poly, len(memo))))
        for m in CHORD_DEGREES:
            with rec.op("enumerate") as op:
                results.append((op, "enumerate", (m, op.call("chords.enumerate", v.enumerate_diagrams, m))))
        for m in FOUR_TERM_DEGREES:
            with rec.op("four_term") as op:
                results.append((op, "four_term", (m, op.call("chords.four_term", v.four_term_relations, m))))
        for alg in algebras:
            for m in LIE_DEGREES:
                with rec.op("weights") as op:
                    results.append((op, "weights", op.call("lie.weight_system", v.weight_system, alg, m)))
            for m in LIE_4T_DEGREES:
                with rec.op("lie_4t") as op:
                    got = op.call("lie.four_term_check", v.satisfies_4T, lambda dg, a=alg: v.weight(a, dg), m)
                    results.append((op, "lie_4t", (alg.name, m, got)))
    wall_s = time.perf_counter() - t0

    counts = dict.fromkeys(
        ("codes.crossings", "skein.v2_calls", "skein.switches", "skein.ladder_memo_entries",
         "chords.diagrams", "chords.relations", "lie.weights"), 0)
    v2_values = []
    for op, kind, got in results:
        if kind == "knot":
            text, copy, keys, (a, b) = got
            op.check(copy.to_gauss() == text, "Gauss round trip changed the code")
            op.check(keys[0] == keys[1], "canonical key changed under relabelling and rotation")
            op.check(a == b, f"v2 {a} differs from its mirror's {b}")
            counts["codes.crossings"] += copy.n_crossings
            counts["skein.v2_calls"] += 2
            v2_values.append(a)
        elif kind == "switch":
            ok, max_dev, details = got
            op.check(ok and max_dev == 0, f"v2 moved under a crossing switch by {max_dev}")
            counts["skein.switches"] += len(details)
        elif kind == "ladder":
            n, d, poly, memo_entries = got
            op.check(dict(poly.items()) == torus_conway(n), f"conway T(2,{n}) = {poly}")
            op.check(d.n_components == 2 - n % 2, f"T(2,{n}) has {d.n_components} components")
            counts["skein.ladder_memo_entries"] += memo_entries
        elif kind == "enumerate":
            m, (diagrams, raw) = got
            op.check(raw == math.prod(range(1, 2 * m, 2)), f"degree {m}: {raw} raw matchings")
            op.check(len(diagrams) == CANONICAL_COUNTS[m], f"degree {m}: {len(diagrams)} classes")
            counts["chords.diagrams"] += len(diagrams)
        elif kind == "four_term":
            counts["chords.relations"] += len(got[1])
        elif kind == "weights":
            counts["lie.weights"] += len(got)
        elif kind == "lie_4t":
            name, m, (ok, counterexample) = got
            op.check(ok, f"{name} degree {m} violates 4T: {counterexample}")

    digest = hashlib.sha256(json.dumps(v2_values).encode()).hexdigest()
    with rec.op("v2_digest") as op:  # v2 does not see the labels, so this holds for every seed
        op.check(digest == load_reference()["exact"]["v2_digest"], f"v2 digest {digest}")
    return {"wall_s": wall_s, "sample_s": sample_s, "counts": counts,
            "observed": {"v2_digest": digest}}


def _table_json(table):
    return {str(d): [c.value.real, c.value.imag, c.error] for d, c in table.items()}


def _close(a, b):
    return abs(a - b) <= DEG3_RTOL * max(1.0, abs(b))


def integrals_pass(v, rec):
    from vassiliev.fixtures import PLAT_FIXTURES
    from vassiliev.kontsevich import enumerate_placements

    quad = v.QuadratureSpec()
    crossed = v.ChordDiagram(((0, 2), (1, 3)))
    # Combinatorial truth from each plat fixture's shadow diagram.
    shadows = {name: PLAT_FIXTURES[name]()[1] for name in PLAT_FIXTURES}
    skein_v2 = {"round_circle": 0}
    skein_v2.update({n: v.v2(shadows[n]) for n in KNOT_FIXTURES if n in shadows})
    links = {"split": 0}
    links.update({n: v.linking_matrix_total(shadows[n]) for n in LINK_FIXTURES if n in shadows})

    mks, linking, deg2, deg3 = {}, {}, {}, {}
    ops = {}
    t0 = time.perf_counter()
    with rec.span("solve"):
        for name in v.ALL_FIXTURE_NAMES:
            with rec.op("load") as op:
                curve = op.call("fixtures.load", v.load_fixture, name)
            with rec.op("embed") as op:
                mks[name] = op.call("morse.embed", v.morse_embed, curve)
        for name in LINK_FIXTURES:
            with rec.op("linking") as op:
                ops["link", name] = op
                linking[name] = op.call("kontsevich.linking", v.linking_number, mks[name], quad)
        for name in KNOT_FIXTURES:
            with rec.op("deg2") as op:
                raw = op.call("kontsevich.deg2", v.degree_coefficients, mks[name], 2, quad)
            with rec.op("hump2") as op:
                ops[2, name] = op
                deg2[name] = op.call("kontsevich.hump", v.hump_normalize, raw, mks[name])
        for name in DEG3_FIXTURES:
            with rec.op("deg3") as op:
                ops[3, name] = op
                raw = op.call("kontsevich.deg3", v.degree_coefficients, mks[name], 3, quad)
            with rec.op("hump3") as op:
                deg3[name] = (raw, op.call("kontsevich.hump", v.hump_normalize, raw, mks[name]))
    wall_s = time.perf_counter() - t0

    reference = load_reference()["integrals"]["deg3"]
    for name, res in linking.items():
        ops["link", name].check(abs(res.value - links[name]) < LINKING_TOL,
                                f"{name} linking {res.value} != {links[name]}")
    gaps, errors = [], []
    if "round_circle" in deg2:
        circle = deg2["round_circle"].value(crossed)
        for name, table in deg2.items():
            gap = abs((table.value(crossed) - circle) - skein_v2[name])
            ops[2, name].check(gap < V2_TOL, f"{name} v2 gap {gap}")
            gaps.append(gap)
            errors.append(table.error(crossed))
    observed = {}
    for name, (raw, corrected) in deg3.items():
        observed[name] = {"raw": _table_json(raw), "corrected": _table_json(corrected)}
        for kind, got in observed[name].items():
            want = reference.get(name, {}).get(kind, {})
            op = ops[3, name]
            op.check(set(got) == set(want), f"{name} {kind} degree-3 diagrams differ")
            for diagram in set(got) & set(want):
                op.check(
                    all(_close(a, b) for a, b in zip(got[diagram], want[diagram])),
                    f"{name} {kind} {diagram}: {got[diagram]} != {want[diagram]}")

    counts = {"morse.slabs": sum(len(mk.slabs) for mk in mks.values()),
              "morse.strands": sum(len(mk.strands) for mk in mks.values())}
    placements = {"linking": sum(p.cross_component for n in linking for p in enumerate_placements(mks[n], 1))}
    placements["deg2"] = sum(len(enumerate_placements(mks[n], 2)) for n in deg2)
    placements["deg3"] = sum(len(enumerate_placements(mks[n], 3)) for n in deg3)
    counts["kontsevich.placements"] = sum(placements.values())
    # computed, not measured: every placement at every clip level and both step counts
    counts["kontsevich.quad_points"] = counts["kontsevich.placements"] * quad.levels * (
        quad.steps + quad.steps // 2)
    return {"wall_s": wall_s, "counts": counts, "placements": placements,
            "v2_gap": max(gaps, default=float("nan")),
            "error_max": max(errors, default=float("nan")), "observed": observed}


def cli_main(rec, cls, argv):
    """Time the first main(argv) call in this process, stdout captured."""
    import vassiliev.cli

    out = io.StringIO()
    t0 = time.perf_counter()
    with rec.span(f"cli.{cls}_main"), contextlib.redirect_stdout(out):
        rc = vassiliev.cli.main(argv)
    return {"main_s": time.perf_counter() - t0, "rc": rc, "stdout": out.getvalue()}


def main():
    kind, seed, trace = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1"
    t0 = time.perf_counter()
    import vassiliev as v

    import_s = time.perf_counter() - t0
    rec = Recorder(f"{kind}-seed{seed}-pid{os.getpid()}", trace)
    out = {"kind": kind, "import_s": import_s}
    if kind == "exact":
        out.update(exact_pass(v, seed, rec))
    elif kind == "integrals":
        out.update(integrals_pass(v, rec))
    elif kind == "cli-main":
        out.update(cli_main(rec, sys.argv[4], json.loads(sys.argv[5])))
    elif kind != "import":
        raise SystemExit(f"unknown pass kind {kind!r}")
    out["ops"] = [op.to_json() for op in rec.ops]
    out["spans"] = rec.spans
    json.dump(out, sys.stdout)


if __name__ == "__main__":
    main()
