"""Command-line front end.

Each subcommand reads diagram codes or sampled-curve JSON, calls into
the library, and writes a single JSON document to stdout or to
--output.  Failures are reported as a machine-readable JSON document
{"error": {module, message[, position]}} on stderr with exit status 3;
argparse usage errors keep their conventional status 2.

Diagram inputs are a path to a file, or the literal text of a Gauss
code, a PD code, or a diagram JSON document; load_diagram decides
which.  COMMANDS declares each subcommand once: its help line, its
arguments, handler, output schema and error tag; build_parser and run
read every subcommand from it.  Each handler imports the layers it
uses, so a command loads only its own.
"""

import argparse
import json
import os
import re
import sys
from collections import namedtuple


def load_schema(name):
    """One of the shipped JSON schemas by short name ('v2', 'error', ...)."""
    from importlib import resources

    ref = resources.files("vassiliev.schemas").joinpath(f"{name}.schema.json")
    return json.loads(ref.read_text())


_PD_HEAD = re.compile(r"[XV]\s*\(")  # how a PD entry opens in parse_pd's grammar


def load_diagram(text):
    """Diagram from a path or literal Gauss / PD / JSON text.

    An existing file wins; text that opens with a Gauss token, the
    Gauss component separator ";", a PD entry or "{" is code; anything
    else is read as a path.
    """
    from .codes import _GAUSS_TOKEN, ParseError, SingularDiagram, parse_gauss, parse_pd

    s = text.strip()
    head = _GAUSS_TOKEN.match(s)
    is_code = (head and head.group(1)) or _PD_HEAD.match(s) or s.startswith((";", "{"))
    if s and (os.path.exists(s) or not is_code):
        with open(s) as fh:
            s = fh.read().strip()
    if s.startswith("{"):
        try:
            data = json.loads(s)
        except json.JSONDecodeError as exc:
            raise ParseError(f"diagram JSON does not decode: {exc.msg}", exc.pos) from None
        return SingularDiagram.from_json_dict(data)
    if _PD_HEAD.search(s):
        return parse_pd(s)
    return parse_gauss(s)


def _quadrature_from(args):
    from .kontsevich import QuadratureSpec

    return QuadratureSpec(args.steps) if hasattr(args, "steps") else QuadratureSpec()


# ---------------------------------------------------------------- handlers


def _run_parse(args):
    from .codes import DiagramError

    d = load_diagram(args.input)
    out = {
        "diagram": d.to_json_dict(),
        "n_components": d.n_components,
        "n_crossings": d.n_crossings,
        "n_nodes": d.n_nodes,
        "writhe": d.writhe,
    }
    try:
        out["gauss"] = d.to_gauss()
    except DiagramError:
        pass
    try:
        out["pd"] = d.to_pd()
    except DiagramError:
        pass
    return out


def _run_conway(args):
    from .skein import conway

    d = load_diagram(args.input)
    p = conway(d)
    return {
        "coefficients": p.to_dict(),
        "text": str(p),
        "n_components": d.n_components,
    }


def _run_v2(args):
    from .codes import DiagramError
    from .skein import v2

    d = load_diagram(args.input)
    # The library's v2 skips this face walk; outside input gets it here.
    if not d.is_planar():
        raise DiagramError("v2 needs a planar code; on a virtual one it depends on the basepoint")
    return {"v2": v2(d)}


def _run_vassiliev_eval(args):
    from .skein import conway, extend_invariant

    d = load_diagram(args.input)
    p = extend_invariant(conway, args.a, args.b, args.c)(d)
    return {
        "a": args.a,
        "b": args.b,
        "c": args.c,
        "n_nodes": d.n_nodes,
        "coefficients": p.to_dict(),
        "text": str(p),
    }


def _run_chords(args):
    from .chords import enumerate_diagrams, four_term_relations, raw_matchings

    m = args.degree
    if m > 6:
        raise ValueError("chords lists raw matchings and relations; degree capped at 6")
    if args.action == "enumerate":
        matchings = list(raw_matchings(m))
        canonical, raw_count = enumerate_diagrams(m)
        return {
            "action": "enumerate",
            "degree": m,
            "raw_count": raw_count,
            "raw_matchings": [
                ",".join(f"{a}-{b}" for a, b in mt) or "(empty)" for mt in matchings
            ],
            "canonical_count": len(canonical),
            "canonical": [str(d) for d in canonical],
        }
    relations = four_term_relations(m)
    return {
        "action": "4t",
        "degree": m,
        "n_relations": len(relations),
        "relations": [
            [{"sign": s, "diagram": str(d)} for s, d in rel] for rel in relations
        ],
    }


_ALGEBRAS = ("su2", *(f"gl{n}" for n in range(1, 7)))


def _algebra_from_name(name):
    from .lie import gl_fundamental, su2_fundamental

    if name not in _ALGEBRAS:
        raise ValueError(f"unknown algebra {name!r}; use one of {', '.join(_ALGEBRAS)}")
    return su2_fundamental() if name == "su2" else gl_fundamental(int(name[2:]))


def _run_weights(args):
    from .chords import satisfies_4T
    from .lie import weight_system

    if args.degree > 6:
        raise ValueError("weights tabulates every canonical diagram; degree capped at 6")
    algebra = _algebra_from_name(args.algebra)
    table = weight_system(algebra, args.degree)
    ok, counterexample = satisfies_4T(table.__getitem__, args.degree)  # an exact proof
    if not ok:
        relation, total = counterexample
        terms = " ".join(f"{'+' if s > 0 else '-'} w({d})" for s, d in relation)
        raise ValueError(f"{algebra.name} weights violate the 4T relation {terms} = {total}")
    return {
        "algebra": algebra.name,
        "degree": args.degree,
        "four_term_ok": True,
        "weights": [{"diagram": str(d), "weight": str(w)} for d, w in sorted(table.items())],
    }


def _run_kontsevich(args):
    from .kontsevich import degree_coefficients, hump_normalize
    from .morse import curve_from_json, morse_embed

    mk = morse_embed(curve_from_json(args.input))
    table = degree_coefficients(mk, args.degree, _quadrature_from(args))
    normalized = not args.raw
    if normalized:
        table = hump_normalize(table, mk)
    out = {"normalized": normalized, **table.to_json_dict()}
    out["embedding"] = {
        "n_components": mk.n_components,
        "n_maxima": mk.n_maxima,
        "margin": float(mk.embedding_margin),
        "notes": list(mk.notes),
    }
    return out


def _run_compare(args):
    from dataclasses import asdict

    from .chords import ChordDiagram
    from .kontsevich import degree_coefficients, hump_normalize
    from .lie import su2_fundamental, weight
    from .morse import curve_from_json, morse_embed
    from .skein import conway, v2

    components = curve_from_json(args.curve)  # a missing file fails before the skein work
    d = load_diagram(args.code)
    skein_value = v2(d)
    nabla = conway(d)

    mk = morse_embed(components)
    quadrature = _quadrature_from(args)
    table = hump_normalize(degree_coefficients(mk, 2, quadrature), mk)
    crossed = ChordDiagram(((0, 2), (1, 3)))
    # A class no placement induces (one maximum) is exactly 0 with bar 0.
    integral, error, coeff = table.value(crossed), table.error(crossed), table.coefficient(crossed)

    su2 = su2_fundamental()
    pairing = sum(weight(su2, dg) * table.value(dg) for dg in table.diagrams())
    difference = abs(integral - skein_value)
    return {
        "degree": 2,
        "skein": {"v2": skein_value, "conway": str(nabla)},
        "integral": {
            "crossed_re": integral.real,
            "crossed_im": integral.imag,
            "error": error,
            "converged": coeff is None or bool(coeff.converged),
        },
        "weight_pairing": {
            "algebra": "su2",
            "value_re": pairing.real,
            "value_im": pairing.imag,
            "crossed_weight": str(weight(su2, crossed)),
        },
        "difference": difference,
        "within_tolerance": bool(difference <= error),
        "quadrature": asdict(quadrature),
        "n_maxima": mk.n_maxima,
    }


# ---------------------------------------------------------------- registry


def _arg(*flags, **options):
    """One add_argument call, kept as (flags, options)."""
    return flags, options


_INPUT = _arg("input")

# Omitted, --steps takes QuadratureSpec's default, read only when the
# handler runs, so building the parser never imports kontsevich.
_STEPS = _arg("--steps", type=int, default=argparse.SUPPRESS,
              help="quadrature steps per slab (default: QuadratureSpec().steps)")

# Every subcommand ends with this; omitted, it keeps its value from before the subcommand.
_COMMON = (
    _arg("--output", default=argparse.SUPPRESS,
         help="write the document to this file instead of stdout"),
)


# One subcommand, declared once:
#   help       its line in `vassiliev --help`
#   arguments  its add_argument calls in order, as (flags, options)
#   handler    parsed arguments -> JSON payload; run adds the "command" key
#   schema     shipped schema file that validates the JSON payload
#   error_tag  module tag for errors whose type lives outside this package
Command = namedtuple("Command", "help arguments handler schema error_tag")


COMMANDS = {
    "parse": Command("parse a Gauss / PD / JSON diagram and echo it",
                     (_arg("input", help="path or literal code text"),),
                     _run_parse, "parse", "codes"),
    "conway": Command("Conway polynomial of a diagram", (_INPUT,),
                      _run_conway, "polynomial", "skein"),
    "v2": Command("degree-2 Vassiliev invariant of a knot diagram", (_INPUT,),
                  _run_v2, "v2", "skein"),
    "vassiliev-eval": Command(
        "resolve every node by a*positive + b*negative + c*smooth, then Conway",
        (_INPUT, _arg("--a", type=int, default=1), _arg("--b", type=int, default=-1),
         _arg("--c", type=int, default=0)),
        _run_vassiliev_eval, "polynomial", "skein"),
    "chords": Command("chord diagram enumeration and 4T relations",
                      (_arg("action", choices=("enumerate", "4t")), _arg("degree", type=int)),
                      _run_chords, "chords", "chords"),
    "weights": Command("Lie-algebra weight table for one degree",
                       (_arg("--algebra", required=True, help="su2 or glN with N <= 6"),
                        _arg("--degree", type=int, required=True)),
                       _run_weights, "weights", "lie"),
    "kontsevich": Command(
        "numerical coefficient table of a sampled curve",
        (_arg("input", help="curve JSON file"), _arg("--degree", type=int, default=2),
         _arg("--raw", action="store_true", help="skip the hump normalization, emit raw integrals"),
         _STEPS),
        _run_kontsevich, "coefficients", "kontsevich"),
    "compare": Command(
        "cross-validate degree 2: curve integral against skein v2 within the integral's bar",
        (_arg("curve", help="curve JSON file"), _arg("code", help="diagram code for the same knot"),
         _STEPS),
        _run_compare, "compare", "kontsevich"),
}


def run(args):
    """Execute one parsed invocation; returns the exit status."""
    payload = {"command": args.subcommand, **COMMANDS[args.subcommand].handler(args)}
    text = json.dumps(payload, indent=2) + "\n"
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ---------------------------------------------------------------- argparse


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vassiliev",
        description="Finite-type invariants from codes, chord diagrams and curve integrals.",
    )
    parser.add_argument("--output", default=None)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, command in COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flags, options in command.arguments + _COMMON:
            sub.add_argument(*flags, **options)
    return parser


def _error_payload(exc, default_tag):
    mod = type(exc).__module__ or ""
    if mod.startswith("vassiliev."):
        tag = mod.split(".", 1)[1]
    elif isinstance(exc, OSError):
        tag = "cli"  # file plumbing, not a library failure
    else:
        tag = default_tag
    err = {"module": tag, "message": str(exc)}
    position = getattr(exc, "position", None)
    if position is not None:
        err["position"] = position
    return {"error": err}


def main(argv=None):
    # Read once, as a handler first imports numpy: starting OpenBLAS's thread
    # pool costs a fresh command more than its products gain.  A set value wins.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code
    try:
        return run(args)
    except Exception as exc:
        payload = _error_payload(exc, COMMANDS[args.subcommand].error_tag)
        sys.stderr.write(json.dumps(payload, indent=2) + "\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
