"""End-to-end tests of the command-line front end.

Every subcommand runs in-process through cli.main; JSON outputs are
validated against the shipped schemas with jsonschema.  One test imports
the package in a fresh interpreter to see what the import costs.
"""

import csv
import dataclasses
import importlib.resources
import io
import json
import os
import re
import subprocess
import sys
import time

import jsonschema
import numpy as np
import pytest

import vassiliev
from vassiliev import cli, lie
from vassiliev.chords import ChordDiagram
from vassiliev.codes import braid_closure, parse_gauss
from vassiliev.fixtures import plat
from vassiliev.lie import weight_system
from vassiliev.morse import EmbeddingError, curve_from_json, curve_to_json
from vassiliev.skein import conway

TREFOIL = "O1+U2+O3+U1+O2+U3+"
FIGURE_EIGHT = "O1+U2+O3-U4-O2+U1+O4-U3-"
# a node in place of one trefoil crossing, as braid_closure([("node", 1), 1, 1])
NODE_TREFOIL = '{"components": [["P0", "U1", "O2", "Q0", "O1", "U2"]], "signs": {"1": 1, "2": 1}}'


def run_json(capsys, argv):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    assert status == 0, err
    payload = json.loads(out)
    schema = cli.load_schema(cli.COMMANDS[payload["command"]].schema)
    jsonschema.validate(payload, schema)
    return payload


def run_error(capsys, argv):
    status = cli.main(argv)
    out, err = capsys.readouterr()
    assert status == 3
    payload = json.loads(err)
    jsonschema.validate(payload, cli.load_schema("error"))
    return payload["error"]


def curve_file(tmp_path, name):
    res = importlib.resources.files("vassiliev.data").joinpath(f"{name}.json")
    p = tmp_path / f"{name}.curve.json"
    p.write_text(res.read_text())
    return str(p)


def test_v2_literal_gauss(capsys):
    payload = run_json(capsys, ["v2", TREFOIL])
    assert payload["v2"] == 1


def test_v2_figure_eight(capsys):
    assert run_json(capsys, ["v2", FIGURE_EIGHT])["v2"] == -1


def test_v2_of_a_large_torus_knot_and_of_a_virtual_code(capsys):
    # T(2,201) passes its crossings 1..201 twice, alternately over and under.
    t_2_201 = "".join(f"{'OU'[k % 2]}{k % 201 + 1}+" for k in range(402))
    assert parse_gauss(t_2_201) == braid_closure([1] * 201)
    assert run_json(capsys, ["v2", t_2_201])["v2"] == 5050
    err = run_error(capsys, ["v2", "O1-O2-U1-U2-"])
    assert err["module"] == "codes" and "virtual" in err["message"]


def test_conway_and_compare_refuse_a_virtual_code(tmp_path, capsys):
    curve = curve_file(tmp_path, "trefoil_2max")
    for argv in (["conway", "O1-O2-U1-U2-"], ["compare", curve, "O1-O2-U1-U2-"]):
        err = run_error(capsys, argv)
        assert err["module"] == "codes" and "virtual" in err["message"], argv


def test_conway_from_file(tmp_path, capsys):
    p = tmp_path / "knot.gauss"
    p.write_text(TREFOIL + "\n")
    payload = run_json(capsys, ["conway", str(p)])
    assert payload["coefficients"] == {"0": 1, "2": 1}
    assert payload["text"] == "1 + z^2"


def test_parse_pd_and_json_agree(capsys):
    pd = "X(1,5,2,4) X(3,1,4,6) X(5,3,6,2)"
    first = run_json(capsys, ["parse", pd])
    assert first["n_crossings"] == 3
    assert first["writhe"] == 3
    second = run_json(capsys, ["parse", json.dumps(first["diagram"])])
    assert second["diagram"] == first["diagram"]


def test_vassiliev_eval_matches_exchange(capsys):
    payload = run_json(capsys, ["vassiliev-eval", NODE_TREFOIL])
    d = braid_closure([("node", 1), 1, 1])
    assert d.to_json_dict() == json.loads(NODE_TREFOIL) | {"format": "singular-diagram"}
    expected = conway(d.resolve_node(0, "positive")) - conway(d.resolve_node(0, "negative"))
    assert payload["coefficients"] == {str(e): c for e, c in expected.items()} == {"2": 1}
    # Both resolutions of this node are virtual codes.
    node = {"components": [["P1", "O2", "Q1", "U2"]], "signs": {"2": 1}}
    err = run_error(capsys, ["vassiliev-eval", json.dumps(node)])
    assert err["module"] == "codes" and "virtual" in err["message"]


def test_vassiliev_eval_refuses_oversized_work(capsys):
    twenty = braid_closure([("node", 1)] * 20 + [1]).to_json_dict()
    start = time.perf_counter()
    err = run_error(capsys, ["vassiliev-eval", json.dumps(twenty)])
    assert time.perf_counter() - start < 1.0
    assert err["module"] == "skein"
    assert "2^20 resolutions, past the bound 4,096" in err["message"]


def test_chords_enumerate(capsys):
    payload = run_json(capsys, ["chords", "enumerate", "2"])
    assert payload["raw_count"] == 3
    assert len(payload["raw_matchings"]) == 3
    assert payload["canonical_count"] == 2


def test_chords_4t(capsys):
    payload = run_json(capsys, ["chords", "4t", "2"])
    assert payload["n_relations"] >= 1
    for rel in payload["relations"]:
        assert len(rel) == 4
        assert sorted(t["sign"] for t in rel) == [-1, -1, 1, 1]


def test_chords_degree_capped(capsys):
    for action in ("enumerate", "4t"):
        err = run_error(capsys, ["chords", action, "7"])
        assert err["module"] == "chords"


def test_weights_su2_degree2(capsys):
    payload = run_json(capsys, ["weights", "--algebra", "su2", "--degree", "2"])
    assert sorted(w["weight"] for w in payload["weights"]) == ["-3/8", "9/8"]
    assert payload["four_term_ok"] is True


def test_weights_refuses_a_table_that_violates_4T(monkeypatch, capsys):
    # degree 2's one relation is formally trivial, so break degree 3
    def broken(algebra, m):
        table = weight_system(algebra, m)
        table[ChordDiagram(((0, 3), (1, 4), (2, 5)))] += 1
        return table

    monkeypatch.setattr(lie, "weight_system", broken)  # the handler imports it on each call
    err = run_error(capsys, ["weights", "--algebra", "su2", "--degree", "3"])
    assert err["module"] == "lie"
    assert err["message"].endswith(
        "4T relation + w(0-1,2-4,3-5) - w(0-2,1-4,3-5) + w(0-3,1-4,2-5) - w(0-2,1-4,3-5) = 1")


def test_weights_gl3(capsys):
    payload = run_json(capsys, ["weights", "--algebra", "gl3", "--degree", "1"])
    assert payload["algebra"] == "gl3"
    assert [w["weight"] for w in payload["weights"]] == ["9/2"]


def test_kontsevich_raw_circle(tmp_path, capsys):
    path = curve_file(tmp_path, "round_circle")
    payload = run_json(capsys, ["kontsevich", path, "--degree", "1", "--raw"])
    assert payload["normalized"] is False
    row = payload["coefficients"][0]
    assert abs(row["value_re"]) < 1e-6 and abs(row["value_im"]) < 1e-6
    assert payload["quadrature"] == dataclasses.asdict(vassiliev.QuadratureSpec())
    payload = run_json(capsys, ["kontsevich", path, "--degree", "1", "--raw", "--steps", "500"])
    assert payload["quadrature"] == {"steps": 500}
    # the number of clip widths is not a setting, so the flag is unknown
    assert cli.main(["kontsevich", path, "--degree", "1", "--levels", "4"]) == 2


def test_kontsevich_normalized_hump(tmp_path, capsys):
    path = curve_file(tmp_path, "hump")
    payload = run_json(capsys, ["kontsevich", path, "--degree", "2"])
    assert payload["normalized"] is True
    assert payload["n_maxima"] == 2
    crossed = [r for r in payload["coefficients"] if r["diagram"] == "0-2,1-3"]
    assert crossed and abs(crossed[0]["value_re"]) < 5e-3


def test_compare_trefoil(tmp_path, capsys):
    path = curve_file(tmp_path, "trefoil_2max")
    payload = run_json(capsys, ["compare", path, TREFOIL])
    assert payload["skein"]["v2"] == 1
    assert payload["weight_pairing"]["crossed_weight"] == "-3/8"
    assert payload["within_tolerance"] is True
    assert payload["difference"] <= payload["integral"]["error"]


def compare_json(capsys, tmp_path, name, code, *flags):
    """compare's payload, with its verdict checked against its own error bar."""
    payload = run_json(capsys, ["compare", curve_file(tmp_path, name), code, *flags])
    assert payload["within_tolerance"] == (payload["difference"] <= payload["integral"]["error"])
    return payload


@pytest.mark.parametrize("flags", [(), ("--steps", "1000")], ids=["default", "1000-steps"])
@pytest.mark.parametrize("name, code", [("trefoil_2max", TREFOIL), ("trefoil_3max", TREFOIL),
                                        ("figure_eight", FIGURE_EIGHT)])
def test_compare_knot_fixtures_agree_within_the_bar(name, code, flags, tmp_path, capsys):
    assert compare_json(capsys, tmp_path, name, code, *flags)["within_tolerance"] is True


def test_compare_refuses_the_code_of_another_knot(tmp_path, capsys):
    assert compare_json(capsys, tmp_path, "trefoil_2max", FIGURE_EIGHT)["within_tolerance"] is False


def test_compare_with_one_maximum_needs_an_exact_match(tmp_path, capsys):
    # no placement induces the crossed class, so its value and bar are exactly 0
    payload = compare_json(capsys, tmp_path, "round_circle", "O1+U1+")
    assert payload["integral"]["error"] == 0
    assert payload["within_tolerance"] is True


def test_options_that_set_nothing_are_usage_errors(tmp_path, capsys):
    path = curve_file(tmp_path, "trefoil_2max")
    for argv in (
        ["compare", path, TREFOIL, "--tolerance", "0.05"],
        ["compare", path, TREFOIL, "--degree", "2"],
        ["compare", path, TREFOIL, "--epsilon", "1e-3"],
        ["kontsevich", path, "--epsilon", "1e-3"],
        ["v2", TREFOIL, "--seed", "7"],
        ["--seed", "7", "v2", TREFOIL],
    ):
        assert cli.main(argv) == 2, argv


def test_error_missing_file(capsys):
    for argv in (
        ["conway", "/tmp/definitely-not-here.gauss"],
        ["conway", "missing-file.gauss"],
        ["v2", "knotfile"],
        ["v2", "knot1"],
    ):
        err = run_error(capsys, argv)
        assert err["module"] == "cli"


def test_import_loads_no_scipy_or_sympy():
    src = os.path.dirname(os.path.dirname(vassiliev.__file__))
    code = "import sys, vassiliev; print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'sympy'}))"
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _fresh(argv):
    src = os.path.dirname(os.path.dirname(vassiliev.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done


def test_exact_routes_never_import_numpy():
    code = (
        "import random, sys, vassiliev as v\n"
        "for d in v.sample_singular_diagrams(random.Random(5), 0, 20, one_component=True):\n"
        "    v.conway(d), v.v2(d)\n"
        "assert len(v.weight_system(v.su2_fundamental(), 4)) == 18\n"
        "print('numpy' in sys.modules)"
    )
    assert _fresh(["-c", code]).stdout.strip() == "False"


# What a fresh interpreter imports on the way: -S keeps site hooks from
# loading modules first, and the child reports every module it added.
_NEW_MODULES = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "{}\n"
    "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
)


def _loaded(statement):
    done = _fresh(["-S", "-c", _NEW_MODULES.format(statement)])
    return done.stdout, set(done.stderr.split())


def test_import_loads_no_layer():
    _, new = _loaded("import vassiliev")
    assert {m for m in new if m.startswith("vassiliev")} == {"vassiliev"}
    assert not new & {"re", "fractions", "numpy"}


SKEIN_LAYERS = {"codes", "laurent", "skein"}
LIGHT_COMMAND_LAYERS = {
    "parse": (["parse", TREFOIL], {"codes"}),
    "conway": (["conway", TREFOIL], SKEIN_LAYERS),
    "v2": (["v2", TREFOIL], SKEIN_LAYERS),
    "vassiliev-eval": (["vassiliev-eval", NODE_TREFOIL], SKEIN_LAYERS),
    "chords": (["chords", "4t", "3"], {"codes", "chords"}),
    "weights": (["weights", "--algebra", "su2", "--degree", "3"], {"codes", "chords", "lie"}),
}


@pytest.mark.parametrize("command", sorted(LIGHT_COMMAND_LAYERS))
def test_light_commands_never_import_numpy(command):
    argv, layers = LIGHT_COMMAND_LAYERS[command]
    stdout, new = _loaded(f"from vassiliev.cli import main\nassert main({argv!r}) == 0")
    assert json.loads(stdout)["command"] == command
    assert {m for m in new if m.startswith("vassiliev.")} == {f"vassiliev.{m}" for m in {"cli", *layers}}
    assert ("fractions" in new) == ("chords" in layers)  # Fraction comes in with chords only
    assert not new & {"numpy", "dataclasses", "typing"}


LAYERS = {"laurent", "codes", "skein", "chords", "lie", "morse", "kontsevich", "fixtures"}


def test_layers_resolve_as_attributes_after_a_plain_import():
    code = "import vassiliev\n" + "".join(f"print(vassiliev.{m}.__name__)\n" for m in sorted(LAYERS))
    assert _fresh(["-c", code]).stdout.split() == [f"vassiliev.{m}" for m in sorted(LAYERS)]


# The public API as it stood while the package imported its exact layers
# eagerly; its dir() listed these and `importlib` once every layer had loaded.
PUBLIC_NAMES = {
    "ALL_FIXTURE_NAMES", "ChordDiagram", "ChordPlacement", "CoefficientTable", "DiagramError",
    "EmbeddingError", "ExpectationSeries", "IntegerLaurentPoly", "IntegralResult",
    "LieAlgebraData", "MorseKnot", "ParseError", "PropagatorRule", "QuadratureSpec",
    "SingularDiagram", "Slab", "Strand", "braid_closure", "chord_diagram_of", "conway",
    "curve_from_json", "curve_to_json", "degree_coefficients", "embedding_independence_check",
    "enumerate_diagrams", "enumerate_placements", "expectation_series", "extend_invariant",
    "finite_type_check", "four_term_relations", "gl_fundamental", "hump_normalize",
    "linking_matrix_total", "linking_number", "load_fixture", "morse_embed", "parse_gauss",
    "parse_pd", "plat", "raw_matchings", "round_circle", "sample_singular_diagrams",
    "satisfies_4T", "su2_fundamental", "two_circles", "v2", "vassiliev_eval", "weight",
    "weight_system", "wick_propagator",
}


def test_public_names_and_dir_are_unchanged():
    code = "import vassiliev\nprint(*vassiliev.__all__)\nprint(*dir(vassiliev))"
    names, listed = _fresh(["-c", code]).stdout.splitlines()
    assert set(names.split()) == PUBLIC_NAMES
    assert {n for n in listed.split() if not n.startswith("_")} == PUBLIC_NAMES | LAYERS | {"importlib"}


def test_every_public_name_resolves():
    listed = set(dir(vassiliev))
    for name in vassiliev.__all__:
        assert getattr(vassiliev, name) is not None
        assert name in listed
    with pytest.raises(AttributeError):
        vassiliev.no_such_name


def test_error_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.gauss"
    empty.write_text(" \n")
    for argv in (["conway", ""], ["parse", "  "], ["v2", str(empty)]):
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == {"module": "codes", "message": "empty diagram input"}


def test_code_text_opening_as_the_grammars_allow(capsys):
    # to_gauss writes a first component without crossings as a leading ";"
    payload = run_json(capsys, ["parse", ";" + TREFOIL])
    assert payload["n_components"] == 2
    assert run_json(capsys, ["parse", payload["gauss"]])["gauss"] == payload["gauss"]
    # parse_pd allows space between X and "("
    for pd in ("X (1,5,2,4) X(3,1,4,6) X(5,3,6,2)", "X (1,5,2,4) X (3,1,4,6) X (5,3,6,2)"):
        assert run_json(capsys, ["v2", pd])["v2"] == 1


def test_gauss_text_led_by_whitespace_or_separator_is_code(capsys):
    # load_diagram sniffs with the parser's own token regex
    assert run_json(capsys, ["v2", " \t" + TREFOIL])["v2"] == 1
    for text in (" ;" + TREFOIL, ";  " + TREFOIL, "\n" + TREFOIL + ";"):
        assert run_json(capsys, ["parse", text])["n_components"] == 2


def test_error_parse_has_position(capsys):
    err = run_error(capsys, ["parse", "O1+U2+O3x"])
    assert err["module"] == "codes"
    assert isinstance(err["position"], int)


def test_error_bad_diagram_json_names_the_field(capsys):
    cases = {
        '{"signs": {"1": 1}}': "'components'",
        '{"components": "O1U1"}': "'components'",
        '{"components": [["O1", 7]]}': "bad token 7",
        '{"components": [["O1", "U1"]], "signs": {"x": 1}}': "'x'",
        '{"components": [["O1", "U1"]], "signs": {"1": "up"}}': "'up'",
        '{"components": [["O1", "U1"]], "signs": {"1": 1.7}}': "1.7",
        '{"components": [["O1", "U1"]], "signs": {"1": true}}': "True",
        '{"components": [["O1", "U1"]], "signs": [1]}': "'signs'",
    }
    for text, named in cases.items():
        for argv in (["parse", text], ["v2", text]):
            err = run_error(capsys, argv)
            assert err["module"] == "codes", (argv, err)
            assert named in err["message"], (argv, err)


def test_error_bad_curve_json_names_the_field(tmp_path, capsys):
    sample = {"re": 1.0, "im": 0.0, "t": 0.0}
    cases = {
        json.dumps({"name": "nothing"}): "'components'",
        json.dumps({"components": [sample]}): "'components'",
        json.dumps({"components": [[sample, {"re": 0.0, "im": 1.0}]]}): "'t' field",
        json.dumps({"components": [[{"re": 1.0, "t": 0.0}]]}): "'im' field",
        json.dumps({"components": [[sample, ["re", 0.0]]]}): "sample 1 of curve component 0",
        json.dumps({"components": [[sample], [{"re": "x", "im": 0, "t": 0}]]}):
            "sample 0 of curve component 1",
        json.dumps({"components": [[sample, {"re": "1", "im": 0, "t": 0}]]}):
            "sample 1 of curve component 0 needs numbers 're', 'im' and 't'",
        json.dumps({"components": [[sample, sample, {"re": 1, "im": True, "t": 0}]]}):
            "sample 2 of curve component 0 needs numbers 're', 'im' and 't'",
        json.dumps({"components": [[sample, {"re": 1, "im": 0, "t": None}]]}):
            "sample 1 of curve component 0 needs numbers 're', 'im' and 't'",
    }
    for i, (text, named) in enumerate(cases.items()):
        path = tmp_path / f"bad{i}.curve.json"
        path.write_text(text)
        for argv in (["kontsevich", str(path)], ["kontsevich", text],
                     ["compare", str(path), TREFOIL]):
            err = run_error(capsys, argv)
            assert err["module"] == "morse", (argv, err)
            assert named in err["message"], (argv, err)


def test_error_non_finite_curve_sample_exits_3(tmp_path, capsys):
    # JSON's NaN and Infinity decode to floats; the embedding refuses them
    # instead of printing a NaN value and an infinite margin
    for i, (field, bad) in enumerate([("re", float("nan")), ("im", float("inf")), ("t", float("-inf"))]):
        data = json.loads(importlib.resources.files("vassiliev.data").joinpath("round_circle.json").read_text())
        data["components"][0][7][field] = bad
        path = tmp_path / f"bad{i}.curve.json"
        path.write_text(json.dumps(data))
        err = run_error(capsys, ["kontsevich", str(path), "--degree", "1"])
        assert err["module"] == "morse", err
        assert "sample 7 of component 0 is not finite" in err["message"], err


def test_error_self_crossing_curve_exits_3(tmp_path, capsys):
    # x = sin(2a)/2, t = sin(a) + 0.2 sin(a)^2 in the plane Im z = 0 crosses
    # itself at the origin; it embeds, and the quadrature refuses it
    angles = 2 * np.pi * (np.arange(720) + 1 / np.pi) / 720
    loop = (np.sin(2 * angles) / 2 + 0j, np.sin(angles) + 0.2 * np.sin(angles) ** 2)
    path = tmp_path / "crossing.curve.json"
    path.write_text(json.dumps(curve_to_json([loop])))
    err = run_error(capsys, ["kontsevich", str(path), "--degree", "2"])
    assert err["module"] == "morse", err
    assert re.search(r"strands \d+ and \d+ meet", err["message"]), err


def test_error_undecodable_diagram_json_is_tagged_codes(capsys):
    for argv in (["conway", '{"components": [["O1"'], ["parse", '{"components": [['],
                 ["v2", "{"]):
        err = run_error(capsys, argv)
        assert err["module"] == "codes", (argv, err)
        assert "does not decode" in err["message"], (argv, err)


def test_error_undecodable_curve_json_is_tagged_morse(tmp_path, capsys):
    path = tmp_path / "cut.curve.json"
    path.write_text('{"components": [[')
    for argv in (["kontsevich", '{"components": [['], ["kontsevich", str(path)],
                 ["compare", str(path), TREFOIL]):
        err = run_error(capsys, argv)
        assert err["module"] == "morse", (argv, err)
        assert "does not decode" in err["message"], (argv, err)


def test_error_bad_algebra(capsys):
    # only su2 and gl1..gl6, spelled exactly so: no leading zero, no non-ASCII digit
    for name in ("e8", "gl03", "gl\u0663", "gl7", "gl0"):
        err = run_error(capsys, ["weights", "--algebra", name, "--degree", "2"])
        assert err["module"] == "lie"


def test_parse_refuses_a_sign_other_than_plus_or_minus_one(capsys):
    err = run_error(capsys, ["parse", '{"components": [["O0", "U0"]], "signs": {"0": 2}}'])
    assert err["module"] == "codes"
    assert "crossing 0 has sign 2" in err["message"]


def test_error_degree_out_of_range(tmp_path, capsys):
    path = curve_file(tmp_path, "round_circle")
    cases = [
        (["kontsevich", path, "--degree", "7"], "kontsevich", "degree must be between 0 and 3"),
        (["weights", "--algebra", "su2", "--degree", "7"], "lie", "degree capped at 6"),
    ]
    for argv, module, fragment in cases:
        err = run_error(capsys, argv)
        assert err["module"] == module, (argv, err)
        assert fragment in err["message"], (argv, err)


def test_steps_below_the_floor_exit_3(tmp_path, capsys):
    # both curves integrate at 31 steps; the spec refuses them before any grid is built
    hopf, trefoil = curve_file(tmp_path, "hopf"), curve_file(tmp_path, "trefoil_2max")
    for argv in (["kontsevich", hopf], ["compare", trefoil, TREFOIL]):
        err = run_error(capsys, argv + ["--steps", "31"])
        assert err == {"module": "kontsevich", "message": "steps must be at least 32"}, argv


def test_kontsevich_refuses_oversized_work(tmp_path, capsys):
    path = curve_file(tmp_path, "round_circle")
    err = run_error(capsys, ["kontsevich", path, "--degree", "1", "--steps", str(10**8)])
    assert err["module"] == "kontsevich"
    assert "100,000,000 pair-steps exceeds the bound" in err["message"]
    lanes = tuple((i, i + 1) for i in range(0, 12, 2))
    components = plat(tuple(i % 11 + 1 for i in range(12)), 12, lanes, lanes)[0]
    path = tmp_path / "twelve_lanes.json"
    path.write_text(json.dumps(curve_to_json(components)))
    err = run_error(capsys, ["kontsevich", str(path), "--degree", "3", "--raw"])
    assert err["module"] == "kontsevich"
    assert "4,313,558 degree-3 placements exceed the bound" in err["message"]


def test_usage_error_exit_2(capsys):
    assert cli.main(["bogus-subcommand"]) == 2
    assert cli.main([]) == 2
    assert cli.main(["v2", TREFOIL, "--format", "xml"]) == 2


def test_csv_conway(capsys):
    status = cli.main(["conway", TREFOIL, "--format", "csv"])
    out, _ = capsys.readouterr()
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["exponent", "coefficient"]
    assert ["0", "1"] in rows and ["2", "1"] in rows


def test_csv_kontsevich_quotes_diagrams(tmp_path, capsys):
    path = curve_file(tmp_path, "round_circle")
    status = cli.main(["kontsevich", path, "--degree", "2", "--raw", "--format", "csv"])
    out, _ = capsys.readouterr()
    assert status == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0][0] == "diagram"
    # the parallel diagram's name contains a comma; csv must keep it one field
    assert any(r[0] == "0-1,2-3" for r in rows[1:])


# (arguments, CSV header, data rows the JSON payload implies); curves are fixture names
CSV_CASES = {
    "parse": (["parse", TREFOIL], ["component", "position", "kind", "id", "sign"],
              lambda p: sum(map(len, p["diagram"]["components"]))),
    "conway": (["conway", TREFOIL], ["exponent", "coefficient"], lambda p: len(p["coefficients"])),
    "v2": (["v2", TREFOIL], ["v2"], lambda p: 1),
    "vassiliev-eval": (["vassiliev-eval", NODE_TREFOIL], ["exponent", "coefficient"],
                       lambda p: len(p["coefficients"])),
    "chords-enumerate": (["chords", "enumerate", "3"], ["index", "matching"],
                         lambda p: len(p["raw_matchings"])),
    "chords-4t": (["chords", "4t", "3"], ["relation", "term", "sign", "diagram"],
                  lambda p: sum(map(len, p["relations"]))),
    "weights": (["weights", "--algebra", "su2", "--degree", "3"], ["diagram", "weight"],
                lambda p: len(p["weights"])),
    "kontsevich": (["kontsevich", "@round_circle", "--degree", "2", "--raw"],
                   ["diagram", "value_re", "value_im", "error", "converged", "log_divergent"],
                   lambda p: len(p["coefficients"])),
    "compare": (["compare", "@trefoil_2max", TREFOIL], ["key", "value"], lambda p: 6),
}


def test_csv_cases_cover_every_command():
    assert {argv[0] for argv, _, _ in CSV_CASES.values()} == set(cli.COMMANDS)


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_csv_rows_match_the_json_payload(case, tmp_path, capsys):
    argv, header, count = CSV_CASES[case]
    argv = [curve_file(tmp_path, a[1:]) if a.startswith("@") else a for a in argv]
    payload = run_json(capsys, argv)
    assert cli.main(argv + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == header
    assert len(rows) - 1 == count(payload) > 0
    assert all(len(row) == len(header) for row in rows)


def test_output_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    status = cli.main(["v2", TREFOIL, "--output", str(target)])
    out, _ = capsys.readouterr()
    assert status == 0
    assert out == ""
    assert json.loads(target.read_text())["v2"] == 1


def test_global_flags_before_subcommand(capsys):
    status = cli.main(["--format", "csv", "v2", TREFOIL])
    out, _ = capsys.readouterr()
    assert status == 0
    assert out.splitlines()[0] == "v2"


# One minimal argv per subcommand, the namespace it parses to beyond the
# global defaults, and the options its --help page lists before the common
# two.  An omitted --steps leaves no key, so QuadratureSpec's default
# applies.
GLOBAL_DEFAULTS = {"output": None, "fmt": "json"}
PARSER_CASES = {
    "parse": (["parse", "X"], {"input": "X"}, ()),
    "conway": (["conway", "X"], {"input": "X"}, ()),
    "v2": (["v2", "X"], {"input": "X"}, ()),
    "vassiliev-eval": (["vassiliev-eval", "X"], {"input": "X", "a": 1, "b": -1, "c": 0},
                       ("--a", "--b", "--c")),
    "chords": (["chords", "4t", "3"], {"action": "4t", "degree": 3}, ()),
    "weights": (["weights", "--algebra", "su2", "--degree", "2"], {"algebra": "su2", "degree": 2},
                ("--algebra", "--degree")),
    "kontsevich": (["kontsevich", "c.json"], {"input": "c.json", "degree": 2, "raw": False},
                   ("--degree", "--raw", "--steps")),
    "compare": (["compare", "c.json", "X"],
                {"curve": "c.json", "code": "X"}, ("--steps",)),
}


def test_parser_cases_cover_every_command():
    assert set(PARSER_CASES) == set(cli.COMMANDS)


@pytest.mark.parametrize("name", sorted(PARSER_CASES))
def test_parser_dests_defaults_and_help(name, capsys):
    argv, parsed, options = PARSER_CASES[name]
    assert vars(cli.build_parser().parse_args(argv)) == {**GLOBAL_DEFAULTS, "subcommand": name, **parsed}
    declared = [f for flags, _ in cli.COMMANDS[name].arguments for f in flags if f.startswith("-")]
    assert declared == list(options)
    assert cli.main([name, "--help"]) == 0
    page = capsys.readouterr().out
    for option in (*options, "--output", "--format"):
        assert re.search(rf"{option}\b", page), option


def test_shipped_curves_validate(tmp_path):
    schema = cli.load_schema("curve")
    from vassiliev.fixtures import ALL_FIXTURE_NAMES

    for name in ALL_FIXTURE_NAMES:
        res = importlib.resources.files("vassiliev.data").joinpath(f"{name}.json")
        jsonschema.validate(json.loads(res.read_text()), schema)


def test_curve_reader_refuses_what_the_curve_schema_refuses():
    # a coordinate is a JSON number: an integer passes both, and a
    # string, a boolean or null fails both
    schema = cli.load_schema("curve")
    text = importlib.resources.files("vassiliev.data").joinpath("round_circle.json").read_text()
    for field in ("re", "im", "t"):
        for value, valid in ((1, True), ("1", False), (True, False), (None, False)):
            data = json.loads(text)
            data["components"][0][3][field] = value
            if valid:
                jsonschema.validate(data, schema)
                ((z, t),) = curve_from_json(data)
                assert (z[3].real, z[3].imag, t[3])[("re", "im", "t").index(field)] == 1.0
                continue
            with pytest.raises(jsonschema.ValidationError):
                jsonschema.validate(data, schema)
            with pytest.raises(EmbeddingError, match="sample 3 of curve component 0 needs numbers"):
                curve_from_json(data)


def test_parse_omits_forms_that_cannot_express_the_diagram(capsys):
    # Gauss text cannot carry a node; PD text cannot carry a crossingless circle
    node = {"format": "singular-diagram", "components": [["P1", "Q1"]], "signs": {}}
    payload = run_json(capsys, ["parse", json.dumps(node)])
    assert "gauss" not in payload and "pd" in payload
    link = {"components": [["O1", "U1"], []], "signs": {"1": 1}}
    payload = run_json(capsys, ["parse", json.dumps(link)])
    assert "pd" not in payload and payload["gauss"] == "O1+U1+;"
    # nor one crossing between two loops, whose orientation it could not recover
    loops = {"components": [["O0"], ["U0"]], "signs": {"0": -1}}
    payload = run_json(capsys, ["parse", json.dumps(loops)])
    assert "pd" not in payload and payload["gauss"] == "O0-;U0-"


def test_parse_omits_gauss_for_a_lone_circle(capsys):
    circle = {"format": "singular-diagram", "components": [[]], "signs": {}}
    payload = run_json(capsys, ["parse", json.dumps(circle)])
    assert "gauss" not in payload and "pd" not in payload
    assert payload["n_components"] == 1


def test_parse_echo_matches_library(capsys):
    payload = run_json(capsys, ["parse", TREFOIL])
    d = parse_gauss(TREFOIL)
    assert payload["gauss"] == d.to_gauss()
    assert payload["writhe"] == d.writhe
