import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cli_reference import build_parser as reference_parser
from twistkit.cli import DEFAULT_SEED, RunConfig, build_parser, main, run
from twistkit.discs import enumerate_candidate_classes, table_to_json
from twistkit.errors import TwistKitError
from twistkit.forests import KEY_TEXT_BUDGET, canonical_form, enumerate_ample_trees
from twistkit.germs import germ_to_json
from twistkit.pearl import potential_to_json
from twistkit.presets import theta_constraint_table, theta_potential


def run_json(command, params, **kwargs):
    code, rendered = run(RunConfig(command=command, params=params, format="json", **kwargs))
    return code, json.loads(rendered) if rendered.startswith("{") else rendered


def run_error(config):
    """The line `main` prints for the input error that `run(config)` raises:
    `error: <Type>: <message>`, Type that of the exception first raised."""
    with pytest.raises((TwistKitError, OSError)) as info:
        run(config)
    exc = info.value
    return f"error: {type(exc.__cause__ or exc).__name__}: {exc}"


def error_line(capsys):
    """The one `error:` line a failed `main` call wrote, all of it on stderr."""
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1, captured
    return captured.err


def refused_count(line, layer, what, budget):
    """The count named by `line`, which must be the one refusal text of a
    `CapExceeded` from `layer` for `what` at `budget`."""
    match = re.fullmatch(
        rf"error: CapExceeded: {layer}: (\d+) {what} exceed the budget of {budget}\n", line
    )
    assert match, line
    return int(match[1])


def test_classes_preset_lists_the_five_classes():
    code, payload = run_json("classes", {"preset": "theta_s2xs2"})
    assert code == 0
    assert payload["count"] == 5
    got = [tuple(c["coefficients"]) for c in payload["classes"]]
    assert got == sorted(
        [(1, 0, 0, 0), (-1, -1, 1, 0), (-1, 0, 1, 0), (-1, 0, 0, 1), (-1, 1, 0, 1)]
    )
    # thin adapter: same answer as the library call
    direct = [c.coefficients for c in enumerate_candidate_classes(theta_constraint_table())]
    assert got == direct


GOLDEN = Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("command, fmt", [
    ("classes", "text"), ("classes", "json"), ("pearl", "text"), ("pearl", "json"),
    ("certify", "text"), ("certify", "json"),
])
def test_preset_reports_match_frozen_golden_files(command, fmt, capsys):
    """The preset's reports as `twist-kit` prints them, frozen byte for byte."""
    assert main([command, "--preset", "theta_s2xs2", "--format", fmt]) == 0
    expected = (GOLDEN / f"theta_s2xs2.{command}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# potential files whose certify reports reach every branch of the two writers
CERTIFY_FILES = (
    "theta_x_circle",  # identity H0 hom, Groebner route in two blocks; certified
    "theta_collapse",  # the collapse hom as H0 hom: inconclusive
    "theta_no_homs",  # regularity check not run
    "circle_unit",  # the toric differential is a unit: not certified
    "circle_flat",  # image ideal (0); a toric derivative vanishes identically
    "two_carriers",  # infinite-dimensional critical quotient
)


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", CERTIFY_FILES)
def test_certify_reports_of_files_match_frozen_golden_files(name, fmt, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)  # the JSON report names the file as given
    assert main(["certify", "--in", f"{name}.potential.json", "--format", fmt]) == 0
    expected = (GOLDEN / f"{name}.certify.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


# the other payload branches of the six subcommands, and a failed --expect:
# golden file stem -> (exit code, arguments)
GOLDEN_REPORTS = {
    "trees_6.trees": (0, ["trees", "6"]),
    "trees_7_count.trees": (0, ["trees", "7", "--count"]),
    "trees_3_expect_7.trees": (1, ["trees", "3", "--expect", "7"]),
    "iso_true.iso": (0, ["iso", "twist(1;1@1)", "((L L) L)"]),
    "iso_false.iso": (0, ["iso", "(L L)", "(L L L)"]),
    "theta_theta.germ": (0, ["germ", "theta", "theta"]),  # equivalent, with its witness
    "clifford_2_theta.germ": (0, ["germ", "clifford_2", "theta"]),  # not equivalent
    "theta_s0_theta_s0.germ": (0, ["germ", "theta_s0", "theta_s0"]),  # indeterminate
    "theta_x_circle.pearl": (0, ["pearl", "--in", "theta_x_circle.potential.json"]),
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", GOLDEN_REPORTS)
def test_reports_match_frozen_golden_files(name, fmt, monkeypatch, capsys):
    monkeypatch.chdir(GOLDEN)  # the pearl JSON report names the file as given
    code, arguments = GOLDEN_REPORTS[name]
    assert main([*arguments, "--format", fmt]) == code
    expected = (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")
    assert capsys.readouterr() == (expected, "")


def test_expect_on_pearl_is_an_input_error(tmp_path, capsys):
    """`pearl` reports no result token, so an `--expect` is refused rather
    than ignored, and no report is written."""
    out = tmp_path / "pearl.txt"
    assert main(["pearl", "--preset", "theta_s2xs2", "--expect", "x", "--out", str(out)]) == 2
    assert error_line(capsys) == "error: TwistKitError: pearl has no result token for --expect\n"
    assert not out.exists()


@pytest.mark.parametrize("arguments, renders", [
    (["certify", "--in", "theta_c100.potential.json"], 23),
    (["certify", "--preset", "theta_s2xs2"], 12),
    (["pearl", "--preset", "theta_s2xs2"], 5),
    (["classes", "--preset", "theta_s2xs2"], 5),
], ids=["certify-file", "certify-preset", "pearl", "classes"])
def test_each_report_renders_each_polynomial_once(arguments, renders, monkeypatch, capsys):
    """Text and JSON are written from one payload, so a run formats each
    Laurent polynomial it reports once, in either format."""
    from twistkit.laurent import LaurentPoly

    monkeypatch.chdir(GOLDEN)
    render = LaurentPoly.__str__
    calls = []
    monkeypatch.setattr(LaurentPoly, "__str__", lambda p: calls.append(p) or render(p))
    for fmt in ("text", "json"):
        calls.clear()
        assert main([*arguments, "--format", fmt]) == 0
        assert len(calls) == renders, fmt
    capsys.readouterr()


def test_reports_are_byte_identical_across_runs():
    config = RunConfig(command="certify", params={"preset": "theta_s2xs2"}, format="json")
    assert run(config) == run(config)
    config = RunConfig(command="classes", params={"preset": "theta_s2xs2"}, format="json")
    assert run(config) == run(config)


def test_iso_command_and_expect():
    code, payload = run_json("iso", {"left": "twist(1;1@1)", "right": "((L L) L)"})
    assert code == 0
    assert payload["isomorphic"] is True
    code, _ = run(
        RunConfig(
            command="iso",
            params={"left": "twist(1;1@1)", "right": "((L L) L)"},
            expect="isomorphic",
        )
    )
    assert code == 0
    code, _ = run(
        RunConfig(
            command="iso",
            params={"left": "(L L)", "right": "(L L L)"},
            expect="isomorphic",
        )
    )
    assert code == 1


def test_trees_command_matches_library():
    code, payload = run_json("trees", {"n": 5, "cap": 16, "count_only": False})
    assert code == 0
    assert payload["count"] == 12
    assert payload["trees"] == [canonical_form(t) for t in enumerate_ample_trees(5)]


def test_trees_count_uses_the_counter_not_the_enumerator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("--count must not enumerate")

    monkeypatch.setattr("twistkit.cli.enumerate_ample_trees", refuse)
    code, payload = run_json("trees", {"n": 16, "cap": 16, "count_only": True})
    assert code == 0
    assert payload["count"] == 2253676 and "trees" not in payload
    code, rendered = run(
        RunConfig(command="trees", params={"n": 16, "cap": 16, "count_only": True})
    )
    assert (code, rendered) == (0, "2253676 ample tree(s) with 16 leaves")


def test_trees_count_reports_match_the_enumerated_ones():
    for n in range(1, 10):
        for fmt in ("text", "json"):
            full = run(RunConfig(command="trees", format=fmt,
                                 params={"n": n, "cap": 16, "count_only": False}))
            count = run(RunConfig(command="trees", format=fmt,
                                  params={"n": n, "cap": 16, "count_only": True}))
            if fmt == "text":
                assert count == (0, full[1].splitlines()[-1])
            else:
                payload = json.loads(full[1])
                del payload["trees"]
                assert count == (0, json.dumps(payload, sort_keys=True, indent=2))


def test_trees_report_echoes_the_n_and_cap_it_read():
    # integral floats are read as their ints, in the report as in the count
    for count_only in (False, True):
        code, payload = run_json("trees", {"n": 3.0, "cap": 16.0, "count_only": count_only})
        assert code == 0
        assert (payload["n"], payload["cap"], payload["count"]) == (3, 16, 2)
        assert type(payload["n"]) is int and type(payload["cap"]) is int


def test_trees_count_checks_size_before_cap():
    for n, cap, error in ((0, 16, "ValueError"), (0, -1, "ValueError"), (17, 16, "CapExceeded")):
        for count_only in (False, True):
            rendered = run_error(RunConfig(
                command="trees", params={"n": n, "cap": cap, "count_only": count_only}))
            assert rendered.startswith(f"error: {error}: ")


def test_deep_twist_word_is_compared(capsys):
    word = "twist(1" + "".join(f";1@{j}" for j in range(2, 1501)) + ")"  # each on the last leaf
    literal = "(L " * 1500 + "L" + ")" * 1500  # the same tree, deeper than the recursion limit
    for left, right in ((word, word), (word, literal), (literal, "L")):
        assert main(["iso", left, right]) == 0
    assert capsys.readouterr().out == "isomorphic: true\n" * 2 + "isomorphic: false\n"


def test_a_twist_word_over_the_leaf_budget_is_an_input_error(capsys):
    assert main(["iso", "twist(1000000000)", "L"]) == 2
    assert error_line(capsys) == (
        "error: CapExceeded: forests: 1000000001 twist-word leaves exceed the budget of 1000000\n"
    )


def test_a_literal_past_the_key_budget_is_an_input_error(capsys):
    deep = "(L" * 16_000 + "L" + ")" * 16_000
    assert main(["iso", deep, "L"]) == 2
    line = error_line(capsys)
    assert refused_count(line, "forests", "key characters", KEY_TEXT_BUDGET) > KEY_TEXT_BUDGET


def test_input_nested_beyond_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["classes", "--in", str(path)]) == 2
    err = error_line(capsys)
    assert err.startswith("error: ")
    assert "recursion limit" in err


def test_pearl_command_prints_potential_and_differentials():
    code, payload = run_json("pearl", {"preset": "theta_s2xs2"})
    assert code == 0
    assert payload["u"] == str(theta_potential().poly)
    assert payload["toric_differential"]["T"] == "R^-1*T*S2 + R^-1*T^-1*S1"
    assert payload["d2_degree_one"]["R"] == payload["toric_differential"]["R"]


def test_certify_expect_gate():
    code, _ = run(
        RunConfig(
            command="certify", params={"preset": "theta_s2xs2"}, expect="certified"
        )
    )
    assert code == 0
    code, _ = run(
        RunConfig(
            command="certify", params={"preset": "theta_s2xs2"}, expect="not-certified"
        )
    )
    assert code == 1


def test_germ_command_on_presets():
    code, payload = run_json("germ", {"left": "clifford_2", "right": "theta"})
    assert code == 0
    assert payload["equivalent"] is False
    assert payload["reason"] == "covector counts 4 != 3"
    code, payload = run_json("germ", {"left": "theta", "right": "theta"})
    assert code == 0
    assert payload["equivalent"] is True


def test_germ_command_on_files(tmp_path):
    from twistkit.presets import theta_germ

    path = tmp_path / "germ.json"
    path.write_text(json.dumps(germ_to_json(theta_germ())), encoding="utf-8")
    code, payload = run_json("germ", {"left": str(path), "right": "theta"})
    assert code == 0
    assert payload["equivalent"] is True


def test_germ_file_errors_do_not_depend_on_the_hash_seed(tmp_path):
    """String hashes are salted per process, so an error found by walking a
    set of a file's entries would name another entry under another
    PYTHONHASHSEED; seeds 0 and 2 order the bad entries of these files
    differently."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    cases = [
        ([[1, 0], [0, "x"], [1, "y"]], "error: ValueError: 'x' is not an integer\n"),
        ("1/0", "error: ValueError: '1/0' is a string, not a list of covectors\n"),
    ]
    path = tmp_path / "germ.json"
    for covectors, line in cases:
        path.write_text(json.dumps({"dim": 2, "constant": "1", "covectors": covectors}),
                        encoding="utf-8")
        for seed in ("0", "2"):
            env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
            argv = [sys.executable, "-m", "twistkit.cli", "germ", str(path), "theta"]
            out = subprocess.run(argv, env=env, capture_output=True, text=True)
            assert (out.returncode, out.stdout, out.stderr) == (2, "", line), (seed, out)


SIGNED_THETA_PEARL = """\
potential U = R - 3*R^-1*T*S2 + 2*R^-1*S1 - R^-1*S2 + R^-1*T^-1*S1
v[R] = R + 3*R^-1*T*S2 - 2*R^-1*S1 + R^-1*S2 - R^-1*T^-1*S1
v[T] = -3*R^-1*T*S2 - R^-1*T^-1*S1
d2(dual of R) = R + 3*R^-1*T*S2 - 2*R^-1*S1 + R^-1*S2 - R^-1*T^-1*S1
d2(dual of T) = -3*R^-1*T*S2 - R^-1*T^-1*S1
"""


def test_an_int_potential_file_is_refused_and_rational_prints_its_report(tmp_path, capsys):
    # the theta classes with signs; integer coefficients are rational ones,
    # so the Rational file prints the report an Int-tagged file once did
    data = potential_to_json(theta_potential())
    for cls, sign in zip(data["classes"], (1, -1, 2, -3, 1)):
        cls["sign"] = sign
    path = tmp_path / "potential.json"
    for command in ("pearl", "certify"):
        path.write_text(json.dumps({**data, "ring": "Int"}), encoding="utf-8")
        assert main([command, "--in", str(path)]) == 2
        assert error_line(capsys) == (
            "error: UnsupportedRing: unknown coefficient ring 'Int'; "
            "the rings are GF2 and Rational\n")
    path.write_text(json.dumps({**data, "ring": "Rational"}), encoding="utf-8")
    assert main(["pearl", "--in", str(path)]) == 0
    assert capsys.readouterr().out == SIGNED_THETA_PEARL
    code, payload = run_json("certify", {"infile": str(path)})
    assert (code, payload["token"], payload["h0"]["passed"]) == (0, "partial", True)


def test_a_ring_tag_that_is_not_a_string_names_the_two_rings(tmp_path, capsys):
    # a list tag was looked up as a dict key: "TypeError: unhashable type: 'list'"
    potential = potential_to_json(theta_potential())
    h0 = {"ring": ["GF2"], "variables": ["t"],
          "images": {name: [[1], "1"] for name in potential["ring_names"]}}
    path = tmp_path / "potential.json"
    for command, data in (("pearl", {**potential, "ring": ["GF2"]}),
                          ("certify", {**potential, "homs": {"h0": h0}})):
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command, "--in", str(path)]) == 2
        assert error_line(capsys) == (
            "error: UnsupportedRing: unknown coefficient ring ['GF2']; "
            "the rings are GF2 and Rational\n")


def test_non_integral_file_entries_exit_two(tmp_path, capsys):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps({"dim": 2, "constant": "1", "covectors": [[0.5, 1], [1, 0]]}),
                    encoding="utf-8")
    assert main(["germ", str(path), "theta"]) == 2
    assert error_line(capsys) == "error: ValueError: 0.5 is not an integer\n"
    data = table_to_json(theta_constraint_table())
    for key, value in (("maslov", [2, 0, 4.5, 4]), ("boundary", [[1.7, 0, 0, 0], [0, 1, 0, 0]])):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**data, key: value}), encoding="utf-8")
        rendered = run_error(RunConfig(command="classes", params={"infile": str(path)}))
        assert rendered.startswith("error: ValueError: ") and "is not an integer" in rendered


def test_null_boolean_and_string_integer_fields_exit_two(tmp_path, capsys):
    from twistkit.presets import theta_germ

    table = table_to_json(theta_constraint_table())
    potential = potential_to_json(theta_potential())
    unsigned = [{**potential["classes"][0], "sign": None}] + potential["classes"][1:]
    cases = [
        ("classes", {**table, "maslov": [None] + table["maslov"][1:]}),
        ("classes", {**table, "maslov": ["4/2"] + table["maslov"][1:]}),
        ("classes", {**table, "target": None}),
        ("classes", {**table, "target": True}),
        ("certify", {**potential, "classes": unsigned}),
        ("germ", {**germ_to_json(theta_germ()), "dim": None}),
    ]
    path = tmp_path / "input.json"
    for command, data in cases:
        path.write_text(json.dumps(data), encoding="utf-8")
        argv = [command, str(path), "theta"] if command == "germ" else [command, "--in", str(path)]
        assert main(argv) == 2, data
        err = error_line(capsys)
        assert err.startswith("error: ValueError: "), err
        assert "integer" in err, err


WRONG_SHAPES = {
    "germ covectors not lists": ("germ", {"dim": 2, "constant": 1, "covectors": [1, 2]}),
    "table not an object": ("classes", [1, 2]),
    "table row vector a number": ("classes", {
        **table_to_json(theta_constraint_table()), "rows": [{"label": "x", "v": 5}]}),
    "class coefficients a number": ("pearl", {
        **potential_to_json(theta_potential()), "classes": [{"coefficients": 5}]}),
    "hom images a list": ("certify", {**potential_to_json(theta_potential()), "homs": {
        "h0": {"ring": "GF2", "variables": ["t"], "images": [[[1], "1"]]}}}),
    # read as "no homomorphisms" before, so the identity H0 check ran
    "homs a list": ("certify", {**potential_to_json(theta_potential()), "homs": [{"h0": 1}]}),
    "homs a string": ("certify", {**potential_to_json(theta_potential()), "homs": "none"}),
    # a name that is not a string, refused by the reader, not found by the pipeline
    "basis name null": ("classes", {**table_to_json(theta_constraint_table()),
                                    "basis": [None, "D_tau", "S1", "S2"]}),
    "ring name null": ("certify", {**potential_to_json(theta_potential()),
                                   "ring_names": [None, "T", "S1", "S2"]}),
    "hom variable a number": ("certify", {**potential_to_json(theta_potential()), "homs": {
        "h0": {"ring": "GF2", "variables": [1],
               "images": {name: [[1], "1"] for name in ("R", "T", "S1", "S2")}}}}),
    # a zero denominator in a fraction field
    "germ constant 1/0": ("germ", {"dim": 2, "constant": "1/0", "covectors": [[1, 0], [0, 1]]}),
    "hom coefficient 1/0": ("certify", {**potential_to_json(theta_potential()), "homs": {
        "h0": {"ring": "GF2", "variables": ["t"],
               "images": {name: [[1], "1/0"] for name in ("R", "T", "S1", "S2")}}}}),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPES))
def test_a_file_of_the_wrong_shape_is_an_input_error(case, tmp_path, capsys):
    command, data = WRONG_SHAPES[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = [command, str(path), "theta"] if command == "germ" else [command, "--in", str(path)]
    assert main(argv) == 2
    err = error_line(capsys)
    assert err.startswith("error: "), err


def test_a_string_for_a_list_of_names_is_an_input_error(tmp_path, capsys):
    # "DS" would otherwise be read as the two names "D" and "S"
    from twistkit.presets import circle_constraint_table

    table = table_to_json(circle_constraint_table())
    potential = potential_to_json(theta_potential())
    h0 = {"ring": "GF2", "variables": "t",
          "images": {name: [[1], "1"] for name in potential["ring_names"]}}
    cases = [
        ("classes", {**table, "basis": "DS"}, "'DS'"),
        ("classes", {**table, "ring_names": "RS"}, "'RS'"),
        ("certify", {**potential, "homs": {"h0": h0}}, "'t'"),
    ]
    path = tmp_path / "input.json"
    for command, data, shown in cases:
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command, "--in", str(path)]) == 2
        assert error_line(capsys) == (
            f"error: ValueError: {shown} is a string, not a list of names\n"
        )


def test_germ_over_the_permutation_budget_exits_two(tmp_path, capsys):
    # 1001 covectors in dimension 2: 1001 * 1000 ordered pairs, over 10^6
    data = {"dim": 2, "constant": "1", "covectors": [[1, k] for k in range(1001)]}
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["germ", str(path), str(path)]) == 2
    assert error_line(capsys) == (
        "error: CapExceeded: germs: 1001000 ordered 2-tuples of covectors exceed "
        "the budget of 1000000\n"
    )


def test_a_germ_of_dimension_zero_exits_two(tmp_path, capsys):
    # it was read, and found equivalent to itself by the empty witness
    path = tmp_path / "g0.json"
    path.write_text(json.dumps({"dim": 0, "constant": "1", "covectors": [[]]}), encoding="utf-8")
    assert main(["germ", str(path), str(path)]) == 2
    assert error_line(capsys) == (
        "error: DimensionMismatch: a germ has dimension at least 1, got 0\n")


def test_single_covector_germ_comparison_is_indeterminate():
    # theta_s0 has one covector: its covectors do not span, so equivalence
    # is reported as undecided rather than guessed
    code, payload = run_json("germ", {"left": "theta_s0", "right": "theta_s0"})
    assert code == 0
    assert payload["equivalent"] is None
    assert "span" in payload["reason"]


def test_classes_from_problem_file_with_bounds(tmp_path):
    data = table_to_json(theta_constraint_table())
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, payload = run_json("classes", {"infile": str(path), "bounds": (-4, 4)})
    assert code == 0
    assert payload["count"] == 5


def test_certify_over_the_pair_budget_exits_two(monkeypatch, capsys):
    from twistkit import groebner

    monkeypatch.setattr(groebner, "PAIR_BUDGET", 2)
    groebner._reduced_basis.cache_clear()
    assert main(["certify", "--preset", "theta_s2xs2"]) == 2
    assert error_line(capsys) == (
        "error: CapExceeded: groebner: 3 S-pairs exceed the budget of 2\n"
    )


def test_certify_past_the_reduction_budget_exits_two(tmp_path, monkeypatch, capsys):
    """A theta potential file whose first class has the exponent 300 (and no
    homomorphisms) is refused with the count of reduction work past the
    budget; with 100 it finishes and prints its frozen report."""
    from twistkit import groebner

    data = json.loads((GOLDEN / "theta_c100.potential.json").read_text(encoding="utf-8"))
    data["classes"][0]["coefficients"][0] = 300
    path = tmp_path / "theta_c300.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    groebner._reduced_basis.cache_clear()
    assert main(["certify", "--in", str(path)]) == 2
    budget = groebner.REDUCTION_BUDGET
    line = error_line(capsys)
    assert refused_count(line, "groebner", "reduced terms and divisor tests", budget) > budget
    monkeypatch.chdir(GOLDEN)
    assert main(["certify", "--in", "theta_c100.potential.json", "--format", "json"]) == 0
    expected = (GOLDEN / "theta_c100.certify.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_classes_over_the_lattice_budget_exit_two(tmp_path, capsys):
    over = "error: CapExceeded: discs: 1000000001 lattice points exceed the budget of 1000000"
    # x_1 = 1 and 0 <= x_0 <= 10^9: bounded, but the walk alone is too long
    data = {"basis": ["X", "Y"], "boundary": [[1, 0], [0, 1]],
            "rows": [{"label": "lo", "v": [1, 0]}, {"label": "hi", "v": [-1, 10**9]}],
            "maslov": [0, 2]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert run_error(RunConfig(command="classes", params={"infile": str(path)})) == over
    # the same interval as the file's box, which the walk meets the same way
    data = {**data, "rows": data["rows"][:1], "bounds": [[0, 10**9], [0, 2]]}
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["classes", "--in", str(path)]) == 2
    assert error_line(capsys) == over + "\n"
    # a box of 41^4 points is no refusal: the walk tries only what the region allows
    assert main(["classes", "--preset", "theta_s2xs2", "--bounds=-20,20", "--expect", "5"]) == 0


def test_malformed_bounds_in_problem_file_exit_two(tmp_path):
    data = table_to_json(theta_constraint_table())
    path = tmp_path / "problem.json"
    for bounds in ([], [3], [-3, 3, 5], [[-3, 3], [0, 1]], [[-3, 3, 1]] * 4, "3", [-3, 3.5],
                   [3, -3], [[-4, 2], [2, -2], [0, 2], [0, 2]]):
        path.write_text(json.dumps({**data, "bounds": bounds}), encoding="utf-8")
        rendered = run_error(RunConfig(command="classes", params={"infile": str(path)}))
        assert rendered.startswith("error: ValueError"), (bounds, rendered)
    path.write_text(json.dumps({**data, "bounds": [[-4, 2], [-2, 2], [0, 2], [0, 2]]}),
                    encoding="utf-8")
    code, payload = run_json("classes", {"infile": str(path)})
    assert code == 0
    assert payload["count"] == 5


def test_certify_from_potential_file(tmp_path):
    from twistkit.laurent import hom_to_json
    from twistkit.presets import theta_h0_hom, theta_regularity_hom

    data = potential_to_json(theta_potential())
    data["homs"] = {
        "h0": hom_to_json(theta_h0_hom()),
        "regularity": hom_to_json(theta_regularity_hom()),
    }
    path = tmp_path / "potential.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, payload = run_json("certify", {"infile": str(path)})
    assert code == 0
    assert payload["token"] == "certified"
    # without homs: the identity H0 check only, and no regularity check
    del data["homs"]
    path.write_text(json.dumps(data), encoding="utf-8")
    code, payload = run_json("certify", {"infile": str(path)})
    assert (code, payload["token"], payload["regularity"]) == (0, "partial", None)
    assert payload["h0"]["identity_hom"] is True
    code, rendered = run(RunConfig(command="certify", params={"infile": str(path)}))
    assert code == 0
    assert "regularity check: not run (no homomorphism supplied)" in rendered.splitlines()


def test_duplicate_names_in_a_potential_file_exit_two(tmp_path, capsys):
    from twistkit.laurent import hom_to_json
    from twistkit.presets import theta_h0_hom

    data = potential_to_json(theta_potential())
    path = tmp_path / "potential.json"
    path.write_text(json.dumps({**data, "ring_names": ["R", "R", "S1", "S2"]}), encoding="utf-8")
    assert main(["certify", "--in", str(path)]) == 2
    assert error_line(capsys) == (
        "error: ValueError: names must be distinct, got ('R', 'R', 'S1', 'S2')\n")
    h0 = {**hom_to_json(theta_h0_hom()), "variables": ["t", "t"]}
    h0["images"] = {name: [[e, 0], c] for name, ([e], c) in h0["images"].items()}
    path.write_text(json.dumps({**data, "homs": {"h0": h0}}), encoding="utf-8")
    rendered = run_error(RunConfig(command="certify", params={"infile": str(path)}))
    assert rendered == "error: ValueError: names must be distinct, got ('t', 't')"


def test_a_torus_of_rank_zero_is_an_input_error(tmp_path, capsys):
    """A basis with no boundary rows is refused where it is read, so the
    certificate never runs on a potential in no variables."""
    potential = {
        "basis": ["S"], "boundary": [], "classes": [{"coefficients": [1]}],
        "homs": {"regularity": {"ring": "Rational", "variables": [], "images": {"S1": [[], "1"]}}},
    }
    table = {"basis": ["S"], "boundary": [], "rows": [], "maslov": [2]}
    for command, data in (("certify", potential), ("classes", table)):
        path = tmp_path / f"{command}.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        assert main([command, "--in", str(path)]) == 2
        assert error_line(capsys) == "error: ValueError: a torus has rank at least 1, got 0\n"


def test_unbounded_problem_is_an_input_error(tmp_path):
    data = {
        "basis": ["A", "B"],
        "boundary": [[1, 0], [0, 1]],
        "rows": [],
        "maslov": [2, 0],
        "target": 2,
    }
    path = tmp_path / "unbounded.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    rendered = run_error(RunConfig(command="classes", params={"infile": str(path)}))
    assert "UnboundedRegion" in rendered


def test_string_target_in_problem_file_exits_two(tmp_path, capsys):
    data = table_to_json(theta_constraint_table())
    for target in ("2", "4/2"):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**data, "target": target}), encoding="utf-8")
        assert main(["classes", "--in", str(path)]) == 2
        assert error_line(capsys) == (
            f"error: ValueError: {target!r} is not an integer\n"
        )


def test_missing_preset_and_file_are_input_errors():
    rendered = run_error(RunConfig(command="classes", params={"preset": "nope"}))
    assert "nope" in rendered
    run_error(RunConfig(command="classes", params={}))
    for command in ("pearl", "certify"):
        rendered = run_error(RunConfig(command=command, params={"preset": "nope"}))
        assert rendered == "error: TwistKitError: unknown preset 'nope'; known: ['theta_s2xs2']"
        rendered = run_error(RunConfig(command=command, params={}))
        assert rendered == "error: TwistKitError: need --preset or --in"
    rendered = run_error(RunConfig(command="germ", params={"left": "theta", "right": "nope"}))
    assert rendered == (
        "error: TwistKitError: 'nope' is neither a germ preset "
        "(['clifford_2', 'theta', 'theta_s0']) nor a file"
    )


COMMON_OPTIONS = ["--format", "json", "--seed", "7", "--expect", "ok", "--out", "report.txt"]
SOURCE_OPTIONS = ["--preset", "theta_s2xs2", "--in", "potential.json"]
COMMAND_LINES = [
    ["trees", "5"],
    ["trees", "7", "--cap", "9", "--count", *COMMON_OPTIONS],
    ["iso", "L", "L"],
    ["iso", "(L L)", "twist(1)", *COMMON_OPTIONS],
    ["classes"],
    ["classes", *SOURCE_OPTIONS, "--bounds=0,1", *COMMON_OPTIONS],
    ["pearl"],
    ["pearl", *SOURCE_OPTIONS, *COMMON_OPTIONS],
    ["certify"],
    ["certify", *SOURCE_OPTIONS, *COMMON_OPTIONS],
    ["germ", "theta", "clifford_2"],
    ["germ", "theta", "germ.json", *COMMON_OPTIONS],
]


def subparsers(parser):
    (action,) = [a for a in parser._actions if isinstance(a.choices, dict)]
    return action.choices


def test_the_parser_matches_the_hand_written_reference():
    """The parser built from the subcommand table has the help text of the
    hand-written one, top level and per subcommand, and parses bare and full
    command lines to the same arguments, on this Python's argparse."""
    parser, reference = build_parser(), reference_parser()
    assert parser.format_help() == reference.format_help()
    built, expected = subparsers(parser), subparsers(reference)
    assert list(built) == list(expected)
    for name in expected:
        assert built[name].format_help() == expected[name].format_help(), name
    assert {line[0] for line in COMMAND_LINES} == set(expected)
    for line in COMMAND_LINES:
        assert vars(parser.parse_args(line)) == vars(reference.parse_args(line)), line


def test_main_maps_every_argument_to_the_config(capsys):
    assert main(["trees", "5", "--count"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("12 ample tree(s) with 5 leaves\n", "")
    assert main(["trees", "5", "--count", "--cap", "4"]) == 2
    assert error_line(capsys) == (
        "error: CapExceeded: forests: 5 leaves to enumerate exceed the budget of 4\n"
    )
    assert main(["classes", "--preset", "theta_s2xs2", "--bounds=0,1", "--expect", "1"]) == 0
    assert capsys.readouterr().out.endswith("1 class(es)\n")
    assert main(["classes", "--preset", "theta_s2xs2", "--bounds=x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TwistKitError: --bounds wants 'a,b', got 'x'\n"


def test_empty_bounds_is_an_input_error(capsys):
    """`--bounds=` is a malformed box, not "no box"."""
    assert main(["classes", "--preset", "theta_s2xs2", "--bounds="]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: TwistKitError: --bounds wants 'a,b', got ''\n"


def test_empty_bound_interval_is_refused_where_it_is_read(capsys):
    assert main(["classes", "--preset", "theta_s2xs2", "--bounds=5,1"]) == 2
    assert error_line(capsys) == "error: ValueError: empty bound interval [5, 1]\n"


def test_a_box_is_read_alike_from_the_flag_and_from_a_table_file(tmp_path, capsys):
    """Both boxes are read by `discs._normalize_bounds`: the flag's [5, 1]
    and a file's are refused with one line, and a file's integral floats
    are read as ints."""
    path = tmp_path / "problem.json"
    data = table_to_json(theta_constraint_table())
    path.write_text(json.dumps({**data, "bounds": [5, 1]}), encoding="utf-8")
    assert main(["classes", "--in", str(path)]) == 2
    assert error_line(capsys) == "error: ValueError: empty bound interval [5, 1]\n"
    path.write_text(json.dumps({**data, "bounds": [-20.0, 20.0]}), encoding="utf-8")
    assert main(["classes", "--in", str(path), "--expect", "5"]) == 0
    assert capsys.readouterr().out.endswith("5 class(es)\n")


def test_preset_and_file_together_are_an_input_error(tmp_path, capsys):
    """Both sources at once are refused before either is read, so a missing
    file is not silently ignored."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps(table_to_json(theta_constraint_table())), encoding="utf-8")
    for command, path in (("classes", table), ("pearl", "/nonexistent.json"),
                          ("certify", "/nonexistent.json")):
        assert main([command, "--preset", "theta_s2xs2", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: TwistKitError: give --preset or --in, not both\n"


def test_parse_errors_exit_two():
    rendered = run_error(RunConfig(command="iso", params={"left": "(L", "right": "L"}))
    assert "ParseError" in rendered


def test_a_word_the_forest_constructor_refuses_is_an_input_error(capsys):
    assert main(["iso", "twist(0)", "L"]) == 2
    assert error_line(capsys) == "error: ValueError: twist multiplicity k_1 = 0 must be >= 1\n"


def test_a_program_fault_is_not_an_input_error(monkeypatch):
    """Only the input boundary turns a TypeError into an input error; one
    raised in the pipeline propagates out of `main`."""
    from twistkit import groebner

    def broken(*args, **kwargs):
        raise TypeError("internal bug")

    monkeypatch.setattr("twistkit.certificates.groebner_basis", broken)
    groebner._reduced_basis.cache_clear()
    with pytest.raises(TypeError, match="internal bug"):
        main(["certify", "--preset", "theta_s2xs2"])


def test_an_input_error_never_reaches_the_out_file(tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["classes", "--preset", "nope", "--out", str(out)]) == 2
    assert error_line(capsys) == (
        "error: TwistKitError: unknown preset 'nope'; known: ['theta_s2xs2']\n"
    )
    assert not out.exists()


def test_main_entry_point_and_out_file(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        ["certify", "--preset", "theta_s2xs2", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    assert json.loads(out.read_text(encoding="utf-8"))["token"] == "certified"
    code = main(["iso", "twist(1;1@1)", "(L (L L))"])
    captured = capsys.readouterr()
    assert code == 0
    assert "isomorphic: true" in captured.out
    # an --out path that cannot be written is an input error, not a traceback
    for path, error in ((tmp_path / "missing" / "x.txt", "FileNotFoundError"),
                        (tmp_path, "IsADirectoryError")):
        assert main(["trees", "3", "--out", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {error}: ") and captured.err.count("\n") == 1


def test_no_color_env_disables_ansi(monkeypatch, capsys):
    monkeypatch.setenv("TWISTKIT_NO_COLOR", "1")
    monkeypatch.setattr("sys.stdout.isatty", lambda: True, raising=False)
    code = main(["certify", "--preset", "theta_s2xs2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "\x1b[" not in captured.out


def test_color_used_on_tty_without_env(monkeypatch, capsys):
    monkeypatch.delenv("TWISTKIT_NO_COLOR", raising=False)
    monkeypatch.setattr("sys.stdout.isatty", lambda: True, raising=False)
    code = main(["certify", "--preset", "theta_s2xs2"])
    captured = capsys.readouterr()
    assert code == 0
    assert "\x1b[32m" in captured.out


def test_out_file_is_never_coloured(monkeypatch, tmp_path, capsys):
    monkeypatch.delenv("TWISTKIT_NO_COLOR", raising=False)
    monkeypatch.setattr("sys.stdout.isatty", lambda: True, raising=False)
    out = tmp_path / "report.txt"
    assert main(["certify", "--preset", "theta_s2xs2", "--out", str(out)]) == 0
    assert capsys.readouterr() == ("", "")
    report = out.read_text(encoding="utf-8")
    assert "\x1b" not in report
    assert report == (GOLDEN / "theta_s2xs2.certify.text").read_text(encoding="utf-8")


def test_default_seed_is_fixed():
    assert DEFAULT_SEED == 2010
    code, payload = run_json("trees", {"n": 3, "cap": 16, "count_only": True})
    assert payload["seed"] == DEFAULT_SEED


@pytest.mark.parametrize("module", ["twistkit.cli", "twistkit.forests", "twistkit.germs"])
def test_importing_the_cli_loads_no_dataclass_typing_or_argparse_machinery(module):
    """`import twistkit.cli` in a bare interpreter (`-S`: no site packages,
    so nothing is preloaded) leaves out the modules that cost start-up time
    and that no computation needs; argparse comes in only with a parse.  The
    package re-exports nothing, so the forest and germ tools load without
    the algebra."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        f"import sys; before = set(sys.modules); import {module}; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    unwanted = {"dataclasses", "inspect", "argparse", "typing"}
    if module != "twistkit.cli":
        unwanted |= {f"twistkit.{name}" for name in (
            "laurent", "groebner", "certificates", "pearl", "discs", "presets", "cli")}
    assert module in out
    assert not unwanted & set(out)
