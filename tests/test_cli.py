import json
import os
import subprocess
import sys

from twistkit.cli import DEFAULT_SEED, RunConfig, main, run
from twistkit.discs import enumerate_candidate_classes, table_to_json
from twistkit.forests import canonical_form, enumerate_ample_trees
from twistkit.germs import germ_to_json
from twistkit.pearl import potential_to_json
from twistkit.presets import theta_constraint_table, theta_potential

GOLDEN_CERTIFY = """\
{
  "command": "certify",
  "h0": {
    "contains_one": false,
    "hom": "R -> R, S1 -> 1, S2 -> R, T -> R",
    "ideal_generators": [
      "R^2 + R + 1"
    ],
    "identity_hom": false,
    "method": "gcd",
    "passed": true
  },
  "potential": "R + R^-1*T*S2 + R^-1*S1 + R^-1*S2 + R^-1*T^-1*S1",
  "regularity": {
    "hom": "R -> z1, S1 -> 1, S2 -> 1, T -> z2",
    "note": "isolated critical points read as: the critical ideal has a finite-dimensional quotient in the Laurent ring (after inverting all variables), and no toric derivative vanishes identically",
    "passed": true,
    "quotient_dimension": 2,
    "regular": true,
    "zero_directions": []
  },
  "schema": "1",
  "seed": 2010,
  "source": "preset:theta_s2xs2",
  "token": "certified",
  "toric_differential": {
    "R": "R + R^-1*T*S2 + R^-1*S1 + R^-1*S2 + R^-1*T^-1*S1",
    "T": "R^-1*T*S2 + R^-1*T^-1*S1"
  },
  "verdict": "non-displaceability certified"
}"""


def run_json(command, params, **kwargs):
    code, rendered = run(RunConfig(command=command, params=params, format="json", **kwargs))
    return code, json.loads(rendered) if rendered.startswith("{") else rendered


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


def test_certify_matches_frozen_golden_output():
    code, rendered = run(
        RunConfig(command="certify", params={"preset": "theta_s2xs2"}, format="json")
    )
    assert code == 0
    assert rendered == GOLDEN_CERTIFY


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


def test_trees_count_checks_size_before_cap():
    for n, cap, error in ((0, 16, "ValueError"), (0, -1, "ValueError"), (17, 16, "CapExceeded")):
        for count_only in (False, True):
            code, rendered = run(RunConfig(
                command="trees", params={"n": n, "cap": cap, "count_only": count_only}))
            assert code == 2 and rendered.startswith(f"error: {error}: ")


def test_deep_twist_word_is_compared(capsys):
    word = "twist(1" + "".join(f";1@{j}" for j in range(2, 1501)) + ")"  # each on the last leaf
    literal = "(L " * 1500 + "L" + ")" * 1500  # the same tree, deeper than the recursion limit
    for left, right in ((word, word), (word, literal), (literal, "L")):
        assert main(["iso", left, right]) == 0
    assert capsys.readouterr().out == "isomorphic: true\n" * 2 + "isomorphic: false\n"


def test_input_nested_beyond_the_recursion_limit_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    assert main(["classes", "--in", str(path)]) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert "recursion limit" in out


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


def test_non_integral_file_entries_exit_two(tmp_path, capsys):
    path = tmp_path / "germ.json"
    path.write_text(json.dumps({"dim": 2, "constant": "1", "covectors": [[0.5, 1], [1, 0]]}),
                    encoding="utf-8")
    assert main(["germ", str(path), "theta"]) == 2
    assert capsys.readouterr().out == "error: ValueError: 0.5 is not an integer\n"
    data = table_to_json(theta_constraint_table())
    for key, value in (("maslov", [2, 0, 4.5, 4]), ("boundary", [[1.7, 0, 0, 0], [0, 1, 0, 0]])):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**data, key: value}), encoding="utf-8")
        code, rendered = run(RunConfig(command="classes", params={"infile": str(path)}))
        assert code == 2
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
        out = capsys.readouterr().out
        assert out.startswith("error: ValueError: ") and out.count("\n") == 1, out
        assert "integer" in out, out


def test_germ_over_the_permutation_budget_exits_two(tmp_path, capsys):
    # 1001 covectors in dimension 2: 1001 * 1000 ordered pairs, over 10^6
    data = {"dim": 2, "constant": "1", "covectors": [[1, k] for k in range(1001)]}
    path = tmp_path / "germ.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["germ", str(path), str(path)]) == 2
    assert capsys.readouterr().out == (
        "error: CapExceeded: germs: 1001000 ordered 2-tuples of covectors exceed "
        "the permutation budget of 1000000\n"
    )


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
    assert capsys.readouterr().out == (
        "error: CapExceeded: groebner: the Buchberger loop exceeds the pair budget of 2 S-pairs\n"
    )


def test_classes_over_the_lattice_budget_exit_two(tmp_path, capsys):
    over = ("error: CapExceeded: discs: the prefix walk exceeds the lattice "
            "budget of 1000000 points")
    # x_1 = 1 and 0 <= x_0 <= 10^9: bounded, but the walk alone is too long
    data = {"basis": ["X", "Y"], "boundary": [[1, 0], [0, 1]],
            "rows": [{"label": "lo", "v": [1, 0]}, {"label": "hi", "v": [-1, 10**9]}],
            "maslov": [0, 2]}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    code, rendered = run(RunConfig(command="classes", params={"infile": str(path)}))
    assert (code, rendered) == (2, over)
    # the same interval as the file's box, which the walk meets the same way
    data = {**data, "rows": data["rows"][:1], "bounds": [[0, 10**9], [0, 2]]}
    path.write_text(json.dumps(data), encoding="utf-8")
    assert main(["classes", "--in", str(path)]) == 2
    assert capsys.readouterr().out == over + "\n"
    # a box of 41^4 points is no refusal: the walk tries only what the region allows
    assert main(["classes", "--preset", "theta_s2xs2", "--bounds=-20,20", "--expect", "5"]) == 0


def test_malformed_bounds_in_problem_file_exit_two(tmp_path):
    data = table_to_json(theta_constraint_table())
    path = tmp_path / "problem.json"
    for bounds in ([], [3], [-3, 3, 5], [[-3, 3], [0, 1]], [[-3, 3, 1]] * 4, "3", [-3, 3.5],
                   [3, -3], [[-4, 2], [2, -2], [0, 2], [0, 2]]):
        path.write_text(json.dumps({**data, "bounds": bounds}), encoding="utf-8")
        code, rendered = run(RunConfig(command="classes", params={"infile": str(path)}))
        assert code == 2, bounds
        assert rendered.startswith("error: ValueError"), rendered
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
    assert capsys.readouterr().out == "error: ValueError: ring names must be distinct\n"
    h0 = {**hom_to_json(theta_h0_hom()), "variables": ["t", "t"]}
    h0["images"] = {name: [[e, 0], c] for name, ([e], c) in h0["images"].items()}
    path.write_text(json.dumps({**data, "homs": {"h0": h0}}), encoding="utf-8")
    code, rendered = run(RunConfig(command="certify", params={"infile": str(path)}))
    assert code == 2
    assert rendered == "error: ValueError: target variables must be distinct, got ('t', 't')"


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
    code, rendered = run(RunConfig(command="classes", params={"infile": str(path)}))
    assert code == 2
    assert "UnboundedRegion" in rendered


def test_string_target_in_problem_file_exits_two(tmp_path, capsys):
    data = table_to_json(theta_constraint_table())
    for target in ("2", "4/2"):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({**data, "target": target}), encoding="utf-8")
        assert main(["classes", "--in", str(path)]) == 2
        assert capsys.readouterr().out == (
            f"error: ValueError: target Maslov index must be an integer, got {target!r}\n"
        )


def test_missing_preset_and_file_are_input_errors():
    code, rendered = run(RunConfig(command="classes", params={"preset": "nope"}))
    assert code == 2
    assert "nope" in rendered
    code, rendered = run(RunConfig(command="classes", params={}))
    assert code == 2
    for command in ("pearl", "certify"):
        code, rendered = run(RunConfig(command=command, params={"preset": "nope"}))
        assert (code, rendered) == (
            2, "error: TwistKitError: unknown preset 'nope'; known: ['theta_s2xs2']"
        )
        code, rendered = run(RunConfig(command=command, params={}))
        assert (code, rendered) == (2, "error: TwistKitError: need --preset or --in")
    code, rendered = run(RunConfig(command="germ", params={"left": "theta", "right": "nope"}))
    assert (code, rendered) == (2, (
        "error: TwistKitError: 'nope' is neither a germ preset "
        "(['clifford_2', 'theta', 'theta_s0']) nor a file"
    ))


def test_main_maps_every_argument_to_the_config(capsys):
    assert main(["trees", "5", "--count"]) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("12 ample tree(s) with 5 leaves\n", "")
    assert main(["trees", "5", "--count", "--cap", "4"]) == 2
    assert capsys.readouterr().out == (
        "error: CapExceeded: 5 leaves exceeds the enumeration cap 4\n"
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


def test_preset_and_file_together_are_an_input_error(tmp_path, capsys):
    """Both sources at once are refused before either is read, so a missing
    file is not silently ignored."""
    table = tmp_path / "table.json"
    table.write_text(json.dumps(table_to_json(theta_constraint_table())), encoding="utf-8")
    for command, path in (("classes", table), ("pearl", "/nonexistent.json"),
                          ("certify", "/nonexistent.json")):
        assert main([command, "--preset", "theta_s2xs2", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "error: TwistKitError: give --preset or --in, not both\n"
        assert captured.err == ""


def test_parse_errors_exit_two():
    code, rendered = run(RunConfig(command="iso", params={"left": "(L", "right": "L"}))
    assert code == 2
    assert "ParseError" in rendered


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


def test_default_seed_is_fixed():
    assert DEFAULT_SEED == 2010
    code, payload = run_json("trees", {"n": 3, "cap": 16, "count_only": True})
    assert payload["seed"] == DEFAULT_SEED


def test_importing_the_cli_loads_no_dataclass_typing_or_argparse_machinery():
    """`import twistkit.cli` in a bare interpreter (`-S`: no site packages,
    so nothing is preloaded) leaves out the modules that cost start-up time
    and that no computation needs; argparse comes in only with a parse."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    probe = (
        "import sys; before = set(sys.modules); import twistkit.cli; "
        "print(' '.join(sorted(set(sys.modules) - before)))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout.split()
    assert "twistkit.cli" in out
    assert not {"dataclasses", "inspect", "argparse", "typing"} & set(out)
