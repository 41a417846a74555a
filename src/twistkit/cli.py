"""Command-line front end: reproducible reports over the library operations.

`_COMMANDS` is the one declaration of the subcommands: each name with its
handler, help line and arguments.  `build_parser` builds the parser from it
and `run` dispatches through it.  Reports are emitted as text (default) or
deterministic JSON (`--format json`, sorted keys).  The CLI is a thin
adapter: every computation is a library call.

Outside data (the `--in` tables and potentials, germ files, the `iso`
expressions, the n and cap of `trees`) becomes twistkit values only through
`_read`, the one input boundary.

Exit codes: 0 success, 1 a result contradicting `--expect`, 2 an input error,
reported as one `error: <Type>: <message>` line on stderr (never on stdout or
in the `--out` file).  Any other exception is a program fault: it ends in a
traceback with exit 1.
"""

from __future__ import annotations

import json
import os
import sys

from . import presets
from ._value import Value
from .certificates import certify_nondisplaceable
from .discs import enumerate_candidate_classes, table_from_json
from .errors import TwistKitError
from .forests import (
    DEFAULT_ENUMERATION_CAP,
    canonical_form,
    check_enumeration_size,
    count_ample_trees,
    enumerate_ample_trees,
    forest_canonical_form,
    is_isomorphic,
    parse_forest,
)
from .germs import (
    Indeterminate,
    UnimodularWitness,
    germ_equivalent,
    germ_from_json,
    germ_to_json,
)
from .laurent import GF2, LaurentPoly, hom_from_json, poly_to_json
from .pearl import PearlElement, pearl_d2, potential_from_json

SCHEMA = "1"
DEFAULT_SEED = 2010


class RunConfig(Value):
    """Everything one invocation needs; reports are a function of this value,
    except that a `certify` verdict printed to a terminal (no `out`) is
    coloured."""

    __slots__ = _fields = ("command", "params", "format", "seed", "expect", "out")

    def __init__(self, command, params=None, format="text", seed=DEFAULT_SEED, expect=None,
                 out=None):
        self._init(command, {} if params is None else params, format, seed, expect, out)


def _on_terminal(config: RunConfig) -> bool:
    """Whether the report is printed to a terminal that wants colour."""
    if config.out or os.environ.get("TWISTKIT_NO_COLOR"):
        return False
    return hasattr(sys.stdout, "isatty") and sys.stdout.isatty()


def _read(convert, *args, path=None):
    """`convert(*args)`, or `convert` of the JSON in the file at `path`: the
    one step that turns outside data into twistkit values.  A shape error in
    it (bad JSON is a ValueError, a number where a list belongs a TypeError,
    a list where an object belongs an AttributeError, a fraction "1/0" a
    ZeroDivisionError) is an input error, a `TwistKitError` chained from the
    original; an `OSError` of the file passes through."""
    try:
        if path is not None:
            with open(path, "r", encoding="utf-8") as fh:
                args = (json.load(fh),)
        return convert(*args)
    except RecursionError as exc:
        raise TwistKitError(
            f"input nested beyond the interpreter's recursion limit ({sys.getrecursionlimit()})"
        ) from exc
    except (KeyError, ValueError, TypeError, AttributeError, ZeroDivisionError) as exc:
        raise TwistKitError(exc) from exc


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, text_lines, expect_token)


def _cmd_trees(config: RunConfig):
    n = config.params["n"]
    cap = config.params.get("cap", DEFAULT_ENUMERATION_CAP)
    _read(check_enumeration_size, n, cap)
    if config.params.get("count_only", False):
        count = count_ample_trees(n)
        payload = {"n": n, "cap": cap, "count": count}
        lines = []
    else:
        forms = [canonical_form(t) for t in enumerate_ample_trees(n, cap=cap)]
        count = len(forms)
        payload = {"n": n, "cap": cap, "count": count, "trees": forms}
        lines = list(forms)
    lines.append(f"{count} ample tree(s) with {n} leaves")
    return payload, lines, str(count)


def _cmd_iso(config: RunConfig):
    left = _read(parse_forest, config.params["left"])
    right = _read(parse_forest, config.params["right"])
    result = is_isomorphic(left, right)
    payload = {
        "left": config.params["left"],
        "right": config.params["right"],
        "left_canonical": list(forest_canonical_form(left)),
        "right_canonical": list(forest_canonical_form(right)),
        "isomorphic": result,
    }
    lines = [f"isomorphic: {str(result).lower()}"]
    return payload, lines, "isomorphic" if result else "not-isomorphic"


def _preset_or_file(config: RunConfig, known: dict, of_preset, of_json):
    """`(of_preset(known[preset]()), source)` for `--preset`, or
    `(of_json(file JSON), source)` for `--in`, read through `_read`; exactly
    one of the two must be given."""
    preset = config.params.get("preset")
    path = config.params.get("infile")
    if preset and path:
        raise TwistKitError("give --preset or --in, not both")
    if preset:
        if preset not in known:
            raise TwistKitError(f"unknown preset {preset!r}; known: {sorted(known)}")
        return of_preset(known[preset]()), f"preset:{preset}"
    if path:
        return _read(of_json, path=path), f"file:{path}"
    raise TwistKitError("need --preset or --in")


def _cmd_classes(config: RunConfig):
    (table, file_bounds), source = _preset_or_file(
        config, presets.CONSTRAINT_PRESETS, lambda table: (table, None), table_from_json)
    bounds = config.params.get("bounds") or file_bounds
    classes = enumerate_candidate_classes(table, bounds=bounds)
    monomials = [
        str(LaurentPoly.monomial(GF2, table.basis.ring_names, c.coefficients)) for c in classes
    ]
    payload = {
        "source": source,
        "basis": list(table.basis.names),
        "ring_names": list(table.basis.ring_names),
        "target_maslov": table.target_maslov,
        "count": len(classes),
        "classes": [
            {
                "coefficients": list(c.coefficients),
                "boundary": list(c.boundary_class),
                "monomial": mono,
            }
            for c, mono in zip(classes, monomials)
        ],
    }
    lines = [f"candidate classes (target Maslov {table.target_maslov}):"]
    lines.append("  basis: " + " ".join(table.basis.names))
    for c, mono in zip(classes, monomials):
        lines.append(f"  {c.coefficients}  boundary {c.boundary_class}  ~ {mono}")
    lines.append(f"{len(classes)} class(es)")
    return payload, lines, str(len(classes))


def _bundle_from_json(data: dict):
    """`(potential, H0 hom or None, regularity hom or None)` of a potential file."""
    potential = potential_from_json(data)
    homs = data.get("homs", {})
    if not isinstance(homs, dict):
        raise ValueError(f'"homs" must be an object, got {type(homs).__name__}')
    h0 = hom_from_json(homs["h0"]) if "h0" in homs else None
    reg = hom_from_json(homs["regularity"]) if "regularity" in homs else None
    return potential, h0, reg


def _resolve_bundle(config: RunConfig):
    return _preset_or_file(
        config, presets.POTENTIAL_PRESETS,
        lambda bundle: (bundle.potential, bundle.h0_hom, bundle.regularity_hom), _bundle_from_json)


def _cmd_pearl(config: RunConfig):
    (potential, _, _), source = _resolve_bundle(config)
    vs = potential.toric_differential()
    n = len(potential.r_names)
    d2_rows = []
    for k, name in enumerate(potential.r_names):
        alpha = PearlElement.generator(potential.ring, potential.variables, n, k)
        d2_rows.append((name, str(pearl_d2(alpha, potential).component(()))))
    payload = {
        "source": source,
        "ring": potential.ring.tag,
        "variables": list(potential.variables),
        "potential": poly_to_json(potential.poly)["terms"],
        "u": str(potential.poly),
        "toric_differential": {name: str(v) for name, v in zip(potential.r_names, vs)},
        "d2_degree_one": {name: s for name, s in d2_rows},
    }
    lines = [f"potential U = {potential.poly}"]
    for name, v in zip(potential.r_names, vs):
        lines.append(f"v[{name}] = {v}")
    for name, s in d2_rows:
        lines.append(f"d2(dual of {name}) = {s}")
    return payload, lines, None


def _cmd_certify(config: RunConfig):
    (potential, h0_hom, regularity_hom), source = _resolve_bundle(config)
    report = certify_nondisplaceable(potential, h0_hom=h0_hom, regularity_hom=regularity_hom)
    payload = {"source": source, **report.to_json_dict()}
    lines = report.to_text()
    if _on_terminal(config):
        lines[-1] = f"\x1b[{'32' if report.token == 'certified' else '31'}m{lines[-1]}\x1b[0m"
    return payload, lines, report.token


def _resolve_germ(ref: str):
    if ref in presets.GERM_PRESETS:
        return presets.GERM_PRESETS[ref](), f"preset:{ref}"
    if os.path.exists(ref):
        return _read(germ_from_json, path=ref), f"file:{ref}"
    raise TwistKitError(
        f"{ref!r} is neither a germ preset ({sorted(presets.GERM_PRESETS)}) nor a file"
    )


def _cmd_germ(config: RunConfig):
    left, left_src = _resolve_germ(config.params["left"])
    right, right_src = _resolve_germ(config.params["right"])
    outcome = germ_equivalent(left, right)
    payload = {
        "left": {"source": left_src, **germ_to_json(left)},
        "right": {"source": right_src, **germ_to_json(right)},
    }
    if isinstance(outcome, UnimodularWitness):
        payload["equivalent"] = True
        payload["witness"] = [list(row) for row in outcome.matrix]
        payload["reason"] = None
        lines = [f"equivalent: true, witness {payload['witness']}"]
        token = "equivalent"
    elif isinstance(outcome, Indeterminate):
        payload["equivalent"] = None
        payload["witness"] = None
        payload["reason"] = outcome.reason
        lines = [f"indeterminate: {outcome.reason}"]
        token = "indeterminate"
    else:
        payload["equivalent"] = False
        payload["witness"] = None
        payload["reason"] = outcome.reason
        lines = [f"equivalent: false ({outcome.reason})"]
        token = "not-equivalent"
    return payload, lines, token


_SOURCE = (("--preset", {}), ("--in", dict(dest="infile")))
_PAIR = (("left", {}), ("right", {}))
_COMMON = (
    ("--format", dict(choices=("text", "json"), default="text")),
    ("--seed", dict(type=int, default=DEFAULT_SEED)),
    ("--expect", dict(help="exit 1 unless the result token matches")),
    ("--out", dict(help="write the report to a file")),
)

# name -> (handler, help line, its own arguments as (flag, add_argument kwargs)),
# in the order of the help text; each subcommand also takes the `_COMMON` ones
_COMMANDS = {
    "trees": (_cmd_trees, "enumerate ample rooted trees with n leaves", (
        ("n", dict(type=int)),
        ("--cap", dict(type=int, default=DEFAULT_ENUMERATION_CAP)),
        ("--count", dict(dest="count_only", action="store_true", help="emit the count only")),
    )),
    "iso": (_cmd_iso, "decide forest isomorphism of two expressions", _PAIR),
    "classes": (_cmd_classes, "enumerate candidate disc classes", _SOURCE + (
        ("--bounds", dict(help="a,b: only the box [a,b] in every coordinate")),
    )),
    "pearl": (_cmd_pearl, "potential, toric differentials, degree-one images", _SOURCE),
    "certify": (_cmd_certify, "run the non-displaceability certificate", _SOURCE),
    "germ": (_cmd_germ, "compare two displacement-energy germs", _PAIR),
}


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a config; returns (exit code, rendered report), or raises a
    `TwistKitError` or an `OSError` on bad input."""
    payload, lines, token = _COMMANDS[config.command][0](config)
    payload = {"schema": SCHEMA, "command": config.command, "seed": config.seed, **payload}
    if config.format == "json":
        rendered = json.dumps(payload, sort_keys=True, indent=2)
    else:
        rendered = "\n".join(lines)

    code = 0
    if config.expect is not None and token is not None and config.expect != token:
        code = 1
        if config.format != "json":
            rendered += f"\nexpectation failed: wanted {config.expect!r}, got {token!r}"
    return code, rendered


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a parse pays for it, not every import of the module

    parser = argparse.ArgumentParser(
        prog="twist-kit",
        description="exact computations for monotone Lagrangian twist tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in arguments + _COMMON:
            p.add_argument(flag, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config of parsed arguments: each `RunConfig` field from its dest,
    every other dest a param."""
    settings = {k: v for k, v in vars(args).items() if k in RunConfig._fields}
    params = {k: v for k, v in vars(args).items() if k not in RunConfig._fields}
    if params.get("bounds") is not None:
        try:
            lo, hi = (int(x) for x in params["bounds"].split(","))
        except ValueError:
            raise TwistKitError(f"--bounds wants 'a,b', got {params['bounds']!r}") from None
        if lo > hi:
            raise TwistKitError(f"--bounds wants a <= b, got {params['bounds']!r}")
        params["bounds"] = (lo, hi)
    return RunConfig(params=params, **settings)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = config_from_args(args)
        code, rendered = run(config)
        if config.out:
            with open(config.out, "w", encoding="utf-8") as fh:
                fh.write(rendered + "\n")
        else:
            print(rendered)
    # an input error, or an --out path that cannot be written; the type named
    # is that of the exception first raised, which `_read` chains as the cause
    except (TwistKitError, OSError) as exc:
        print(f"error: {type(exc.__cause__ or exc).__name__}: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
