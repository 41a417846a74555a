"""Command-line front end: reproducible reports over the library operations.

`_COMMANDS` is the one declaration of the subcommands: each name with its
handler, text writer, help line and arguments.  `build_parser` builds the
parser from it and `run` dispatches through it.  A handler returns its
report as a payload, emitted as deterministic JSON (`--format json`, sorted
keys) or as text by its writer (default).  The CLI is a thin adapter: every
computation is a library call.

Outside data (the `--in` tables and potentials, germ files, the `iso`
expressions, the n and cap of `trees`, the `--bounds` box) becomes twistkit
values only through `_read`, the one input boundary.

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
from .certificates import certify_nondisplaceable, report_text
from .discs import _normalize_bounds, enumerate_candidate_classes, table_from_json
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
from .matrices import as_int
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
# command handlers, returning (payload, expect token), and text writers of payloads


def _cmd_trees(config: RunConfig):
    cap = config.params.get("cap", DEFAULT_ENUMERATION_CAP)
    n = _read(check_enumeration_size, config.params["n"], cap)
    cap = as_int(cap)  # the cap as check_enumeration_size read it
    if config.params.get("count_only", False):
        payload = {"n": n, "cap": cap, "count": count_ample_trees(n)}
    else:
        forms = [canonical_form(t) for t in enumerate_ample_trees(n, cap=cap)]
        payload = {"n": n, "cap": cap, "count": len(forms), "trees": forms}
    return payload, str(payload["count"])


def _text_trees(p):
    return p.get("trees", []) + [f"{p['count']} ample tree(s) with {p['n']} leaves"]


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
    return payload, "isomorphic" if result else "not-isomorphic"


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
    bounds = _read(_normalize_bounds, config.params.get("bounds") or file_bounds,
                   len(table.basis.names))
    classes = enumerate_candidate_classes(table, bounds=bounds)
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
                "monomial": str(LaurentPoly.monomial(GF2, table.basis.ring_names, c.coefficients)),
            }
            for c in classes
        ],
    }
    return payload, str(len(classes))


def _text_classes(p):
    return [
        f"candidate classes (target Maslov {p['target_maslov']}):",
        "  basis: " + " ".join(p["basis"]),
        *(f"  {tuple(c['coefficients'])}  boundary {tuple(c['boundary'])}  ~ {c['monomial']}"
          for c in p["classes"]),
        f"{p['count']} class(es)",
    ]


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
    ring, variables, names = potential.ring, potential.variables, potential.r_names
    d2 = [pearl_d2(PearlElement.generator(ring, variables, len(names), k), potential)
          for k in range(len(names))]
    payload = {
        "source": source,
        "ring": ring.tag,
        "variables": list(variables),
        "potential": poly_to_json(potential.poly)["terms"],
        "u": str(potential.poly),
        "toric_differential": dict(zip(names, map(str, potential.toric_differential()))),
        "d2_degree_one": {name: str(d.component(())) for name, d in zip(names, d2)},
    }
    return payload, None


def _text_pearl(p):
    return [
        f"potential U = {p['u']}",
        *(f"v[{name}] = {v}" for name, v in p["toric_differential"].items()),
        *(f"d2(dual of {name}) = {s}" for name, s in p["d2_degree_one"].items()),
    ]


def _cmd_certify(config: RunConfig):
    (potential, h0_hom, regularity_hom), source = _resolve_bundle(config)
    report = certify_nondisplaceable(potential, h0_hom=h0_hom, regularity_hom=regularity_hom)
    return {"source": source, **report.to_json_dict()}, report.token


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
    if isinstance(outcome, UnimodularWitness):
        equivalent, witness, token = True, [list(row) for row in outcome.matrix], "equivalent"
    elif isinstance(outcome, Indeterminate):
        equivalent, witness, token = None, None, "indeterminate"
    else:
        equivalent, witness, token = False, None, "not-equivalent"
    return {
        "left": {"source": left_src, **germ_to_json(left)},
        "right": {"source": right_src, **germ_to_json(right)},
        "equivalent": equivalent,
        "witness": witness,
        "reason": getattr(outcome, "reason", None),
    }, token


def _text_germ(p):
    if p["equivalent"]:
        return [f"equivalent: true, witness {p['witness']}"]
    if p["equivalent"] is None:
        return [f"indeterminate: {p['reason']}"]
    return [f"equivalent: false ({p['reason']})"]


_SOURCE = (("--preset", {}), ("--in", dict(dest="infile")))
_PAIR = (("left", {}), ("right", {}))
_COMMON = (
    ("--format", dict(choices=("text", "json"), default="text")),
    ("--seed", dict(type=int, default=DEFAULT_SEED)),
    ("--expect", dict(help="exit 1 unless the result token matches")),
    ("--out", dict(help="write the report to a file")),
)

# name -> (handler, text writer, help line, own arguments as (flag, kwargs)), in
# the order of the help text; each subcommand also takes the `_COMMON` ones
_COMMANDS = {
    "trees": (_cmd_trees, _text_trees, "enumerate ample rooted trees with n leaves", (
        ("n", dict(type=int)),
        ("--cap", dict(type=int, default=DEFAULT_ENUMERATION_CAP)),
        ("--count", dict(dest="count_only", action="store_true", help="emit the count only")),
    )),
    "iso": (_cmd_iso, lambda p: [f"isomorphic: {str(p['isomorphic']).lower()}"],
            "decide forest isomorphism of two expressions", _PAIR),
    "classes": (_cmd_classes, _text_classes, "enumerate candidate disc classes", _SOURCE + (
        ("--bounds", dict(help="a,b: only the box [a,b] in every coordinate")),
    )),
    "pearl": (_cmd_pearl, _text_pearl, "potential, toric differentials, degree-one images",
              _SOURCE),
    "certify": (_cmd_certify, report_text, "run the non-displaceability certificate", _SOURCE),
    "germ": (_cmd_germ, _text_germ, "compare two displacement-energy germs", _PAIR),
}


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a config; returns (exit code, rendered report), or raises a
    `TwistKitError` or an `OSError` on bad input."""
    handler, write_text = _COMMANDS[config.command][:2]
    payload, token = handler(config)
    if config.expect is not None and token is None:
        raise TwistKitError(f"{config.command} has no result token for --expect")
    failed = config.expect is not None and config.expect != token
    if config.format == "json":
        header = {"schema": SCHEMA, "command": config.command, "seed": config.seed}
        return int(failed), json.dumps({**header, **payload}, sort_keys=True, indent=2)
    lines = write_text(payload)
    if config.command == "certify" and _on_terminal(config):
        lines[-1] = f"\x1b[{'32' if token == 'certified' else '31'}m{lines[-1]}\x1b[0m"
    if failed:
        lines.append(f"expectation failed: wanted {config.expect!r}, got {token!r}")
    return int(failed), "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    import argparse  # only a parse pays for it, not every import of the module

    parser = argparse.ArgumentParser(
        prog="twist-kit",
        description="exact computations for monotone Lagrangian twist tori",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_line, arguments) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        for flag, kwargs in arguments + _COMMON:
            p.add_argument(flag, **kwargs)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    """The config of parsed arguments: each `RunConfig` field from its dest,
    every other dest a param.  `--bounds` is only split into its two ints
    here; `classes` checks the box as it checks a table file's."""
    settings = {k: v for k, v in vars(args).items() if k in RunConfig._fields}
    params = {k: v for k, v in vars(args).items() if k not in RunConfig._fields}
    if params.get("bounds") is not None:
        try:
            lo, hi = (int(x) for x in params["bounds"].split(","))
        except ValueError:
            raise TwistKitError(f"--bounds wants 'a,b', got {params['bounds']!r}") from None
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
