"""Command-line front end: reproducible reports over the library operations.

Subcommands: trees, iso, classes, pearl, certify, germ.  Reports are emitted
as text (default) or deterministic JSON (`--format json`, sorted keys).  The
CLI is a thin adapter: every computation is a library call.

Exit codes: 0 success, 1 a result contradicting `--expect`, 2 input errors.
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
    """Everything one invocation needs; reports are a function of this value."""

    __slots__ = _fields = ("command", "params", "format", "seed", "expect", "out")

    def __init__(self, command, params=None, format="text", seed=DEFAULT_SEED, expect=None,
                 out=None):
        self._init(command, {} if params is None else params, format, seed, expect, out)


def _color_enabled() -> bool:
    if os.environ.get("TWISTKIT_NO_COLOR"):
        return False
    return hasattr(sys.stdout, "isatty") and sys.stdout.isatty()


def _style(text: str, code: str) -> str:
    if not _color_enabled():
        return text
    return f"\x1b[{code}m{text}\x1b[0m"


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# command handlers: each returns (payload, text_lines, expect_token)


def _cmd_trees(config: RunConfig):
    n = config.params["n"]
    cap = config.params.get("cap", DEFAULT_ENUMERATION_CAP)
    if config.params.get("count_only", False):
        check_enumeration_size(n, cap)
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
    left = parse_forest(config.params["left"])
    right = parse_forest(config.params["right"])
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


def _preset_or_file(config: RunConfig, known: dict):
    """`(preset value, None, source)` for `--preset`, looked up in `known`
    and called, or `(None, file JSON, source)` for `--in`; exactly one of
    the two must be given."""
    preset = config.params.get("preset")
    path = config.params.get("infile")
    if preset and path:
        raise TwistKitError("give --preset or --in, not both")
    if preset:
        if preset not in known:
            raise TwistKitError(f"unknown preset {preset!r}; known: {sorted(known)}")
        return known[preset](), None, f"preset:{preset}"
    if path:
        return None, _load_json(path), f"file:{path}"
    raise TwistKitError("need --preset or --in")


def _resolve_table(config: RunConfig):
    table, data, source = _preset_or_file(config, presets.CONSTRAINT_PRESETS)
    if data is None:
        return table, None, source
    return (*table_from_json(data), source)


def _cmd_classes(config: RunConfig):
    table, file_bounds, source = _resolve_table(config)
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


def _resolve_bundle(config: RunConfig):
    bundle, data, source = _preset_or_file(config, presets.POTENTIAL_PRESETS)
    if data is None:
        return bundle.potential, bundle.h0_hom, bundle.regularity_hom, source
    potential = potential_from_json(data)
    homs = data.get("homs", {})
    if not isinstance(homs, dict):
        raise ValueError(f'"homs" must be an object, got {type(homs).__name__}')
    h0 = hom_from_json(homs["h0"]) if "h0" in homs else None
    reg = hom_from_json(homs["regularity"]) if "regularity" in homs else None
    return potential, h0, reg, source


def _cmd_pearl(config: RunConfig):
    potential, _, _, source = _resolve_bundle(config)
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
    potential, h0_hom, regularity_hom, source = _resolve_bundle(config)
    report = certify_nondisplaceable(potential, h0_hom=h0_hom, regularity_hom=regularity_hom)
    payload = {"source": source, **report.to_json_dict()}
    lines = report.to_text()
    verdict_line = lines[-1]
    color = "32" if report.token == "certified" else "31"
    lines[-1] = _style(verdict_line, color)
    return payload, lines, report.token


def _resolve_germ(ref: str):
    if ref in presets.GERM_PRESETS:
        return presets.GERM_PRESETS[ref](), f"preset:{ref}"
    if os.path.exists(ref):
        return germ_from_json(_load_json(ref)), f"file:{ref}"
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


_HANDLERS = {
    "trees": _cmd_trees,
    "iso": _cmd_iso,
    "classes": _cmd_classes,
    "pearl": _cmd_pearl,
    "certify": _cmd_certify,
    "germ": _cmd_germ,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Dispatch a config; returns (exit code, rendered report)."""
    try:
        payload, lines, token = _HANDLERS[config.command](config)
    # an input error: a bad file (a JSONDecodeError is a ValueError), or one of
    # the wrong shape, such as a number where a list belongs (a TypeError) or
    # a list where an object belongs (an AttributeError)
    except (TwistKitError, OSError, KeyError, ValueError, TypeError, AttributeError) as exc:
        return 2, f"error: {type(exc).__name__}: {exc}"
    except RecursionError:
        return 2, (
            "error: input nested beyond the interpreter's recursion limit "
            f"({sys.getrecursionlimit()})"
        )

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

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--expect", default=None, help="exit 1 unless the result token matches")
        p.add_argument("--out", default=None, help="write the report to a file")

    p = sub.add_parser("trees", help="enumerate ample rooted trees with n leaves")
    p.add_argument("n", type=int)
    p.add_argument("--cap", type=int, default=DEFAULT_ENUMERATION_CAP)
    p.add_argument("--count", dest="count_only", action="store_true", help="emit the count only")
    common(p)

    p = sub.add_parser("iso", help="decide forest isomorphism of two expressions")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

    p = sub.add_parser("classes", help="enumerate candidate disc classes")
    p.add_argument("--preset", default=None)
    p.add_argument("--in", dest="infile", default=None)
    p.add_argument("--bounds", default=None, help="a,b: only the box [a,b] in every coordinate")
    common(p)

    p = sub.add_parser("pearl", help="potential, toric differentials, degree-one images")
    p.add_argument("--preset", default=None)
    p.add_argument("--in", dest="infile", default=None)
    common(p)

    p = sub.add_parser("certify", help="run the non-displaceability certificate")
    p.add_argument("--preset", default=None)
    p.add_argument("--in", dest="infile", default=None)
    common(p)

    p = sub.add_parser("germ", help="compare two displacement-energy germs")
    p.add_argument("left")
    p.add_argument("right")
    common(p)

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
        params["bounds"] = (lo, hi)
    return RunConfig(params=params, **settings)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = config_from_args(args)
    except TwistKitError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    code, rendered = run(config)
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            fh.write(rendered + "\n")
    else:
        print(rendered)
    return code


if __name__ == "__main__":
    sys.exit(main())
