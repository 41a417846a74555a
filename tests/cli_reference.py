"""The hand-written argument parser that `twistkit.cli` used before its
subcommand table, kept as a reference for the tests: the same subcommands,
arguments, defaults and help text, written out one subparser at a time."""

import argparse

from twistkit.cli import DEFAULT_SEED
from twistkit.forests import DEFAULT_ENUMERATION_CAP


def build_parser() -> argparse.ArgumentParser:
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
