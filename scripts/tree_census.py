#!/usr/bin/env python3
"""Census of ample rooted trees by leaf count.

Prints the number of primitive twist-torus shapes per dimension together
with the successive growth ratios (they approach a constant between 3 and 4).
"""

import argparse
import sys

from twistkit.forests import count_ample_trees, enumerate_ample_trees


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max", type=int, default=14, help="largest leaf count")
    parser.add_argument(
        "--verify",
        type=int,
        default=10,
        help="cross-check counts against full enumeration up to this size",
    )
    args = parser.parse_args()

    print(f"{'n':>3} {'count':>12} {'ratio':>8}")
    previous = None
    for n in range(1, args.max + 1):
        count = count_ample_trees(n)
        if n <= args.verify:
            enumerated = len(enumerate_ample_trees(n, cap=max(16, args.verify)))
            if enumerated != count:
                print(f"n = {n}: enumerated {enumerated} trees, counted {count}",
                      file=sys.stderr)
                sys.exit(1)
        ratio = f"{count / previous:8.4f}" if previous else " " * 8
        print(f"{n:>3} {count:>12} {ratio}")
        previous = count


if __name__ == "__main__":
    main()
