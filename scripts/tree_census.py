#!/usr/bin/env python3
"""Census of ample rooted trees by leaf count.

Prints the number of primitive twist-torus shapes per dimension together
with the successive growth ratios (they approach a constant between 3 and 4).
Up to the `--verify` size it also enumerates every tree, checks the count,
checks that the level is strictly increasing by canonical key (sorted, with
no tree twice), and checks that each tree's stored canonical key and leaf
count are those the public constructor derives from its children, since the
enumerator builds its trees without that constructor.
"""

import argparse
import sys

from twistkit.forests import RootedTree, count_ample_trees, enumerate_ample_trees


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
            trees = enumerate_ample_trees(n, cap=max(16, args.verify))
            if len(trees) != count:
                print(f"n = {n}: enumerated {len(trees)} trees, counted {count}",
                      file=sys.stderr)
                sys.exit(1)
            for left, right in zip(trees, trees[1:]):
                if not left.canonical_key < right.canonical_key:
                    print(f"n = {n}: key {left.canonical_key} is followed by "
                          f"{right.canonical_key}", file=sys.stderr)
                    sys.exit(1)
            for tree in trees:
                rebuilt = RootedTree(tree.children)
                if (tree.canonical_key, tree.leaf_count) != (rebuilt.canonical_key,
                                                             rebuilt.leaf_count):
                    print(f"n = {n}: {tree} stores key {tree.canonical_key} and "
                          f"{tree.leaf_count} leaves, its children give "
                          f"{rebuilt.canonical_key} and {rebuilt.leaf_count}",
                          file=sys.stderr)
                    sys.exit(1)
        ratio = f"{count / previous:8.4f}" if previous else " " * 8
        print(f"{n:>3} {count:>12} {ratio}")
        previous = count


if __name__ == "__main__":
    main()
