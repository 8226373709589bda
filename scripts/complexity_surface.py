#!/usr/bin/env python3
"""Word counts, entropy estimates, and a rectangle-count surface.

For each built-in infinite shift: the complexity sequence, the entropy
upper estimates it yields, and the periodicity test.  Then the number of
n-by-k rectangles in the spacetime of the radius-1 parity rule over the
full shift, the two-dimensional analog of the same counting.
"""

import argparse
from pathlib import Path

from shiftlab.blockcode import code_from_table
from shiftlab.corpus import INFINITE_BUILTIN_SHIFTS, builtin_shifts, load_rule_table
from shiftlab.shiftlang import entropy_profile, morse_hedlund_test
from shiftlab.spacetime import rectangle_counts

RULES = Path(__file__).resolve().parent / "rules" / "parity_rule.txt"


def complexity_table(depth: int) -> None:
    shifts = builtin_shifts()
    for name in INFINITE_BUILTIN_SHIFTS:
        shift = shifts[name]
        profile = entropy_profile(shift, depth)
        verdict = morse_hedlund_test(shift, depth)
        print(f"{name}:")
        print("  P(n):    " + " ".join(str(v) for v in profile.values))
        print(
            "  entropy: "
            + " ".join(f"{e:.4f}" for e in profile.entropy_estimates)
            + f"  (upper estimate {profile.entropy_upper_estimate:.4f})"
        )
        print(f"  periodicity witness: {verdict.witness}")
        print()


def rectangle_surface(side: int) -> None:
    domain = builtin_shifts()["full-2"]
    parity = code_from_table(domain, 1, load_rule_table(RULES.read_text()))
    print("parity rule spacetime rectangles (rows k, columns n):")
    header = "  k\\n " + "".join(f"{n:>8}" for n in range(1, side + 1))
    print(header)
    counts = rectangle_counts(domain, parity, side, side)
    for k in range(1, side + 1):
        print(f"  {k:<4}" + "".join(f"{counts[n, k]:>8}" for n in range(1, side + 1)))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=12, help="largest word length")
    parser.add_argument("--side", type=int, default=5, help="largest rectangle side")
    args = parser.parse_args()
    complexity_table(args.depth)
    rectangle_surface(args.side)


if __name__ == "__main__":
    main()
