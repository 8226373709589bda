#!/usr/bin/env python3
"""Survey how fast central and affine elements shrink in the word metric.

Prints the measured length profile of the distinguished distorted element
of each built-in non-abelian group, side by side with the certificate
lengths that witness the upper bound, and the fitted trend.  The nilpotent
survey runs over the two non-central generators, where the square-root
compression of the center is visible from the first few powers.
"""

import argparse

from shiftlab.corpus import builtin_groups
from shiftlab.grouplab import GeneratingSet, WordExpr, auto_certifier, distortion_profile

# group name -> (element, generator names to keep, or None for the standard set)
SURVEY = {
    "heisenberg": ("s", ("u", "t")),
    "bs-2": ("a", None),
    "bs-3": ("a", None),
}


def survey(group_name: str, element: str, keep, depth: int, radius: int) -> None:
    model, gens = builtin_groups()[group_name]
    word = WordExpr.parse(element)
    g = word.evaluate(model, gens.binding())
    if keep is not None:
        binding = gens.binding()
        gens = GeneratingSet.from_named(model, {name: binding[name] for name in keep})
    certifier = auto_certifier(model, word)
    profile = distortion_profile(
        model, gens, g, depth, radius_max=radius, certifier=certifier
    )
    over = ", ".join(sorted(gens.binding()))
    print(f"{group_name}: powers of {element} over generators {over}")
    print(f"  trend: {profile.trend_class}")
    print("  n  length  kind    certificate")
    for entry in profile.entries:
        cert = certifier(entry.n).length if certifier else ""
        value = "?" if entry.value is None else entry.value
        print(f"  {entry.n:<2} {value:>6}  {entry.kind:<7} {cert}")
    print()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--depth", type=int, default=64, help="largest power")
    parser.add_argument("--radius", type=int, default=10, help="exact-search radius")
    args = parser.parse_args()
    for group_name, (element, keep) in SURVEY.items():
        survey(group_name, element, keep, args.depth, args.radius)


if __name__ == "__main__":
    main()
