"""Seeded configuration documents, one generator per workload.

`generate(workload, seed)` returns `(document, expect)`.  The document is a
`shiftlab run` configuration; `expect` maps run names to values the
generator knows by construction (word lengths of elements it built, for
instance), which the correctness gate compares with the program's output.

Random choices draw from `random.Random` seeded with a string, which
hashes with SHA-512 rather than `hash()`, and documents are serialized
with sorted keys, so one seed gives one byte string under every
`PYTHONHASHSEED`.

Work is held steady across seeds: random codes are permutive in an edge
coordinate, so the ranges of their powers, and with them every table
size, are fixed; random shifts of finite type and substitutions are drawn
until their word counts match a fixed reference, so every seed enumerates
the same number of words.
"""

from __future__ import annotations

import json
import random
from itertools import product
from math import isqrt

from oracle import Affine, Heisenberg, Sft, ball_distances

DEFAULT_SEED = 1
TABLE_BUDGET = 2**14


def _run(name, operation, **params):
    return {"name": name, "operation": operation, "params": params}


def _document(runs, shifts=None, codes=None, groups=None):
    return {
        "shifts": shifts or {},
        "codes": codes or {},
        "groups": groups or {},
        "runs": runs,
        "out_dir": "results",
        "budgets": {"table_rows": TABLE_BUDGET, "bfs_states": 2_000_000, "radius_cap": 14},
    }


def dumps(doc) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


# -- random objects ------------------------------------------------------------


def permutive_table(rng, alphabet: str, radius: int, side: str) -> dict:
    """Random local rule that permutes the alphabet in its leftmost (or
    rightmost) window coordinate for every setting of the others, so its
    n-th power has minimal range exactly n * radius."""
    table = {}
    for rest in product(alphabet, repeat=2 * radius):
        rest = "".join(rest)
        image = rng.sample(alphabet, len(alphabet))
        for a, out in zip(alphabet, image):
            table[a + rest if side == "left" else rest + a] = out
    return table


def pick_sft(rng, reference: dict, length: int) -> dict:
    """Random infinite SFT whose word counts P(1..length) equal those of
    `reference`, so every seed enumerates the same number of words."""
    alphabet = reference["alphabet"]
    target = Sft(alphabet, reference["forbidden"]).counts(length)
    while True:
        forbidden = sorted(
            {
                "".join(rng.choice(alphabet) for _ in range(rng.randint(2, 4)))
                for _ in range(rng.randint(1, 3))
            }
        )
        sft = Sft(alphabet, forbidden)
        if not sft.empty and sft.infinite and sft.counts(length) == target:
            return {"kind": "sft", "alphabet": alphabet, "forbidden": forbidden}


# growth rates about 1.62 and 2.88
BINARY_SFT = {"alphabet": "01", "forbidden": ["001"]}
TERNARY_SFT = {"alphabet": "012", "forbidden": ["122"]}
SUBSTITUTION = {"0": "21", "1": "02", "2": "12"}


def pick_substitution(rng, length=40) -> dict:
    """Random primitive length-2 substitution on 012 whose factor counts up
    to `length`, taken on one long iterate, equal those of SUBSTITUTION."""
    target = _factor_counts(SUBSTITUTION, length)
    while True:
        rules = {a: rng.choice("012") + rng.choice("012") for a in "012"}
        if _primitive(rules) and _factor_counts(rules, length) == target:
            return {"kind": "substitution", "alphabet": "012", "rules": rules}


def _primitive(rules) -> bool:
    letters = sorted(rules)
    reach = {a: set(rules[a]) for a in letters}
    for _ in range(len(letters) ** 2):
        if all(reach[a] == set(letters) for a in letters):
            return True
        reach = {a: {c for b in reach[a] for c in rules[b]} for a in letters}
    return False


def _factor_counts(rules, length, size=2048) -> list:
    word = "0"
    while len(word) < size:
        word = "".join(rules[c] for c in word)
    return [len({word[i : i + n] for i in range(len(word) - n + 1)}) for n in range(1, length + 1)]


def log_entries(rng, length):
    """Subadditive range profile growing like log n."""
    c = rng.randint(1, 3)
    return [c * n.bit_length() for n in range(1, length + 1)]


def sqrt_entries(rng, length):
    """Subadditive range profile growing like sqrt(n)."""
    c = rng.randint(1, 3)
    return [c * (isqrt(n - 1) + 1) for n in range(1, length + 1)]


def zd_word(rng, d: int, length: int) -> str:
    """Random word in e1..ed whose element has L1 norm `length`."""
    cuts = sorted(rng.randint(0, length) for _ in range(d - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [length])]
    tokens = []
    for i, part in enumerate(parts):
        sign = rng.choice((1, -1))
        while part:
            step = rng.randint(1, part)
            tokens.append(f"e{i + 1}^{sign * step}")
            part -= step
    rng.shuffle(tokens)
    return " ".join(tokens)


def sphere_word(rng, group, radius: int, gens: dict) -> str:
    """Word for a random element at exact distance `radius`, padded with a
    cancelling pair so it is not itself a geodesic."""
    names = list(gens)
    letters = [(n, 1) for n in names] + [(n, -1) for n in names]
    dist = ball_distances(group, gens, radius)
    sphere = sorted((g for g, d in dist.items() if d == radius), key=repr)
    target = rng.choice(sphere)
    # walk back to the identity along decreasing distance
    word = []
    g = target
    while dist[g]:
        for name, e in letters:
            step = gens[name] if e < 0 else group.inv(gens[name])
            h = group.mul(g, step)
            if dist.get(h) == dist[g] - 1:
                word.append((name, e))
                g = h
                break
    word.reverse()
    name, e = rng.choice(letters)
    at = rng.randint(0, len(word))
    word[at:at] = [(name, e), (name, -e)]
    return " ".join(n if e == 1 else f"{n}^{e}" for n, e in word)


# -- workloads -------------------------------------------------------------------


def language_counts(rng):
    depth_a, depth_b = 17, 9
    sft_a = pick_sft(rng, BINARY_SFT, depth_a)
    sft_b = pick_sft(rng, TERNARY_SFT, depth_b)
    shifts = {
        "full-3": {"kind": "full", "alphabet": "012"},
        "sft-a": sft_a,
        "sft-b": sft_b,
        "subst": pick_substitution(rng),
    }
    sides = ("left", "right")
    runs = [
        _run("full2-complexity", "complexity", shift="full-2", depth=12),
        _run("full3-complexity", "complexity", shift="full-3", depth=8),
        _run("sfta-complexity", "complexity", shift="sft-a", depth=depth_a),
        _run("sftb-complexity", "complexity", shift="sft-b", depth=depth_b),
        _run("golden-complexity", "complexity", shift="golden-mean", depth=18),
        _run("fib-complexity", "complexity", shift="fibonacci", depth=100),
        _run("subst-complexity", "complexity", shift="subst", depth=70),
        _run("subst-periodicity", "morse_hedlund", shift="subst", limit=60),
        _run("orbit-periodicity", "morse_hedlund", shift="periodic-01", limit=8),
        _run("sfta-periodicity", "morse_hedlund", shift="sft-a", limit=depth_a),
        _run("golden-special", "special_words", shift="golden-mean", length=17,
             side=rng.choice(sides)),
        _run("sftb-special", "special_words", shift="sft-b", length=depth_b - 1,
             side=rng.choice(sides)),
        _run("full2-special", "special_words", shift="full-2", length=11,
             side=rng.choice(sides)),
        _run("full2-entropy-audit", "audit_entropy", shift="full-2", depth_complexity=12,
             range_entries=log_entries(rng, rng.randint(16, 32))),
        _run("golden-polynomial-audit", "audit_polynomial", shift="golden-mean", depth=16,
             range_entries=sqrt_entries(rng, rng.randint(16, 32)),
             require_sublinear=False, root=rng.randint(1, 3)),
    ]
    return _document(runs, shifts=shifts), {}


def code_tables(rng):
    depth_c, depth_d = 8, 4
    sft_c = pick_sft(rng, BINARY_SFT, 2 * depth_c + 1)
    sft_d = pick_sft(rng, TERNARY_SFT, 2 * depth_d + 1)
    shifts = {"full-3": {"kind": "full", "alphabet": "012"}, "sft-c": sft_c, "sft-d": sft_d}

    def table(domain, alphabet, radius):
        side = rng.choice(("left", "right"))
        return {"kind": "table", "domain": domain,
                "table": permutive_table(rng, alphabet, radius, side)}

    codes = {
        "perm-2r1": table("full-2", "01", 1),
        "perm-2r2": table("full-2", "01", 2),
        "perm-3r1": table("full-3", "012", 1),
        "perm-2r1-cubed": {"kind": "power", "base": "perm-2r1", "exponent": 3},
        "sftc-shift": {"kind": "shift_power", "domain": "sft-c", "exponent": 1},
        "sftd-shift": {"kind": "shift_power", "domain": "sft-d", "exponent": -1},
    }
    runs = [
        _run("perm2r1-profile", "range_profile", code="perm-2r1", depth=12),
        _run("perm2r1-profile-again", "range_profile", code="perm-2r1", depth=12),
        _run("perm2r2-profile", "range_profile", code="perm-2r2", depth=6),
        _run("perm3r1-profile", "range_profile", code="perm-3r1", depth=6),
        _run("sftc-profile", "range_profile", code="sftc-shift", depth=depth_c),
        _run("sftc-profile-again", "range_profile", code="sftc-shift", depth=depth_c),
        _run("sftd-profile", "range_profile", code="sftd-shift", depth=depth_d),
        _run("cubed-range", "minimal_range", code="perm-2r1-cubed"),
        _run("sftc-inverse", "inverse_search", code="sftc-shift", radius_cap=2),
        _run("flip-inverse", "inverse_search", code="full-2/flip", radius_cap=1),
        _run("perm2r1-endo", "endomorphism_check", code="perm-2r1"),
        _run("perm2r2-endo", "endomorphism_check", code="perm-2r2"),
        _run("sftd-endo", "endomorphism_check", code="sftd-shift"),
        _run("sftc-power-floor", "audit_shift_power", shift="sft-c", exponent=1, depth=4),
        _run("sftd-power-floor", "audit_shift_power", shift="sft-d", exponent=-1, depth=3),
        _run("sftc-word-growth", "audit_range_word", group="z1", element="e1",
             codes={"step": "sftc-shift"}, element_code="sftc-shift", depth=4, radius=8),
    ]
    return _document(runs, shifts=shifts, codes=codes), {}


def spacetime_patches(rng):
    codes = {
        "perm-a": {"kind": "table", "domain": "full-2",
                   "table": permutive_table(rng, "01", 1, "left")},
        "perm-b": {"kind": "table", "domain": "full-2",
                   "table": permutive_table(rng, "01", 1, "right")},
    }
    segment = [[-1, 0], [0, 0], [1, 0]]
    runs = [
        _run("perma-rectangles", "rectangle_complexity", shift="full-2", code="perm-a",
             cols=5, rows=4),
        _run("permb-rectangles", "rectangle_complexity", shift="full-2", code="perm-b",
             cols=6, rows=4),
        _run("perma-threshold", "cyr_kra", shift="full-2", code="perm-a", length=5, height=4),
        _run("perma-codes-segment", "coding_check", shift="full-2", code="perm-a",
             length=5, height=4, cells_a=segment, cells_b=[[0, 1]]),
        _run("perma-right-half", "coding_check", shift="full-2", code="perm-a",
             length=5, height=4, cells_a=[[0, 0], [1, 0], [2, 0]], cells_b=[[0, 1]]),
        _run("permb-left-half", "coding_check", shift="full-2", code="perm-b",
             length=6, height=4, cells_a=[[-2, 0], [-1, 0], [0, 0]], cells_b=[[0, 1]]),
        _run("perma-column-period", "vertical_period", shift="full-2", code="perm-a",
             length=5, height=4),
        _run("fib-rectangles", "rectangle_complexity", shift="fibonacci",
             code="fibonacci/shift", cols=16, rows=10),
        _run("fib-threshold", "cyr_kra", shift="fibonacci", code="fibonacci/shift",
             length=16, height=8),
        _run("fib-codes-segment", "coding_check", shift="fibonacci", code="fibonacci/shift",
             length=16, height=8, cells_a=segment, cells_b=[[0, 1]]),
        _run("orbit-flip-rectangles", "rectangle_complexity", shift="periodic-01",
             code="periodic-01/flip", cols=8, rows=8),
        _run("orbit-flip-period", "vertical_period", shift="periodic-01",
             code="periodic-01/flip", length=8, height=12),
        _run("orbit-shift-threshold", "cyr_kra", shift="periodic-01",
             code="periodic-01/shift", length=6, height=6),
    ]
    return _document(runs, codes=codes), {}


def word_metrics(rng):
    groups = {"z3": {"kind": "free_abelian", "rank": 3}}
    expect = {}
    runs = [
        _run("bs2-distortion", "distortion", group="bs-2", element="a", depth=1000, radius=9),
        _run("bs3-distortion", "distortion", group="bs-3", element="a", depth=1000, radius=8),
        _run("heis-distortion", "distortion", group="heisenberg", element="s",
             depth=1400, radius=8),
        _run("heis-growth", "ball_growth", group="heisenberg", radius=16),
        _run("z3-growth", "ball_growth", group="z3", radius=20),
        _run("z2-growth", "ball_growth", group="z2", radius=60),
    ]
    for i, (group, d, length) in enumerate((("z2", 2, 40), ("z3", 3, 18), ("z3", 3, 18))):
        name = f"{group}-length-{i}"
        runs.append(_run(name, "word_length", group=group, element=zd_word(rng, d, length),
                         radius=length + 2))
        expect[name] = length
    for i, (group, model, radius) in enumerate(
        (("heisenberg", Heisenberg(), 7), ("bs-2", Affine(2), 7))
    ):
        name = f"{group}-length-{i}"
        element = sphere_word(rng, model, radius, model.gens)
        runs.append(_run(name, "word_length", group=group, element=element, radius=radius + 1))
        expect[name] = radius
    for base, digits in ((2, 200), (3, 120)):
        m = rng.randrange(base ** (digits - 1), base**digits)
        runs.append(_run(f"horner-base{base}", "certificate", kind="bs_horner", m=m, base=base))
    runs.append(_run("central-base-q", "certificate", kind="heisenberg_base_q",
                     n=rng.randrange(10**39, 10**40)))
    runs.append(_run("central-square", "certificate", kind="heisenberg_square",
                     n=rng.randrange(10**5, 10**6)))
    runs.append(_run("nilpotent-degree", "growth_formula", formula="bass_guivarch",
                     ranks=[rng.randint(1, 4) for _ in range(rng.randint(2, 5))]))
    runs.append(_run("min-degree", "growth_formula", formula="min_growth_degree",
                     step=rng.randint(2, 9)))
    runs.append(_run("embedding-step", "growth_formula", formula="embedding_step_bound",
                     complexity_exponent=rng.randint(3, 60)))
    return _document(runs, groups=groups), expect


WORKLOADS = {
    "language-counts": language_counts,
    "code-tables": code_tables,
    "spacetime-patches": spacetime_patches,
    "word-metrics": word_metrics,
}


def generate(workload: str, seed: int):
    rng = random.Random(f"{workload}/{seed}")
    return WORKLOADS[workload](rng)
