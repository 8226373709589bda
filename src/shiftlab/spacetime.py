"""Spacetime patches of a block code acting on a subshift.

Stacking x, phi(x), phi^2(x), ... as rows of a two-dimensional picture
turns questions about the code into questions about a 2D configuration:
how many n-wide, k-tall rectangles occur, which cell sets determine which
others, and whether low rectangle count forces a periodicity vector.
Rows are indexed upward from 0 (the base point), columns left to right.

Each application of the code eats one radius off both ends of the
generating word, so a full-height patch of width n needs a word of length
n + 2(k-1)r; every row is then read off centered.
"""

from __future__ import annotations

import math
from itertools import accumulate, repeat
from operator import itemgetter

from .blockcode import BlockCode, _Images, apply_to_word, check_words, minimized
from .errors import DEFAULT_TABLE_BUDGET, field, record
from .shiftlang import ShiftPresentation


@record
class SpacetimePatch:
    """One n-wide, k-tall rectangle of a spacetime configuration.

    Identity (equality, hashing, dedup) is the cell content alone; the
    generating word rides along for reporting.
    """

    width: int
    height: int
    rows: tuple[str, ...]
    source_word: str = field(default="", compare=False)

    def __post_init__(self):
        if self.height != len(self.rows):
            raise ValueError("height must match the number of rows")
        if list(map(len, self.rows)).count(self.width) != len(self.rows):
            raise ValueError("every row must have length equal to width")

    def cell(self, col: int, row: int) -> str:
        return self.rows[row][col]

    def as_text(self) -> str:
        """Plain-text grid, base row first."""
        return "\n".join(self.rows)


def build_patches(
    domain: ShiftPresentation,
    code: BlockCode,
    n: int,
    k: int,
    word_budget: int = DEFAULT_TABLE_BUDGET,
) -> tuple[SpacetimePatch, ...]:
    """All distinct n-by-k patches of the code's spacetime over the domain.

    Enumerates every legal generating word, iterates the code k-1 times,
    and keeps the central n columns of each row.  The result is exactly
    the set of n x k rectangles occurring in configurations (x, code(x),
    code^2(x), ...), deduplicated, in first-seen order of the sorted word
    enumeration.

    Words are numbered (shiftlang.WordIndex): iterate j of each word is one
    lookup in the code's image table (blockcode._Images), its row is the
    number of its central n-window, and patches are deduplicated as tuples
    of numbers.  Only kept patches are spelled, from the generating words'
    central windows, which are all the legal n-words.  A family with an
    image outside the language is slid whole instead, raising what sliding
    raises: a word whose images all stay legal slides to the same rows.
    The family is kept in `code.derived`.
    """
    if n < 1 or k < 1:
        raise ValueError("patch dimensions must be positive")
    if code.domain != domain:
        raise ValueError("code is not defined on the given presentation")
    key = ("patches", n, k, word_budget)
    if key not in code.derived:
        code.derived[key] = _patches(domain, code, n, k, word_budget)
    return code.derived[key]


def _patches(
    domain: ShiftPresentation, code: BlockCode, n: int, k: int, word_budget: int
) -> tuple[SpacetimePatch, ...]:
    phi = minimized(code)
    r = phi.radius
    length = n + 2 * (k - 1) * r
    check_words(domain, length, word_budget, "generating words", "build_patches")
    words, images, index = domain.words_of_length(length), _Images(phi), domain.word_index
    levels, m = [range(len(words))], length
    for _ in range(1, k):
        # an illegal image is its length's sink, which maps to the next one's
        img, m = images.of_length(m), m - 2 * r
        levels.append(list(map((img + [index(m).count]).__getitem__, levels[-1])))
    if index(m).count in levels[-1]:
        # an image left the language: slide the whole family, raising what
        # sliding raises, and keep each patch's first word
        family = {}
        for word in words:
            family.setdefault(_slide(phi, word, n, k), word)
        return tuple(map(SpacetimePatch, repeat(n), repeat(k), family, family.values()))
    rows, centre, width = [], range(index(n).count), n
    for level in reversed(levels):
        while width < n + 2 * r * len(rows):
            width += 2
            cut = map(index(width - 1).prefix.__getitem__, index(width).suffix)
            centre = list(map(centre.__getitem__, cut))
        rows.insert(0, list(map(centre.__getitem__, level)))
    top = (k - 1) * r
    spell = dict(zip(rows[0], map(itemgetter(slice(top, top + n)), words)))
    # walking back, the number stored last for each patch is its first word's
    first = dict(zip(zip(*map(reversed, rows)), range(len(words) - 1, -1, -1)))
    kept = sorted(first.values())
    picked = [list(map(row.__getitem__, kept)) for row in rows]
    cells = zip(*[map(spell.__getitem__, xs) for xs in picked])
    return tuple(map(SpacetimePatch, repeat(n), repeat(k), cells, map(words.__getitem__, kept)))


def _slide(phi: BlockCode, word: str, n: int, k: int) -> tuple[str, ...]:
    """The k rows over one generating word, sliding the rule along each."""
    iterates = accumulate(range(1, k), lambda w, _: apply_to_word(phi, w), initial=word)
    return tuple(w[(len(w) - n) // 2 :][:n] for w in iterates)


def rectangle_counts(
    domain: ShiftPresentation,
    code: BlockCode,
    cols: int,
    rows: int,
    word_budget: int = DEFAULT_TABLE_BUDGET,
) -> dict[tuple[int, int], int]:
    """{(n, k): the number of distinct n x k patches} for n <= cols, k <= rows.

    Keys run k outer, n inner.  Builds only the cols x rows family: the
    n x k rectangles are exactly the lower-left corners of its patches,
    because every legal word extends on both sides.  Raises what building
    that family raises.  Building every n x k family on its own fails for
    the same inputs: a smaller family's generating words are factors of
    longer legal words, so there are never more of them, and any illegal
    window a smaller family meets, the cols x rows family meets too.
    """
    family = build_patches(domain, code, cols, rows, word_budget)
    counts, chop = {}, itemgetter(slice(-1))
    tall = {p.rows for p in family}
    for k in range(rows, 0, -1):
        wide = tall
        for n in range(cols, 0, -1):
            counts[n, k] = len(wide)
            wide = set(map(tuple, map(map, repeat(chop), wide)))
        tall = set(map(chop, tall))
    return {(n, k): counts[n, k] for k in range(1, rows + 1) for n in range(1, cols + 1)}


# -- coding relation ---------------------------------------------------------


def _resolve_cells(cells, width: int, height: int):
    resolved = []
    for col, row in cells:
        c = col + width // 2
        if not (0 <= c < width):
            raise ValueError(f"cell column {col} falls outside patch width {width}")
        if not (0 <= row < height):
            raise ValueError(f"cell row {row} falls outside patch height {height}")
        resolved.append((c, row))
    return tuple(sorted(set(resolved)))


def coding_check(patches, cells_a, cells_b) -> bool:
    """Does agreement on cell set A force agreement on cell set B?

    True iff any two patches that agree on every A-cell also agree on
    every B-cell.  Columns in the cell sets are relative to the central
    column, so symmetric segments like {-k..k} x {0} read naturally.
    """
    patches = tuple(patches)
    if not patches:
        raise ValueError("coding_check needs a nonempty patch family")
    width, height = patches[0].width, patches[0].height
    a = _resolve_cells(cells_a, width, height)
    b = _resolve_cells(cells_b, width, height)
    groups: dict[tuple, tuple] = {}
    for p in patches:
        key = tuple(p.cell(c, r) for c, r in a)
        val = tuple(p.cell(c, r) for c, r in b)
        prev = groups.get(key)
        if prev is None:
            groups[key] = val
        elif prev != val:
            return False
    return True


def horizontal_segment(radius: int, row: int = 0):
    """The cell set {-radius..radius} x {row}."""
    return tuple((c, row) for c in range(-radius, radius + 1))


# -- low-complexity periodicity audit ------------------------------------------


@record
class CyrKraVerdict:
    """Outcome of the rectangle-count periodicity criterion.

    status is one of "BelowThreshold" (count <= nk/2 and a vector was
    found), "BelowThresholdNoVectorFound" (count under threshold but no
    consistent vector in range; at finite scale this flags a bug or an
    undersized window, never a theorem counterexample), "AboveThreshold".
    """

    status: str
    vector: tuple[int, int] | None
    patch_count: int
    threshold_doubled: int  # compare 2*count against n*k exactly

    @property
    def found(self) -> bool:
        return self.vector is not None


def _vector_consistent(patch: SpacetimePatch, di: int, dj: int) -> bool:
    for y in range(patch.height):
        y2 = y + dj
        if not (0 <= y2 < patch.height):
            continue
        for x in range(patch.width):
            x2 = x + di
            if 0 <= x2 < patch.width and patch.rows[y2][x2] != patch.rows[y][x]:
                return False
    return True


def cyr_kra_audit(patches, n: int, k: int) -> CyrKraVerdict:
    """Check count <= nk/2 and search for a periodicity vector.

    The vector search covers (i, j) with |i| < n and 0 <= j < k, skipping
    the zero vector and keeping only one representative of each +-v pair
    (j > 0, or j = 0 with i > 0).  A vector passes when every patch agrees
    with its own (i, j)-translate on their overlap; this is patch-local
    evidence for genuine periodicity of the infinite configuration, which
    is all finite data can certify.
    """
    patches = tuple(patches)
    count = len(patches)
    if 2 * count > n * k:
        return CyrKraVerdict("AboveThreshold", None, count, 2 * count)
    for dj in range(k):
        for di in range(-(n - 1), n):
            if dj == 0 and di <= 0:
                continue
            if all(_vector_consistent(p, di, dj) for p in patches):
                return CyrKraVerdict("BelowThreshold", (di, dj), count, 2 * count)
    return CyrKraVerdict("BelowThresholdNoVectorFound", None, count, 2 * count)


# -- vertical periods -----------------------------------------------------------


def _least_period(column: str) -> int:
    k = len(column)
    for p in range(1, k):
        if all(column[y] == column[y + p] for y in range(k - p)):
            return p
    return k


def uniform_vertical_period(patches) -> int | None:
    """Common vertical period of all columns, when certified in-window.

    Collects every height-k column across the patch family; if each has
    least period p with 2p <= k (the window sees at least two full
    periods, so the period is not an artifact of truncation), returns the
    lcm of the periods.  None means not concluded at this window height.
    """
    patches = tuple(patches)
    if not patches:
        raise ValueError("uniform_vertical_period needs a nonempty patch family")
    periods = set()
    for patch in patches:
        for x in range(patch.width):
            column = "".join(patch.rows[y][x] for y in range(patch.height))
            p = _least_period(column)
            if 2 * p > patch.height:
                return None
            periods.add(p)
    return math.lcm(*periods)
