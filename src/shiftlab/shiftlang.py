"""Finite presentations of one-dimensional subshifts and exact language queries.

A presentation is a finite description of a closed, shift-invariant set of
bi-infinite sequences: a shift of finite type given by forbidden words
(the full shift over an alphabet forbids none), the shift of a primitive
substitution, or a single periodic orbit.  Every presentation answers the same questions
exactly: which words of length n occur in some bi-infinite point, how many
there are, which of them extend in more than one way, and how fast the
count grows.  "Legal" always means occurring in a bi-infinite point, which
is strictly stronger than merely avoiding the forbidden patterns.
"""

from __future__ import annotations

import math
from collections import Counter
from itertools import accumulate, product

from .errors import record


@record
class Alphabet:
    """Ordered finite set of single-character symbols.

    The declared order is total and fixed; every enumeration in this
    package sorts by it, which is what makes outputs reproducible.
    """

    symbols: tuple[str, ...]

    def __post_init__(self):
        if len(self.symbols) < 1:
            raise ValueError("alphabet needs at least one symbol")
        for s in self.symbols:
            if not isinstance(s, str) or len(s) != 1:
                raise ValueError(f"symbols must be single characters, got {s!r}")
        if len(set(self.symbols)) != len(self.symbols):
            raise ValueError("alphabet symbols must be pairwise distinct")
        object.__setattr__(self, "_index", {s: i for i, s in enumerate(self.symbols)})
        object.__setattr__(
            self, "_rank", str.maketrans({s: chr(i) for i, s in enumerate(self.symbols)})
        )
        object.__setattr__(self, "_strip", str.maketrans("", "", "".join(self.symbols)))

    @classmethod
    def of(cls, symbols) -> "Alphabet":
        return cls(tuple(symbols))

    @property
    def size(self) -> int:
        return len(self.symbols)

    def word_key(self, word: str) -> str:
        """Sort key realizing the alphabet order on words over this alphabet.

        Each symbol becomes the character whose code point is its index, so
        comparing keys compares index sequences, a proper prefix first.
        """
        return word.translate(self._rank)

    def contains_word(self, word: str) -> bool:
        return not word.translate(self._strip)


def _check_length(n: int):
    if n < 0:
        raise ValueError("word length must be nonnegative")


class WordIndex:
    """The legal words of one length n >= 1, numbered in sorted order.

    For the i-th word, prefix[i] and suffix[i] number its (n-1)-letter
    prefix and suffix among the words of length n-1, and last[i] is the
    alphabet index of its last letter.  succ[p * k + a], k the alphabet
    size, numbers the p-th word of length n-1 followed by the letter of
    index a, or is the sink `count` when that word is illegal; the sink of
    length n-1 (p = its count) extends only to the sink, so chained lookups
    need no test.  This is the higher-block presentation of Lind & Marcus,
    Symbolic Dynamics and Coding, section 2.3.
    """

    __slots__ = ("count", "prefix", "suffix", "last", "_shape", "_table")

    def __init__(self, prefix, suffix, last, k: int, previous: int):
        self.count = len(prefix)
        self.prefix, self.suffix, self.last = prefix, suffix, last
        self._shape, self._table = (k, previous), None

    @property
    def succ(self) -> list:
        # built on first use: a table's own length needs only prefix and suffix
        if self._table is None:
            k, previous = self._shape
            self._table = succ = [self.count] * ((previous + 1) * k)
            for i, (p, a) in enumerate(zip(self.prefix, self.last)):
                succ[p * k + a] = i
        return self._table


def _suffix_automaton(text: str):
    """Suffix automaton (Blumer et al., TCS 40, 1985) of a text over chr(letter
    index), whose paths from state 0 spell its factors: per state, its out-edges
    (letter index, next state) in alphabet order, its first end position, its
    suffix link and the length of its longest word."""
    nxt, link, length, ends = [{}], [-1], [0], [-1]
    last = 0
    for i, c in enumerate(map(ord, text)):
        p, cur = last, len(nxt)
        nxt.append({})
        link.append(0)
        length.append(length[p] + 1)
        ends.append(i)
        while p >= 0 and c not in nxt[p]:
            nxt[p][c], p = cur, link[p]
        if p >= 0:
            q = nxt[p][c]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(nxt)
                nxt.append(nxt[q].copy())
                link.append(link[q])
                length.append(length[p] + 1)
                ends.append(ends[q])
                while p >= 0 and nxt[p].get(c) == q:
                    nxt[p][c], p = clone, link[p]
                link[q] = link[cur] = clone
        last = cur
    return [sorted(out.items()) for out in nxt], ends, link, length


class ShiftPresentation:
    """Common interface of all presentations.

    Every presentation is one deterministic automaton read from state 0:
    _edges[t] lists (letter index, next state) for the out-edges of state t
    in alphabet order, and the legal n-words are the labels of its n-step
    paths, one path each.  So the sorted n-words are the sorted (n-1)-words
    each extended along its end state's edges, and word indexes and
    enumerations walk them that way, except that a one-state automaton (a
    full shift on its allowed letters) takes closed product forms.  An
    n-word's right extensions are the out-edges of its end state.

    Instances are immutable after construction.  Word indexes are cached
    per length, and a cached value equals what a fresh computation would
    produce; word lists are spelled afresh on each request.  Each
    presentation provides descriptor, the hashable value that equality and
    hashing compare, and describe, its one-line text.
    """

    alphabet: Alphabet

    def __init__(self):
        self._index_cache: dict[int, WordIndex] = {}
        self._paths = [[0]]
        self._walk = 0, [1]  # count_words' last (length, paths per state); unlisted are 0

    # -- subclass hooks --------------------------------------------------

    def _deepen(self, n: int):
        """Make the automaton carry every legal word of length n; a fixed
        automaton carries them all."""

    def _enumerate(self, n: int) -> tuple[str, ...]:
        """The legal words of length n >= 1, sorted and distinct."""
        edges, symbols = self._edges, self.alphabet.symbols
        if len(edges) == 1:
            return tuple(map("".join, product([symbols[a] for a, _ in edges[0]], repeat=n)))
        words = [""]
        for m in range(n):
            words = [w + symbols[a] for w, t in zip(words, self._tails(m)) for a, _ in edges[t]]
        return tuple(words)

    def count_words(self, n: int) -> int:
        """|L_n|: the n-step paths from state 0, counted one letter at a
        time without spelling a word; the walk goes on from the last one
        unless n is below its length, so a climb walks each length once."""
        _check_length(n)
        edges = self._edges
        if len(edges) == 1:
            return len(edges[0]) ** n
        length, counts = self._walk if n >= self._walk[0] else (0, [1])
        for _ in range(n - length):
            nxt = [0] * len(edges)
            for c, out in zip(counts, edges):
                for _, u in out:
                    nxt[u] += c
            counts = nxt
        self._walk = n, counts
        return sum(counts)

    # -- shared API --------------------------------------------------------

    def words_of_length(self, n: int) -> tuple[str, ...]:
        """All legal words of length n, sorted in alphabet order."""
        _check_length(n)
        return self._enumerate(n) if n else ("",)

    def word_index(self, n: int) -> WordIndex:
        """The WordIndex of length n >= 1, built up from the longest cached
        shorter length; its i-th word is words_of_length(n)[i]."""
        built = self._index_cache
        if n not in built:
            self._deepen(n)
            start = n
            while start > 1 and start - 1 not in built:
                start -= 1
            for length in range(start, n + 1):
                built[length] = self._index(length)
        return built[n]

    def _tails(self, n: int) -> list:
        """The end states of the sorted legal n-words, in their order."""
        self._deepen(n)
        paths = self._paths
        while len(paths) <= n:
            edges = self._edges
            paths.append([u for t in paths[-1] for _, u in edges[t]])
        return paths[n]

    def _index(self, n: int) -> WordIndex:
        """The WordIndex of length n, given that of n - 1 (if n > 1): the
        (n-1)-words in order, each followed by its end state's letters."""
        k, edges = self.alphabet.size, self._edges
        if len(edges) == 1:
            # base-r digits over the r letters of the one state
            ranks = [a for a, _ in edges[0]]
            m = len(ranks) ** (n - 1)
            prefix = [p for p in range(m) for _ in ranks]
            return WordIndex(prefix, list(range(m)) * len(ranks), ranks * m, k, m)
        out = [edges[t] for t in self._tails(n - 1)]
        prefix = [p for p, o in enumerate(out) for _ in o]
        last = [a for o in out for a, _ in o]
        suffix = prefix  # at n = 1 every suffix is the empty word
        if n > 1:
            prev = self.word_index(n - 1)
            succ, shorter = prev.succ, prev.suffix
            suffix = [succ[shorter[p] * k + a] for p, a in zip(prefix, last)]
        return WordIndex(prefix, suffix, last, k, len(out))

    def __eq__(self, other):
        return (
            isinstance(other, ShiftPresentation) and self.descriptor() == other.descriptor()
        )

    def __hash__(self):
        return hash(self.descriptor())

    def __repr__(self):
        return f"<{type(self).__name__} {self.describe()}>"


class SftForbidden(ShiftPresentation):
    """Shift of finite type: sequences avoiding a finite set of forbidden words.

    A finite word is legal when it occurs in some bi-infinite sequence that
    avoids the forbidden factors everywhere, so avoidance alone is not
    enough.  The constructor builds the de Bruijn-style graph whose vertices
    are the avoidance-clean b-blocks (b = m-1, m the longest forbidden
    length) and whose edges are the clean m-blocks, then trims it to its
    bi-essential part: vertices with no predecessor or no successor are
    deleted until none remain.  Surviving vertices are exactly the legal
    b-words, and longer legal words are exactly the path labels of the
    trimmed graph; shorter ones are their prefixes.  A presentation whose
    trimmed graph is empty admits no bi-infinite point and is rejected.

    The automaton is the trie of the vertices' prefixes feeding the trimmed
    graph.  Its states are the legal words shorter than b, then the
    vertices, sorted by (length, word_key), so state 0 is the empty word.
    A word shorter than b steps to its legal one-letter extensions and a
    vertex along its graph edges.  When no forbidden word is longer than
    one letter, b = 0: the one state is the one vertex, the empty word,
    with a loop for each allowed letter.
    """

    def __init__(self, alphabet: Alphabet, forbidden):
        super().__init__()
        self.alphabet = alphabet
        fset = set()
        for f in forbidden:
            if not isinstance(f, str) or len(f) == 0:
                raise ValueError("forbidden words must be nonempty strings")
            if not alphabet.contains_word(f):
                raise ValueError(f"forbidden word {f!r} uses symbols outside the alphabet")
            fset.add(f)
        self.forbidden = tuple(sorted(fset, key=lambda w: (len(w), alphabet.word_key(w))))
        symbols = alphabet.symbols
        b = max(map(len, self.forbidden), default=1) - 1
        clean = lambda w: not any(f in w for f in self.forbidden)
        vertices = {v for v in map("".join, product(symbols, repeat=b)) if clean(v)}
        # trim to the bi-essential subgraph
        while True:
            out = {
                v: [(a, (v + s)[1:]) for a, s in enumerate(symbols)
                    if (v + s)[1:] in vertices and clean(v + s)]
                for v in vertices
            }
            heads = {u for edges in out.values() for _, u in edges}
            kept = {v for v in vertices if out[v] and v in heads}
            if kept == vertices:
                break
            vertices = kept
        if not vertices:
            raise ValueError(
                "every symbol is forbidden: the presentation is empty" if b == 0
                else "forbidden set leaves no bi-infinite sequence: the presentation is empty"
            )
        states = sorted(
            {v[:m] for v in vertices for m in range(b + 1)},
            key=lambda w: (len(w), alphabet.word_key(w)),
        )
        number = {w: i for i, w in enumerate(states)}
        self._edges = [
            [(a, number[u]) for a, u in out[w]] if len(w) == b
            else [(a, number[w + s]) for a, s in enumerate(symbols) if w + s in number]
            for w in states
        ]

    def descriptor(self):
        return ("sft", self.alphabet.symbols, self.forbidden)

    def describe(self):
        shown = ",".join(self.forbidden) if self.forbidden else "-"
        return f"SFT on {{{','.join(self.alphabet.symbols)}}} forbidding {{{shown}}}"


class FullShift(SftForbidden):
    """Every sequence over the alphabet: the SFT that forbids nothing."""

    def __init__(self, alphabet: Alphabet):
        super().__init__(alphabet, ())

    def descriptor(self):
        return ("full", self.alphabet.symbols)

    def describe(self):
        return f"full shift on {{{','.join(self.alphabet.symbols)}}}"


class _FactorShift(ShiftPresentation):
    """A shift whose legal n-words, for every n <= N, are the n-factors of
    a text: _text_of(depth) returns the text and its reach N >= depth.

    The automaton is the suffix automaton of the text, and _depth its
    reach; a length n past the reach rebuilds it at depth the larger of n
    and twice the reach, and the cached words and indexes stay, as they
    depend on the words only.  A state v other than 0 holds exactly one
    factor of each length in (len(link v), len v] (Blumer et al.), so each
    rebuild counts the factors of every length with one difference array,
    and each word is sliced out of the text at its end state's first end
    position.
    """

    _depth, _counts = 0, (1,)

    def _deepen(self, n):
        if n > self._depth:
            self._text, self._depth = self._text_of(max(n, 2 * self._depth))
            self._edges, self._ends, link, length = _suffix_automaton(
                self._text.translate(self.alphabet._rank))
            self._paths = [[0]]
            steps = [1, -1] + [0] * len(self._text)  # state 0: the empty word
            for v in range(1, len(link)):
                steps[length[link[v]] + 1] += 1
                steps[length[v] + 1] -= 1
            self._counts = list(accumulate(steps))

    def _enumerate(self, n):
        tails = self._tails(n)  # deepens first, so the text below is current
        text, ends = self._text, self._ends
        return tuple([text[ends[t] - n + 1 : ends[t] + 1] for t in tails])

    def count_words(self, n):
        _check_length(n)
        self._deepen(n)
        return self._counts[n]


class SubstitutionShift(_FactorShift):
    """Shift generated by a primitive substitution rule.

    Primitivity (some power of the incidence matrix is entrywise positive,
    with exponent at most |alphabet|^2) is validated at construction.  It
    guarantees every symbol occurs, that the orbit closure is minimal, and
    that the legal words are exactly the factors of the rule iterates.

    The legal two-letter blocks are the least fixed point of the block
    propagation map T -> base ∪ {2-factors of rule(b)+rule(c) : bc in T};
    the map is monotone on a finite lattice, so a single repeat certifies
    it.  The text of depth N is a walk w through every legal 2-block and
    no other, inflated K times, K the least with every |rule^K(a)| >= N: a
    factor of rule^K(w) of length n at most the shortest image touches at
    most two letter images, so its n-factors are exactly the legal
    n-words, and its reach is that shortest image.
    """

    def __init__(self, alphabet: Alphabet, rules: dict):
        super().__init__()
        self.alphabet = alphabet
        if set(rules) != set(alphabet.symbols):
            raise ValueError("substitution must define exactly one image per symbol")
        for a, img in rules.items():
            if not isinstance(img, str) or len(img) == 0:
                raise ValueError(f"image of {a!r} must be a nonempty word")
            if not alphabet.contains_word(img):
                raise ValueError(f"image of {a!r} uses symbols outside the alphabet")
        self.rules = dict(rules)
        self._check_primitive()
        if all(len(img) == 1 for img in rules.values()):
            raise ValueError("substitution never grows: every image is a single letter")
        self._walk = self._block_walk()

    def _check_primitive(self):
        syms = self.alphabet.symbols
        k = len(syms)
        m = [[self.rules[b].count(a) for b in syms] for a in syms]
        p = m
        for exponent in range(1, k * k + 1):
            if all(all(x > 0 for x in row) for row in p):
                self.primitivity_exponent = exponent
                return
            p = [
                [sum(p[i][l] * m[l][j] for l in range(k)) for j in range(k)]
                for i in range(k)
            ]
        raise ValueError("substitution is not primitive (no positive matrix power)")

    def _block_walk(self) -> str:
        """A word whose 2-factors are exactly the legal 2-blocks (the fixed
        point above): each block in turn, reached by a shortest path if the
        walk lacks it."""
        two = lambda w: {w[i : i + 2] for i in range(len(w) - 1)}
        base = set().union(*map(two, self.rules.values()))
        blocks, grown = None, base
        while grown != blocks:
            blocks = grown
            grown = base.union(*(two(self.rules[b] + self.rules[c]) for b, c in blocks))
        blocks = sorted(blocks)
        walk = blocks[0]
        for block in blocks:
            paths = {walk[-1]: ""}
            while block not in walk and block[0] not in paths:
                paths = {**{b[1]: paths[b[0]] + b[1] for b in blocks if b[0] in paths}, **paths}
            walk += "" if block in walk else paths[block[0]] + block[1]
        return walk

    def _text_of(self, depth):
        images = self.rules
        while min(map(len, images.values())) < depth:
            images = {a: "".join(map(images.__getitem__, w)) for a, w in self.rules.items()}
        return "".join(map(images.__getitem__, self._walk)), min(map(len, images.values()))

    def descriptor(self):
        return (
            "substitution",
            self.alphabet.symbols,
            tuple(sorted(self.rules.items())),
        )

    def describe(self):
        body = ", ".join(f"{a}->{w}" for a, w in sorted(self.rules.items()))
        return f"substitution {body}"


class PeriodicOrbit(_FactorShift):
    """The finite orbit of one periodic sequence, presented by a seed word.

    The seed is normalized: a proper power collapses to its primitive root,
    and the root is rotated to its least cyclic rotation, so equal orbits
    get equal presentations.  The text of depth N is the seed repeated to
    at least N + period - 1 letters; its reach is its length less
    period - 1, the longest length whose factors starting in the first
    period, one for each rotation, are all there.
    """

    def __init__(self, seed: str):
        super().__init__()
        if not isinstance(seed, str) or len(seed) == 0:
            raise ValueError("seed must be a nonempty word")
        self.alphabet = Alphabet.of(sorted(set(seed)))
        root = seed[: (seed + seed).index(seed, 1)]
        # the alphabet is the sorted letters, so its order is the string order
        twice, p = root + root, len(root)
        start = min(range(p), key=lambda i: twice[i : i + p])
        self.seed, self.period = twice[start : start + p], p

    def count_words(self, n):
        # Morse–Hedlund: an orbit of least period p has p words of each length n >= p
        return super().count_words(min(n, self.period))

    def _text_of(self, depth):
        text = self.seed * -(-(depth + self.period - 1) // self.period)
        return text, len(text) - self.period + 1

    def descriptor(self):
        return ("periodic", self.alphabet.symbols, self.seed)

    def describe(self):
        return f"periodic orbit of {self.seed}"


# -- language measurements ----------------------------------------------------


def complexity(shift: ShiftPresentation, n: int) -> int:
    """Number of legal words of length n (1 at n = 0, the empty word)."""
    return shift.count_words(n)


def special_words(shift: ShiftPresentation, n: int, side: str = "right") -> tuple[str, ...]:
    """Length-n words with at least two legal one-letter extensions on `side`."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    if side == "right":
        # with the (n+1)-words carried, an n-word's right extensions are its end state's out-edges
        shift._deepen(n + 1)
        edges, words = shift._edges, shift.words_of_length(n)
        if len(edges) == 1:
            return words if len(edges[0]) > 1 else ()
        return tuple(w for w, t in zip(words, shift._tails(n)) if len(edges[t]) > 1)
    # an n-word has one left extension per (n+1)-word that numbers it as its
    # suffix, and the numbers follow sorted order
    extensions = Counter(shift.word_index(n + 1).suffix)
    words = shift.words_of_length(n)
    return tuple(words[i] for i in sorted(extensions) if extensions[i] >= 2)


@record
class ComplexityProfile:
    """Word counts P(1..N) and per-length entropy estimates log(P(n))/n.

    Counts of a genuine presentation are nondecreasing and submultiplicative,
    and log(P(n))/n then converges to its infimum; the minimum recorded
    estimate is therefore an upper estimate of the growth rate.  Both facts
    are validated here so a corrupted profile fails loudly at construction.
    The pair scan for P(i + j) <= P(i)P(j) stops a row once P(i)P(j)
    reaches P(N), as every later pair then holds, so it stays exact.
    All logarithms are natural.
    """

    values: tuple[int, ...]
    entropy_estimates: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValueError("profile needs at least one length")
        for i, p in enumerate(self.values):
            if p < 1:
                raise ValueError(f"P({i + 1}) = {p} < 1")
            if i and p < self.values[i - 1]:
                raise ValueError(f"P({i + 1}) < P({i}): counts must be nondecreasing")
        # (i, j) fails iff (j, i) does, and i <= j comes first in this order
        values, n = self.values, len(self.values)
        for i in range(1, n // 2 + 1):
            for j in range(i, n - i + 1):
                bound = values[i - 1] * values[j - 1]
                if values[i + j - 1] > bound:
                    raise ValueError(f"P({i + j}) > P({i})P({j}): not submultiplicative")
                if bound >= values[-1]:
                    break

    @property
    def entropy_upper_estimate(self) -> float:
        return min(self.entropy_estimates)


def entropy_profile(shift: ShiftPresentation, max_length: int) -> ComplexityProfile:
    if max_length < 1:
        raise ValueError("profile needs max_length >= 1")
    # longest first, so a factor shift builds one automaton; then ascending, for SFT walks
    longest = complexity(shift, max_length)
    values = (*(complexity(shift, n) for n in range(1, max_length)), longest)
    estimates = tuple(math.log(p) / n for n, p in enumerate(values, start=1))
    return ComplexityProfile(values, estimates)


@record
class MorseHedlundVerdict:
    """Outcome of the low-complexity periodicity test.

    A witness n with P(n) <= n certifies eventual periodicity; its absence
    up to the limit certifies nothing.
    """

    witness: int | None
    limit: int

    @property
    def certifies_periodic(self) -> bool:
        return self.witness is not None

    def __str__(self):
        if self.witness is not None:
            return f"PeriodicWitness({self.witness})"
        return f"NoWitnessUpTo({self.limit})"


def morse_hedlund_test(shift: ShiftPresentation, max_length: int) -> MorseHedlundVerdict:
    """Find the least n <= max_length with P(n) <= n, if any."""
    if max_length < 1:
        raise ValueError("max_length must be >= 1")
    for n in range(1, max_length + 1):
        if complexity(shift, n) <= n:
            return MorseHedlundVerdict(n, max_length)
    return MorseHedlundVerdict(None, max_length)
