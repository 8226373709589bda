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
from dataclasses import dataclass
from itertools import product


@dataclass(frozen=True)
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
    Symbolic Dynamics and Coding, section 2.3.  SFT graphs past their block
    length also keep tail[i], the graph vertex of the word's last block.
    """

    __slots__ = ("count", "prefix", "suffix", "last", "tail", "_shape", "_table")

    def __init__(self, prefix, suffix, last, k: int, previous: int, tail=None):
        self.count = len(prefix)
        self.prefix, self.suffix, self.last, self.tail = prefix, suffix, last, tail
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


def _extend(prev: WordIndex, out: list, k: int, tail=None) -> WordIndex:
    """Index of prev's words, in order, each followed by the letters of its
    entry of `out`, (letter index, next state) pairs in alphabet order."""
    prefix = [p for p, o in enumerate(out) for _ in o]
    last = [a for o in out for a, _ in o]
    succ, shorter = prev.succ, prev.suffix
    suffix = [succ[shorter[p] * k + a] for p, a in zip(prefix, last)]
    return WordIndex(prefix, suffix, last, k, prev.count, tail)


def _suffix_automaton(text: str):
    """Suffix automaton (Blumer et al., TCS 40, 1985) of a text over chr(letter
    index), whose paths from state 0 spell its factors: per state, its out-edges
    (letter index, next state) in alphabet order and its first end position."""
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
    return [sorted(out.items()) for out in nxt], ends


def _product_index(ranks: list, k: int, n: int) -> WordIndex:
    """Index of all length-n words over the letters of alphabet index
    `ranks`, k the alphabet size: base-len(ranks) digits."""
    m = len(ranks) ** (n - 1)
    prefix = [p for p in range(m) for _ in ranks]
    return WordIndex(prefix, list(range(m)) * len(ranks), ranks * m, k, m)


class ShiftPresentation:
    """Common interface of all presentations.

    Instances are immutable after construction.  Word enumerations and
    word indexes are cached per length, and a cached value equals what a
    fresh computation would produce.
    """

    alphabet: Alphabet

    def __init__(self):
        self._word_cache: dict[int, tuple[str, ...]] = {}
        self._index_cache: dict[int, WordIndex] = {}

    # -- subclass hooks --------------------------------------------------

    def _enumerate(self, n: int) -> tuple[str, ...]:
        """The legal words of length n >= 1, sorted and distinct."""
        raise NotImplementedError

    def _index(self, n: int) -> WordIndex:
        """The WordIndex of length n, given that of n - 1 (if n > 1)."""
        words = self.words_of_length(n)
        pos = {w: i for i, w in enumerate(self.words_of_length(n - 1))}
        rank = self.alphabet._index
        return WordIndex(
            [pos[w[:-1]] for w in words], [pos[w[1:]] for w in words],
            [rank[w[-1]] for w in words], self.alphabet.size, len(pos),
        )

    def descriptor(self) -> tuple:
        raise NotImplementedError

    def describe(self) -> str:
        raise NotImplementedError

    def count_words(self, n: int) -> int:
        """|L_n|, using a closed form or path count where one is cheaper
        than enumeration."""
        return len(self.words_of_length(n))

    # -- shared API --------------------------------------------------------

    def words_of_length(self, n: int) -> tuple[str, ...]:
        """All legal words of length n, sorted in alphabet order."""
        _check_length(n)
        if n == 0:
            return ("",)
        cached = self._word_cache.get(n)
        if cached is None:
            cached = self._word_cache[n] = self._enumerate(n)
        return cached

    def word_index(self, n: int) -> WordIndex:
        """The WordIndex of length n >= 1, built up from the longest cached
        shorter length; its i-th word is words_of_length(n)[i]."""
        built = self._index_cache
        if n not in built:
            start = n
            while start > 1 and start - 1 not in built:
                start -= 1
            for length in range(start, n + 1):
                built[length] = self._index(length)
        return built[n]

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
    trimmed graph; shorter ones are their factors.  A presentation whose
    trimmed graph is empty admits no bi-infinite point and is rejected.

    Vertex i is the i-th legal b-word in sorted order, and _edges[i] lists
    (letter index, next vertex) for its out-edges in alphabet order, so
    extending sorted words along them keeps them sorted.  When no forbidden
    word is longer than one letter, the full shift among them, b = 0: the
    graph is one vertex, the empty word, with a loop for each allowed
    letter, and counts, enumerations and indexes take their product forms.
    """

    def __init__(self, alphabet: Alphabet, forbidden):
        super().__init__()
        self.alphabet = alphabet
        fset = []
        seen = set()
        for f in forbidden:
            if not isinstance(f, str) or len(f) == 0:
                raise ValueError("forbidden words must be nonempty strings")
            if not alphabet.contains_word(f):
                raise ValueError(f"forbidden word {f!r} uses symbols outside the alphabet")
            if f not in seen:
                seen.add(f)
                fset.append(f)
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
        self._block = b
        self._vertices = tuple(sorted(vertices, key=alphabet.word_key))
        number = {v: i for i, v in enumerate(self._vertices)}
        self._edges = [[(a, number[u]) for a, u in out[v]] for v in self._vertices]

    def _enumerate(self, n):
        b, edges, symbols = self._block, self._edges, self.alphabet.symbols
        if b == 0:
            return tuple(map("".join, product([symbols[a] for a, _ in edges[0]], repeat=n)))
        if n <= b:
            # every legal word extends right: the prefixes of the sorted vertices
            return tuple(dict.fromkeys(v[:n] for v in self._vertices))
        words, tails = self._vertices, range(len(edges))
        for _ in range(n - b):
            words = [w + symbols[a] for w, t in zip(words, tails) for a, _ in edges[t]]
            tails = [u for t in tails for _, u in edges[t]]
        return tuple(words)

    def _index(self, n):
        if self._block == 0:
            return _product_index([a for a, _ in self._edges[0]], self.alphabet.size, n)
        if n <= self._block:
            return super()._index(n)
        # extend each word of length n-1 along its last vertex's out-edges,
        # which keeps the sorted order of _enumerate
        prev = self.word_index(n - 1)
        out = [self._edges[v] for v in prev.tail or range(prev.count)]
        return _extend(prev, out, self.alphabet.size, [u for o in out for _, u in o])

    def count_words(self, n):
        _check_length(n)
        b, edges = self._block, self._edges
        if b == 0:
            return len(edges[0]) ** n
        if n <= b:
            return len(self.words_of_length(n))
        # path count: one matrix-vector pass per extra letter
        counts = [1] * len(edges)
        for _ in range(n - b):
            nxt = [0] * len(edges)
            for c, out in zip(counts, edges):
                for _, u in out:
                    nxt[u] += c
            counts = nxt
        return sum(counts)

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


class SubstitutionShift(ShiftPresentation):
    """Shift generated by a primitive substitution rule.

    Primitivity (some power of the incidence matrix is entrywise positive,
    with exponent at most |alphabet|^2) is validated at construction.  It
    guarantees every symbol occurs, that the orbit closure is minimal, and
    that the legal words are exactly the factors of the rule iterates.

    The legal two-letter blocks are the least fixed point of the block
    propagation map T -> base ∪ {2-factors of rule(b)+rule(c) : bc in T};
    the map is monotone on a finite lattice, so a single repeat certifies
    it.  For a depth N, a walk w through every legal 2-block and no other
    is inflated K times, K the least with every |rule^K(a)| >= N: a factor
    of rule^K(w) of length n <= N touches at most two letter images, so the
    n-factors are exactly the legal n-words.  One suffix automaton over
    rule^K(w) carries each legal word as a state, and the (n+1)-words are
    the n-words extended along their states' edges in alphabet order, so
    counts and indexes spell nothing and words come out sorted.  N is the
    deepest length asked for; a deeper one rebuilds at the larger of it
    and 2N.
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
        self._depth, self._states, self._edges = 0, [[0]], []

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

    def _word_states(self, n: int) -> list:
        """The automaton states of the legal n-words, in sorted order.  Past the
        depth, rebuild at max(n, twice the depth) and find the states again:
        cached words and indexes depend on the words only, so they stay."""
        if n > self._depth:
            self._depth = depth = max(n, 2 * self._depth)
            images = self.rules
            while min(map(len, images.values())) < depth:
                images = {a: "".join(map(images.__getitem__, w)) for a, w in self.rules.items()}
            self._text = "".join(map(images.__getitem__, self._walk))
            self._edges, self._ends = _suffix_automaton(self._text.translate(self.alphabet._rank))
            self._states = [[0]]
        states, edges = self._states, self._edges
        while len(states) <= n:
            states.append([u for t in states[-1] for _, u in edges[t]])
        return states[n]

    def word_index(self, n):
        # deepen once for the length asked, not for each shorter one built
        self._word_states(n)
        return super().word_index(n)

    def _index(self, n):
        k = self.alphabet.size
        if n == 1:
            return _product_index([a for a, _ in self._edges[0]], k, 1)
        prev, tails, edges = self.word_index(n - 1), self._word_states(n - 1), self._edges
        return _extend(prev, [edges[t] for t in tails], k)

    def _enumerate(self, n):
        tails = self._word_states(n)
        text, ends = self._text, self._ends
        return tuple([text[ends[t] - n + 1 : ends[t] + 1] for t in tails])

    def count_words(self, n):
        _check_length(n)
        return len(self._word_states(n))

    def descriptor(self):
        return (
            "substitution",
            self.alphabet.symbols,
            tuple(sorted(self.rules.items())),
        )

    def describe(self):
        body = ", ".join(f"{a}->{w}" for a, w in sorted(self.rules.items()))
        return f"substitution {body}"


class PeriodicOrbit(ShiftPresentation):
    """The finite orbit of one periodic sequence, presented by a seed word.

    The seed is normalized: a proper power collapses to its primitive root,
    and the root is rotated to its least cyclic rotation, so equal orbits
    get equal presentations.
    """

    def __init__(self, seed: str):
        super().__init__()
        if not isinstance(seed, str) or len(seed) == 0:
            raise ValueError("seed must be a nonempty word")
        self.alphabet = Alphabet.of(sorted(set(seed)))
        r = (seed + seed).index(seed, 1)
        root = seed[:r] if r < len(seed) else seed
        rotations = [root[i:] + root[:i] for i in range(len(root))]
        self.seed = min(rotations, key=self.alphabet.word_key)
        self.period = len(self.seed)

    def _enumerate(self, n):
        copies = (self.period - 1 + n + self.period - 1) // self.period + 1
        s = self.seed * copies
        words = {s[i : i + n] for i in range(self.period)}
        return tuple(sorted(words, key=self.alphabet.word_key))

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
    seen: dict[str, set[str]] = {}
    for w in shift.words_of_length(n + 1):
        core, ext = (w[:-1], w[-1]) if side == "right" else (w[1:], w[0])
        seen.setdefault(core, set()).add(ext)
    out = [w for w, exts in seen.items() if len(exts) >= 2]
    return tuple(sorted(out, key=shift.alphabet.word_key))


@dataclass(frozen=True)
class ComplexityProfile:
    """Word counts P(1..N) and per-length entropy estimates log(P(n))/n.

    Counts of a genuine presentation are nondecreasing and submultiplicative,
    and log(P(n))/n then converges to its infimum; the minimum recorded
    estimate is therefore an upper estimate of the growth rate.  Both facts
    are validated here so a corrupted profile fails loudly at construction.
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
        n = len(self.values)
        for i in range(1, n // 2 + 1):
            for j in range(i, n - i + 1):
                if self.values[i + j - 1] > self.values[i - 1] * self.values[j - 1]:
                    raise ValueError(f"P({i + j}) > P({i})P({j}): not submultiplicative")

    @property
    def entropy_upper_estimate(self) -> float:
        return min(self.entropy_estimates)


def entropy_profile(shift: ShiftPresentation, max_length: int) -> ComplexityProfile:
    if max_length < 1:
        raise ValueError("profile needs max_length >= 1")
    values = tuple(complexity(shift, n) for n in range(1, max_length + 1))
    estimates = tuple(math.log(p) / n for n, p in enumerate(values, start=1))
    return ComplexityProfile(values, estimates)


@dataclass(frozen=True)
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
