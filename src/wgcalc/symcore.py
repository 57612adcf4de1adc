"""Permutations, integer partitions, pair partitions and the transpositions
acting on them; :mod:`wgcalc.graphs` decides which actions are graph edges.

Conventions used throughout the package:

* Permutations act on ``{1, ..., k}`` and are stored in one-line notation,
  ``images[r-1] == sigma(r)``.  The product ``a * b`` applies ``b`` first.
* Integer partitions are weakly decreasing tuples of positive ints; the
  empty tuple is the unique partition of 0.
* A pair partition splits ``{1, ..., 2k}`` into ``k`` unordered pairs.
  Blocks are stored canonically: each pair sorted, pairs sorted by their
  first entry.  ``trivial(k)`` is ``{1,2}{3,4}...{2k-1,2k}``.
* A perfect matching given as a *mate tuple* lives on the points
  ``0, ..., n-1``: ``mates[x]`` is the point matched with ``x``.

The two combinatorial statistics that drive everything else live here:
``cycle_type`` / ``absolute_length`` for permutations, and ``coset_type`` /
``absolute_length`` for pair partitions.  Both are cases of
:func:`union_type`, the halved cycle lengths of the union of two perfect
matchings: the coset type against the trivial pairing, the cycle type of
``sigma tau^-1`` on the matchings that join slot ``sigma(r)``, respectively
``tau(r)``, to a second copy of slot ``r``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

EMPTY_TEXT = "∅"  # printed for the level-0 permutation / pairing


def partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of ``n`` as decreasing tuples, largest part first,
    in antilexicographic order, without recursion (Zoghbi-Stojmenovic ZS1,
    *Fast algorithms for generating integer partitions*, 1998).

    >>> list(partitions(4))
    [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    # parts[:m] is the current partition; parts[h] is its last part above 1
    parts, m, h = [n] + [1] * (n - 1), 1, 0
    yield (n,)
    while parts[0] != 1:
        if parts[h] == 2:
            parts[h], m, h = 1, m + 1, h - 1
        else:
            # shrink parts[h] by one, then refill behind it with the freed
            # units in parts of that new size, and the remainder last
            r = parts[h] - 1
            t = m - h
            parts[h] = r
            while t >= r:
                h += 1
                parts[h] = r
                t -= r
            m = h + 1
            if t:
                m += 1
                if t > 1:
                    h += 1
                    parts[h] = t
        yield tuple(parts[:m])


def union_type(p: Sequence[int], q: Sequence[int]) -> tuple[int, ...]:
    """Halved cycle lengths of the union of the perfect matchings with mate
    tuples ``p`` and ``q``, as a decreasing partition.

    Every point has one edge from each matching, so the union splits into
    alternating even cycles ``2 mu_1 >= 2 mu_2 >= ...``; the result is ``mu``.

    >>> union_type((1, 0, 3, 2, 5, 4), (1, 0, 4, 5, 2, 3))
    (2, 1)
    """
    seen = [False] * len(p)
    parts = []
    for start in range(len(p)):
        if seen[start]:
            continue
        size = 0
        x = start
        while not seen[x]:
            y = p[x]
            seen[x] = seen[y] = True
            x = q[y]
            size += 1
        parts.append(size)
    parts.sort(reverse=True)
    return tuple(parts)


def trivial_mates(k: int) -> tuple[int, ...]:
    """Mate tuple of the trivial pairing ``{0,1}{2,3}...{2k-2,2k-1}``."""
    return tuple(x ^ 1 for x in range(2 * k))


def validate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    parts = tuple(int(p) for p in parts)
    if any(p <= 0 for p in parts):
        raise ValueError(f"partition parts must be positive: {parts}")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ValueError(f"partition parts must be weakly decreasing: {parts}")
    return parts


@dataclass(frozen=True)
class Permutation:
    """A permutation of ``{1, ..., k}`` in one-line notation.

    >>> s = Permutation((4, 1, 5, 3, 2))
    >>> s.cycle_type()
    (5,)
    >>> s.absolute_length()
    4
    """

    images: tuple[int, ...]

    def __post_init__(self):
        imgs = tuple(int(x) for x in self.images)
        object.__setattr__(self, "images", imgs)
        if sorted(imgs) != list(range(1, len(imgs) + 1)):
            raise ValueError(f"not a permutation of 1..{len(imgs)}: {imgs}")

    @property
    def level(self) -> int:
        return len(self.images)

    def __call__(self, x: int) -> int:
        return self.images[x - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        # (self * other)(x) = self(other(x))
        if other.level != self.level:
            raise ValueError("can only compose permutations of equal level")
        return Permutation(tuple(self.images[o - 1] for o in other.images))

    def inverse(self) -> "Permutation":
        inv = [0] * self.level
        for r, s in enumerate(self.images, start=1):
            inv[s - 1] = r
        return Permutation(tuple(inv))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Cycle decomposition; each cycle starts at its smallest point."""
        imgs = self.images
        seen: set[int] = set()
        out = []
        for start in range(1, len(imgs) + 1):
            if start not in seen:
                cyc = [start]
                while (x := imgs[cyc[-1] - 1]) != start:
                    cyc.append(x)
                seen.update(cyc)
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def absolute_length(self) -> int:
        """Minimal number of transpositions whose product is this permutation."""
        return self.level - len(self.cycles())

    def swap_values(self, a: int, b: int) -> "Permutation":
        """Left-multiply by the transposition ``(a b)``."""
        if not (1 <= a <= self.level and 1 <= b <= self.level) or a == b:
            raise ValueError(f"bad transposition ({a},{b}) at level {self.level}")
        imgs = list(self.images)
        for idx, v in enumerate(imgs):
            if v == a:
                imgs[idx] = b
            elif v == b:
                imgs[idx] = a
        return Permutation(tuple(imgs))


@dataclass(frozen=True)
class PairPartition:
    """A perfect matching of ``{1, ..., 2k}`` stored in canonical block order.

    >>> PairPartition(((1, 3), (2, 4))).coset_type()
    (2,)
    """

    blocks: tuple[tuple[int, int], ...]

    def __post_init__(self):
        blocks = tuple(sorted(tuple(sorted(int(x) for x in b)) for b in self.blocks))
        object.__setattr__(self, "blocks", blocks)
        points = [x for b in blocks for x in b]
        if sorted(points) != list(range(1, 2 * len(blocks) + 1)):
            raise ValueError(f"blocks do not tile 1..2k: {blocks}")
        if any(a == b for a, b in blocks):
            raise ValueError(f"degenerate block: {blocks}")

    @classmethod
    def trivial(cls, k: int) -> "PairPartition":
        return cls(tuple((2 * i - 1, 2 * i) for i in range(1, k + 1)))

    @property
    def level(self) -> int:
        return len(self.blocks)

    @property
    def mates(self) -> tuple[int, ...]:
        """Mate tuple on the points ``0..2k-1``; block ``{a, b}`` joins ``a-1, b-1``."""
        mate = [0] * (2 * self.level)
        for a, b in self.blocks:
            mate[a - 1], mate[b - 1] = b - 1, a - 1
        return tuple(mate)

    def apply(self, zeta: Permutation) -> "PairPartition":
        """Push every point through ``zeta``; blocks ``{a,b}`` become ``{zeta(a),zeta(b)}``."""
        if zeta.level != 2 * self.level:
            raise ValueError(
                f"level mismatch: permutation of {zeta.level} points acting on "
                f"a pairing of {2 * self.level}"
            )
        return PairPartition(tuple((zeta(a), zeta(b)) for a, b in self.blocks))

    def swap_points(self, a: int, b: int) -> "PairPartition":
        """Act by the transposition ``(a b)``."""
        if not (1 <= a <= 2 * self.level and 1 <= b <= 2 * self.level) or a == b:
            raise ValueError(f"bad transposition ({a},{b}) on {2 * self.level} points")
        sub = {a: b, b: a}
        return PairPartition(tuple((sub.get(x, x), sub.get(y, y)) for x, y in self.blocks))

    def coset_type(self) -> tuple[int, ...]:
        """:func:`union_type` of this pairing and the trivial one."""
        return union_type(self.mates, trivial_mates(self.level))

    def absolute_length(self) -> int:
        return self.level - len(self.coset_type())


def pairing_mates(labels: Sequence) -> Iterator[tuple[int, ...]]:
    """Mate tuples of the pairings of the positions ``0..len(labels)-1``
    whose blocks join equal labels, in a fixed order: the first free
    position is paired with each later one in turn.

    >>> list(pairing_mates("abab"))
    [(2, 3, 0, 1)]
    """

    def rec(mate: list[int]):
        if -1 not in mate:
            yield tuple(mate)
            return
        first = mate.index(-1)
        for x in range(first + 1, len(mate)):
            if mate[x] < 0 and labels[x] == labels[first]:
                mate[first], mate[x] = x, first
                yield from rec(mate)
                mate[first] = mate[x] = -1

    return rec([-1] * len(labels))


def pair_partitions(labels: Sequence) -> Iterator[PairPartition]:
    """The pairings of :func:`pairing_mates`, in its order, on ``1..len(labels)``.

    >>> [m.blocks for m in pair_partitions("abab")]
    [((1, 3), (2, 4))]
    """
    for mate in pairing_mates(labels):
        yield PairPartition(tuple((a + 1, b + 1) for a, b in enumerate(mate) if a < b))


def all_pair_partitions(k: int) -> Iterator[PairPartition]:
    """All ``(2k-1)!!`` pair partitions of ``{1..2k}``, in a fixed order."""
    return pair_partitions((0,) * (2 * k))


def class_representative(mu: tuple[int, ...]) -> Permutation:
    """Permutation with cycle type ``mu``: consecutive cycles, large parts first.

    >>> class_representative((2, 1))
    Permutation(images=(2, 1, 3))
    """
    mu = validate_partition(mu)
    imgs = []
    offset = 0
    for part in mu:
        imgs.extend(range(offset + 2, offset + part + 1))
        imgs.append(offset + 1)
        offset += part
    return Permutation(tuple(imgs))


def coset_representative(mu: tuple[int, ...]) -> PairPartition:
    """Pair partition with coset type ``mu``: blockwise shifted pairs.

    For a single part ``p`` on points ``1..2p`` the blocks are
    ``{2,3}, {4,5}, ..., {2p,1}``; parts are laid out consecutively.
    """
    mu = validate_partition(mu)
    blocks = []
    offset = 0
    for part in mu:
        pts = list(range(offset + 1, offset + 2 * part + 1))
        for i in range(part - 1):
            blocks.append((pts[2 * i + 1], pts[2 * i + 2]))
        blocks.append((pts[-1], pts[0]))
        offset += 2 * part
    return PairPartition(tuple(blocks))


def parse_permutation(text: str) -> Permutation:
    text = text.strip()
    if text in ("", EMPTY_TEXT):
        return Permutation(())
    try:
        imgs = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise ValueError(f"malformed permutation text: {text!r}") from None
    return Permutation(imgs)


def format_permutation(sigma: Permutation) -> str:
    if sigma.level == 0:
        return EMPTY_TEXT
    return ",".join(str(x) for x in sigma.images)


def parse_pair_partition(text: str) -> PairPartition:
    text = text.strip()
    if text in ("", EMPTY_TEXT):
        return PairPartition(())
    blocks = []
    for chunk in text.split("|"):
        toks = chunk.split(",")
        if len(toks) != 2:
            raise ValueError(f"malformed pairing block: {chunk!r}")
        try:
            blocks.append((int(toks[0]), int(toks[1])))
        except ValueError:
            raise ValueError(f"malformed pairing block: {chunk!r}") from None
    return PairPartition(tuple(blocks))


def format_pair_partition(m: PairPartition) -> str:
    if m.level == 0:
        return EMPTY_TEXT
    return "|".join(f"{a},{b}" for a, b in m.blocks)


def format_element(elem: Permutation | PairPartition) -> str:
    if isinstance(elem, PairPartition):
        return format_pair_partition(elem)
    return format_permutation(elem)


def format_partition(mu: tuple[int, ...]) -> str:
    if not mu:
        return EMPTY_TEXT
    return "+".join(str(p) for p in mu)


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("", EMPTY_TEXT):
        return ()
    try:
        parts = tuple(int(tok) for tok in text.split("+"))
    except ValueError:
        raise ValueError(f"malformed partition text: {text!r}") from None
    return validate_partition(parts)
