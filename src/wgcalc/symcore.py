"""Permutations, integer partitions and pair partitions.

Conventions used throughout the package:

* Permutations act on ``{1, ..., k}`` and are stored in one-line notation,
  ``images[r-1] == sigma(r)``.  The product ``a * b`` applies ``b`` first.
* Integer partitions are weakly decreasing tuples of positive ints; the
  empty tuple is the unique partition of 0.
* A pair partition splits ``{1, ..., 2k}`` into ``k`` unordered pairs.
  Blocks are stored canonically: each pair sorted, pairs sorted by their
  first entry.  ``trivial(k)`` is ``{1,2}{3,4}...{2k-1,2k}``.

The two combinatorial statistics that drive everything else live here:
``cycle_type`` / ``absolute_length`` for permutations, and ``coset_type`` /
``absolute_length`` for pair partitions (cycle lengths of the union
multigraph against the trivial pairing, halved).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

EMPTY_TEXT = "∅"  # printed for the level-0 permutation / pairing


def partitions(n: int, max_part: int | None = None) -> Iterator[tuple[int, ...]]:
    """Yield the partitions of ``n`` as decreasing tuples, largest part first.

    >>> list(partitions(3))
    [(3,), (2, 1), (1, 1, 1)]
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n == 0:
        yield ()
        return
    if max_part is None or max_part > n:
        max_part = n
    for first in range(max_part, 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


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

    @classmethod
    def identity(cls, k: int) -> "Permutation":
        return cls(tuple(range(1, k + 1)))

    @classmethod
    def transposition(cls, k: int, a: int, b: int) -> "Permutation":
        imgs = list(range(1, k + 1))
        imgs[a - 1], imgs[b - 1] = imgs[b - 1], imgs[a - 1]
        return cls(tuple(imgs))

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
        seen = [False] * self.level
        out = []
        for start in range(1, self.level + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self(x)
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self) -> tuple[int, ...]:
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def absolute_length(self) -> int:
        """Minimal number of transpositions whose product is this permutation."""
        return self.level - len(self.cycles())

    def fixes_top(self) -> bool:
        return self.level > 0 and self.images[-1] == self.level

    def restrict_down(self) -> "Permutation":
        """Drop the fixed top point ``k``; requires ``sigma(k) == k``."""
        if self.level == 0:
            raise ValueError("cannot restrict the empty permutation")
        if not self.fixes_top():
            raise ValueError(f"top point is not fixed: {self.images}")
        return Permutation(self.images[:-1])

    def top_in_two_cycle(self) -> bool:
        k = self.level
        return k >= 2 and self(k) != k and self(self(k)) == k

    def flat(self) -> "Permutation":
        """Remove the 2-cycle through the top point and relabel.

        With ``r = sigma(k)`` and ``sigma(r) = k``, the restriction to
        ``{1..k-1} minus {r}`` is squeezed onto ``{1..k-2}`` by the
        order-preserving relabeling.

        >>> Permutation((4, 5, 1, 3, 2)).flat()
        Permutation(images=(3, 1, 2))
        """
        if not self.top_in_two_cycle():
            raise ValueError(f"top point is not in a 2-cycle: {self.images}")
        k = self.level
        r = self(k)
        squeeze = lambda y: y if y < r else y - 1
        imgs = [0] * (k - 2)
        for x in range(1, k):
            if x == r:
                continue
            imgs[squeeze(x) - 1] = squeeze(self(x))
        return Permutation(tuple(imgs))

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

    def partner(self, x: int) -> int:
        for a, b in self.blocks:
            if a == x:
                return b
            if b == x:
                return a
        raise ValueError(f"point {x} out of range")

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
        """Halved cycle lengths of the union multigraph with the trivial pairing.

        Each point has one edge from this pairing and one from the trivial
        one; components are even cycles ``2 mu_1 >= 2 mu_2 >= ...`` and the
        result is ``mu``.
        """
        n = 2 * self.level
        mate = {}
        for a, b in self.blocks:
            mate[a] = b
            mate[b] = a
        trivial_mate = lambda x: x + 1 if x % 2 == 1 else x - 1
        seen = set()
        parts = []
        for start in range(1, n + 1):
            if start in seen:
                continue
            size = 0
            x = start
            use_trivial = True
            while True:
                seen.add(x)
                size += 1
                x = trivial_mate(x) if use_trivial else mate[x]
                use_trivial = not use_trivial
                if x == start and use_trivial:
                    break
            parts.append(size // 2)
        return tuple(sorted(parts, reverse=True))

    def absolute_length(self) -> int:
        return self.level - len(self.coset_type())

    def has_top_block(self) -> bool:
        k = self.level
        return k > 0 and (2 * k - 1, 2 * k) in self.blocks

    def pairing_down(self) -> "PairPartition":
        """Drop the block ``{2k-1, 2k}``; requires that block to be present."""
        if self.level == 0:
            raise ValueError("cannot drop a block from the empty pairing")
        if not self.has_top_block():
            raise ValueError(f"top block missing: {self.blocks}")
        return PairPartition(self.blocks[:-1])

    def as_permutation(self) -> Permutation:
        """The permutation sending the trivial pairing to this one, block order."""
        imgs = [x for b in self.blocks for x in b]
        return Permutation(tuple(imgs))


def act(zeta: Permutation, m: PairPartition) -> PairPartition:
    """Action of ``S_{2k}`` on pair partitions of ``2k`` points."""
    return m.apply(zeta)


def all_permutations(k: int) -> Iterator[Permutation]:
    """All ``k!`` permutations of ``{1..k}``, in lexicographic image order."""
    for images in itertools.permutations(range(1, k + 1)):
        yield Permutation(images)


def pair_partitions(labels: Sequence) -> Iterator[PairPartition]:
    """Pair partitions of the positions ``1..len(labels)`` whose blocks join
    equal labels, in a fixed order: the first free position is paired with
    each later one in turn.

    >>> [m.blocks for m in pair_partitions("abab")]
    [((1, 3), (2, 4))]
    """

    def rec(points: tuple[int, ...]):
        if not points:
            yield ()
            return
        first = points[0]
        for i in range(1, len(points)):
            if labels[first - 1] == labels[points[i] - 1]:
                rest = points[1:i] + points[i + 1:]
                for tail in rec(rest):
                    yield ((first, points[i]),) + tail

    for blocks in rec(tuple(range(1, len(labels) + 1))):
        yield PairPartition(blocks)


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


def strong_admissible_sequence(m: PairPartition) -> tuple[int, ...]:
    """Lexicographically least sequence equal on a pair iff the pair is a block.

    >>> strong_admissible_sequence(PairPartition(((1, 3), (2, 6), (4, 5))))
    (1, 2, 1, 3, 3, 2)
    """
    labels = {}
    nxt = 1
    out = []
    for x in range(1, 2 * m.level + 1):
        p = m.partner(x)
        if p < x:
            out.append(labels[p])
        else:
            labels[x] = nxt
            out.append(nxt)
            nxt += 1
    return tuple(out)


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
