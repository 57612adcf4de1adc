"""Permutations, integer partitions, pair partitions and the transpositions
acting on them; :mod:`wgcalc.graphs` decides which actions are graph edges.

Conventions used throughout the package:

* Permutations act on ``{1, ..., k}`` and are stored in one-line notation,
  ``images[r-1] == sigma(r)``.  The product ``a * b`` applies ``b`` first.
* Integer partitions are weakly decreasing tuples of positive ints; the
  empty tuple is the unique partition of 0.
* A pair partition splits ``{1, ..., 2k}`` into ``k`` unordered pairs.
  Blocks are stored canonically: each pair sorted, pairs sorted by their
  first entry.  ``trivial(k)`` is ``{1,2}{3,4}...{2k-1,2k}``.  The
  ``mates`` tuple of a pairing gives, for each point ``x`` of ``0..2k-1``,
  the point its block joins to ``x``.
* Both are named tuples of their one field (``images``, ``blocks``), whose
  ``__new__`` normalizes and checks it: immutable, equal to any tuple with
  the same field tuple and hashed as that tuple.  So the level-0
  ``Permutation(())`` and ``PairPartition(())`` are equal, both ``((),)``;
  no memo holds both kinds.  ``_make`` and ``_replace`` skip ``__new__``,
  and so its checks; nothing calls them.

The two combinatorial statistics that drive everything else live here,
each computed by one walk over the element's points: ``cycle_type`` /
``absolute_length`` for permutations, ``coset_type`` / ``absolute_length``
for pair partitions.  The coset type is the halved cycle lengths of the
union of the pairing and the trivial one, whose cycles the walk
``x -> mates[x] ^ 1`` follows: ``x ^ 1`` is the trivial mate of ``x``.
"""

from __future__ import annotations

from operator import ge
from typing import Iterator, NamedTuple

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


def validate_partition(parts: tuple[int, ...]) -> tuple[int, ...]:
    """``parts`` as ints, checked in one walk over adjacent parts and the
    last part: a decreasing tuple is positive if its last part is.  A
    nonpositive part is reported before an increase."""
    parts = tuple(map(int, parts))
    if not parts or (parts[-1] > 0 and all(map(ge, parts, parts[1:]))):
        return parts
    if min(parts) <= 0:
        raise ValueError(f"partition parts must be positive: {parts}")
    raise ValueError(f"partition parts must be weakly decreasing: {parts}")


class _PermutationFields(NamedTuple):
    images: tuple[int, ...]


class Permutation(_PermutationFields):
    """A permutation of ``{1, ..., k}`` in one-line notation.  A named tuple
    of its ``images``, made ints and checked by ``__new__``; equal to any
    tuple with the same field tuple and hashed as it (see the module
    docstring).  ``_make`` and ``_replace`` skip ``__new__``, and so these
    checks; nothing calls them.

    >>> s = Permutation((4, 1, 5, 3, 2))
    >>> s.cycle_type()
    (5,)
    >>> s.absolute_length()
    4
    """

    __slots__ = ()

    def __new__(cls, images: tuple[int, ...]):
        self = super().__new__(cls, tuple(map(int, images)))
        self.__post_init__()
        return self

    # validation stays in __post_init__: bench/tracing.py counts the
    # elements built from its calls
    def __post_init__(self):
        imgs = self.images
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

    def cycle_type(self) -> tuple[int, ...]:
        imgs = self.images
        seen = [False] * len(imgs)
        parts = []
        for start in range(len(imgs)):
            size, x = 0, start
            while not seen[x]:
                seen[x] = True
                x, size = imgs[x] - 1, size + 1
            if size:
                parts.append(size)
        parts.sort(reverse=True)
        return tuple(parts)

    def absolute_length(self) -> int:
        """Minimal number of transpositions whose product is this permutation."""
        return self.level - len(self.cycle_type())

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


class _PairPartitionFields(NamedTuple):
    blocks: tuple[tuple[int, int], ...]


class PairPartition(_PairPartitionFields):
    """A perfect matching of ``{1, ..., 2k}`` stored in canonical block order.
    A named tuple of its ``blocks``, sorted and checked by ``__new__``; equal
    to any tuple with the same field tuple and hashed as it.  ``_make`` and
    ``_replace`` skip ``__new__``, and so these checks; nothing calls them.

    >>> PairPartition(((1, 3), (2, 4))).coset_type()
    (2,)
    """

    __slots__ = ()

    def __new__(cls, blocks: tuple[tuple[int, int], ...]):
        self = super().__new__(cls, tuple(sorted(tuple(sorted(map(int, b))) for b in blocks)))
        self.__post_init__()
        return self

    def __post_init__(self):
        points = [x for b in self.blocks for x in b]
        if sorted(points) != list(range(1, 2 * len(self.blocks) + 1)):
            raise ValueError(f"blocks do not tile 1..2k: {self.blocks}")

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
        """Halved cycle lengths of the union of this pairing and the trivial
        one: each step leaves a point by its block and returns by the trivial
        block of its mate."""
        mates = self.mates
        seen = [False] * len(mates)
        parts = []
        for start in range(len(mates)):
            size, x = 0, start
            while not seen[x]:
                y = mates[x]
                seen[x] = seen[y] = True
                x, size = y ^ 1, size + 1
            if size:
                parts.append(size)
        parts.sort(reverse=True)
        return tuple(parts)

    def absolute_length(self) -> int:
        return self.level - len(self.coset_type())


def all_pair_partitions(k: int) -> Iterator[PairPartition]:
    """All ``(2k-1)!!`` pair partitions of ``{1..2k}`` in a fixed order: the
    smallest free point is paired with each later free point in turn.

    >>> [m.blocks for m in all_pair_partitions(2)]
    [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))]
    """

    def rec(free: tuple[int, ...], blocks: tuple[tuple[int, int], ...]):
        if not free:
            yield PairPartition(blocks)
            return
        first, rest = free[0], free[1:]
        for i, x in enumerate(rest):
            yield from rec(rest[:i] + rest[i + 1:], (*blocks, (first, x)))

    return rec(tuple(range(1, 2 * k + 1)), ())


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


def format_element(elem: Permutation | PairPartition) -> str:
    if elem.level == 0:
        return EMPTY_TEXT
    if isinstance(elem, PairPartition):
        return "|".join(f"{a},{b}" for a, b in elem.blocks)
    return ",".join(str(x) for x in elem.images)


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
