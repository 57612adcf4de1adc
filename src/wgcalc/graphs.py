"""Weingarten graphs: levels, edges, path counts and monotone factorizations.

Three graph kinds share one shape.  Vertices at level ``k`` are permutations
of ``{1..k}`` (unitary, A III) or pair partitions of ``{1..2k}``
(orthogonal).  Edges leaving a level-``k`` vertex:

* solid, staying on the level: ``(i,k).sigma`` for ``i < k``, respectively
  ``(i,2k-1).m`` for ``i <= 2k-2``.  The orthogonal family is a multigraph;
  a transposition fixing ``m`` is a genuine self-loop and is traversed like
  any other solid step.
* dashed, dropping one level: forget the fixed top point (``sigma(k)=k``),
  respectively the top block ``{2k-1,2k}``.
* squiggled (A III only), dropping two levels: remove the 2-cycle through
  the top point.

A path runs from its start vertex down to the empty object.  Paths with
their solid-step annotations biject with monotone transposition
factorizations; both directions are implemented below.

Path counts are class functions of the start vertex (cycle type, coset
type), so each kind is also described once at class level, kept in
``functools`` caches: :func:`class_node` computes a class's solid targets
with multiplicities, dashed target and squiggled target from the partition
alone.  A transposition moving the top point joins its cycle to another
cycle or cuts it in two (Goulden-Jackson, *Transitive factorizations into
transpositions*, PAMS 1997); on pairings the same join/cut acts on coset
types, with the cuts that restore the block as self-loops.  No element is
built.  One counter, :func:`count_class_paths`, recurses over
``(class, solid, dashed)`` for every kind and keeps at most ``COUNT_CAP``
counts, and :mod:`wgcalc.exact` builds its rows from the same nodes.  Class
constancy is assumed, not derived; ``tests/test_graphs.py`` checks every
node of small levels against the one read off a representative element,
the class-level counts against element-level walks and
:func:`enumerate_paths` on every element of small levels, and
``exact.wg_coe_direct`` checks the solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache, lru_cache
from typing import Iterator, NamedTuple, Union

from .symcore import PairPartition, Permutation, format_element, validate_partition

Element = Union[Permutation, PairPartition]


class GraphKind(enum.Enum):
    UNITARY = "u"
    ORTHOGONAL = "o"
    AIII = "aiii"


SOLID = "solid"
DASHED = "dashed"
SQUIGGLED = "squiggled"


class PathLimitExceeded(Exception):
    """Raised when enumeration would return more paths than the caller's cap."""


def _check_element(kind: GraphKind, elem: Element) -> None:
    if kind is GraphKind.ORTHOGONAL:
        if not isinstance(elem, PairPartition):
            raise TypeError(f"{kind.value} graph vertices are pair partitions, got {elem!r}")
    elif not isinstance(elem, Permutation):
        raise TypeError(f"{kind.value} graph vertices are permutations, got {elem!r}")


@dataclass(frozen=True)
class EdgeStep:
    """One traversed edge: its kind, the vertex reached and, on a solid step,
    its transposition ``(index, top)``; ``top`` is ``k``, or ``2k-1`` for
    orthogonal, at the level ``k`` the step stays on."""

    kind: str
    index: int | None
    target: Element
    top: int | None = None


def _top(kind: GraphKind, level: int) -> int:
    """The point every solid transposition at ``level`` moves."""
    return 2 * level - 1 if kind is GraphKind.ORTHOGONAL else level


def _swapper(kind: GraphKind, elem: Element):
    """``elem``'s action by a transposition: on points, or on values."""
    return elem.swap_points if kind is GraphKind.ORTHOGONAL else elem.swap_values


def _solid_targets(kind: GraphKind, elem: Element) -> list[Element]:
    """Targets of the solid steps leaving ``elem``; index ``i`` sits at position ``i-1``."""
    top, swap = _top(kind, elem.level), _swapper(kind, elem)
    return [swap(i, top) for i in range(1, top)]


def solid_neighbors(kind: GraphKind, elem: Element) -> tuple[EdgeStep, ...]:
    """All solid steps leaving ``elem``, in index order.  Empty at low levels."""
    _check_element(kind, elem)
    top = _top(kind, elem.level)
    return tuple(EdgeStep(SOLID, i, t, top) for i, t in enumerate(_solid_targets(kind, elem), 1))


def dashed_target(kind: GraphKind, elem: Element) -> Element | None:
    _check_element(kind, elem)
    if elem.level == 0:
        return None
    if kind is GraphKind.ORTHOGONAL:
        return elem.pairing_down() if elem.has_top_block() else None
    return elem.restrict_down() if elem.fixes_top() else None


def squiggled_target(kind: GraphKind, elem: Element) -> Permutation | None:
    if kind is not GraphKind.AIII:
        raise ValueError(f"squiggled edges exist only in the A III graph, not {kind.value}")
    _check_element(kind, elem)
    return elem.flat() if elem.top_in_two_cycle() else None


class ClassNode(NamedTuple):
    """Where a class representative's edges land: ``solid`` pairs each target
    class with its number of solid edges; ``dashed``/``squiggled`` are classes or None."""

    solid: tuple[tuple[tuple[int, ...], int], ...]
    dashed: tuple[int, ...] | None
    squiggled: tuple[int, ...] | None


COUNT_CAP = 1 << 16  # path counts kept; one benchmark job holds at most 1249


@cache
def class_node(kind: GraphKind, mu: tuple[int, ...]) -> ClassNode:
    """The node of class ``mu``, computed from ``mu`` on first use.

    The top point lies in the last, smallest part ``c = mu[-1]``, as in the
    class representatives of :mod:`wgcalc.symcore`; the other parts are
    ``rest``.  A solid step cuts that cycle into ``(a, c-a)`` for each
    ``a`` in ``1..c-1`` or joins it to a part ``m`` of ``rest``, ``m`` ways
    (``2m`` ways for pairings, which also take ``c-1`` self-loops).  The
    dashed step drops a top fixed point (``c == 1``), the squiggled step a
    top 2-cycle (``c == 2``); both land on ``rest``.

    >>> class_node(GraphKind.UNITARY, (2, 1))
    ClassNode(solid=(((3,), 2),), dashed=(2,), squiggled=None)
    >>> class_node(GraphKind.ORTHOGONAL, (2, 1))
    ClassNode(solid=(((3,), 4),), dashed=(2,), squiggled=None)
    """
    mu = validate_partition(mu)
    rest, c = mu[:-1], (mu[-1] if mu else 0)
    ortho = kind is GraphKind.ORTHOGONAL
    solid: dict[tuple[int, ...], int] = {mu: c - 1} if ortho and c > 1 else {}
    targets = [(rest + (a, c - a), 1) for a in range(1, c)]
    targets += [(rest[:j] + rest[j + 1:] + (m + c,), 2 * m if ortho else m)
                for j, m in enumerate(rest)]
    for parts, mult in targets:
        target = tuple(sorted(parts, reverse=True))
        solid[target] = solid.get(target, 0) + mult
    return ClassNode(
        tuple(solid.items()),
        rest if c == 1 else None,
        rest if kind is GraphKind.AIII and c == 2 else None,
    )


@lru_cache(maxsize=COUNT_CAP)
def _count(kind: GraphKind, mu: tuple[int, ...], solid: int, dashed: int) -> int:
    if not mu:
        return 1 if solid == 0 and dashed == 0 else 0
    node = class_node(kind, mu)
    total = 0
    if solid > 0:
        for target, mult in node.solid:
            total += mult * _count(kind, target, solid - 1, dashed)
    if node.dashed is not None:
        if dashed > 0:
            total += _count(kind, node.dashed, solid, dashed - 1)
    elif node.squiggled is not None:
        total += _count(kind, node.squiggled, solid, dashed)
    return total


def count_class_paths(kind: GraphKind, mu: tuple[int, ...], solid: int,
                      dashed: int | None = None) -> int:
    """Number of paths from a vertex of class ``mu`` to the empty object with
    ``solid`` solid steps and, if given, ``dashed`` dashed steps.

    Unitary and orthogonal paths take exactly ``k = sum(mu)`` dashed steps.
    An A III path takes ``dashed + 2*squiggled == k``; without ``dashed`` the
    count aggregates over every such split.
    """
    if solid < 0 or (dashed is not None and dashed < 0):
        return 0
    k = sum(mu)
    if dashed is None and kind is GraphKind.AIII:
        return sum(_count(kind, mu, solid, l1) for l1 in range(k, -1, -2))
    return _count(kind, mu, solid, k if dashed is None else dashed)


def count_paths(kind: GraphKind, elem: Element, solid: int, dashed: int | None = None) -> int:
    """:func:`count_class_paths` from ``elem``'s coset type or cycle type."""
    _check_element(kind, elem)
    mu = elem.coset_type() if kind is GraphKind.ORTHOGONAL else elem.cycle_type()
    return count_class_paths(kind, mu, solid, dashed)


@dataclass(frozen=True)
class Path:
    """A traversal from ``start`` down to the empty object."""

    kind: GraphKind
    start: Element
    steps: tuple[EdgeStep, ...]

    def nodes(self) -> tuple[Element, ...]:
        return (self.start,) + tuple(s.target for s in self.steps)

    def count(self, edge_kind: str) -> int:
        return sum(1 for s in self.steps if s.kind == edge_kind)

    def solid_transpositions(self) -> tuple[tuple[int, int], ...]:
        """The transposition carried by each solid step, in traversal order."""
        return tuple((s.index, s.top) for s in self.steps if s.kind == SOLID)


def enumerate_paths(
    kind: GraphKind, elem: Element, solid: int, limit: int | None = None
) -> list[Path]:
    """All paths with ``solid`` solid steps, ordered by the choices made at each
    vertex: solid edges by index, then dashed, then squiggled.

    Raises :class:`PathLimitExceeded` when more than ``limit`` paths exist.
    """
    _check_element(kind, elem)
    out: list[Path] = []
    acc: list[EdgeStep] = []

    def rec(node: Element, remaining: int) -> None:
        if node.level == 0:
            if remaining == 0:
                if limit is not None and len(out) >= limit:
                    raise PathLimitExceeded(limit)
                out.append(Path(kind, elem, tuple(acc)))
            return
        if remaining > 0:
            for step in solid_neighbors(kind, node):
                acc.append(step)
                rec(step.target, remaining - 1)
                acc.pop()
        down = dashed_target(kind, node)
        if down is not None:
            acc.append(EdgeStep(DASHED, None, down))
            rec(down, remaining)
            acc.pop()
        if kind is GraphKind.AIII:
            flat = squiggled_target(kind, node)
            if flat is not None:
                acc.append(EdgeStep(SQUIGGLED, None, flat))
                rec(flat, remaining)
                acc.pop()

    rec(elem, solid)
    return out


def format_path(path: Path) -> str:
    """Serialize: solid ``-(s,t)->``, dashed ``=>``, squiggled ``~>``."""
    parts = [format_element(path.start)]
    for step in path.steps:
        if step.kind == SOLID:
            parts.append(f"-({step.index},{step.top})->")
        else:
            parts.append("=>" if step.kind == DASHED else "~>")
        parts.append(format_element(step.target))
    return " ".join(parts)


@dataclass(frozen=True)
class MonotoneFactorization:
    """Transpositions ``(s_1,t_1)...(s_l,t_l)`` with ``s_i < t_i`` and weakly
    decreasing ``t_i``, multiplying (leftmost applied last) to a permutation,
    or acting on the trivial pairing in the orthogonal variant where every
    ``t_i`` is an odd position ``2r-1``.
    """

    kind: GraphKind
    level: int
    transpositions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind is GraphKind.AIII:
            raise ValueError("monotone factorizations are defined for the unitary and orthogonal graphs")
        ts = [t for _, t in self.transpositions]
        if any(ts[i] < ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError(f"second components must weakly decrease: {self.transpositions}")
        n_points = 2 * self.level if self.kind is GraphKind.ORTHOGONAL else self.level
        for s, t in self.transpositions:
            if not (1 <= s < t <= n_points):
                raise ValueError(f"bad transposition ({s},{t}) on {n_points} points")
            if self.kind is GraphKind.ORTHOGONAL and t % 2 == 0:
                raise ValueError(f"orthogonal factors need odd second components: ({s},{t})")

    def product(self) -> Permutation:
        n_points = 2 * self.level if self.kind is GraphKind.ORTHOGONAL else self.level
        acc = Permutation.identity(n_points)
        for s, t in self.transpositions:
            acc = acc * Permutation.transposition(n_points, s, t)
        return acc

    def target(self) -> Element:
        """The permutation (or pairing, via action on the trivial one) produced."""
        prod = self.product()
        if self.kind is GraphKind.ORTHOGONAL:
            return PairPartition.trivial(self.level).apply(prod)
        return prod


def path_to_factorization(path: Path) -> MonotoneFactorization:
    return MonotoneFactorization(path.kind, path.start.level, path.solid_transpositions())


def factorization_to_path(f: MonotoneFactorization) -> Path:
    """Rebuild the unique path whose solid steps carry ``f``'s transpositions.

    Walks from ``f.target()``: each factor ``(s,t)`` forces dashed descents
    until its level is reached, then a solid step with index ``s``; the
    remainder descends dashed to the empty object.  Raises ``ValueError``
    when the walk gets stuck, which happens exactly when the sequence is not
    realizable (e.g. a factor below a level whose top cannot be dropped).
    """
    kind = f.kind
    start = f.target()
    cur = start
    steps: list[EdgeStep] = []

    def descend_once() -> None:
        nonlocal cur
        down = dashed_target(kind, cur)
        if down is None:
            raise ValueError("factorization does not correspond to a path: stuck descent")
        steps.append(EdgeStep(DASHED, None, down))
        cur = down

    for s, t in f.transpositions:
        want_level = (t + 1) // 2 if kind is GraphKind.ORTHOGONAL else t
        while cur.level > want_level:
            descend_once()
        if cur.level != want_level:
            raise ValueError(f"factor ({s},{t}) sits above the current level {cur.level}")
        nxt = _swapper(kind, cur)(s, t)
        steps.append(EdgeStep(SOLID, s, nxt, t))
        cur = nxt
    while cur.level > 0:
        descend_once()
    return Path(kind, start, tuple(steps))


def enumerate_monotone_factorizations(
    kind: GraphKind, level: int, length: int
) -> Iterator[MonotoneFactorization]:
    """Brute-force generator of every monotone sequence of given length.

    Deliberately independent of the path machinery so the two can be played
    against each other; intended for small levels only.
    """
    if kind is GraphKind.ORTHOGONAL:
        choices = [
            (s, 2 * r - 1) for r in range(1, level + 1) for s in range(1, 2 * r - 1)
        ]
    else:
        choices = [(s, t) for t in range(1, level + 1) for s in range(1, t)]

    def rec(prefix: tuple, remaining: int, max_t: int):
        if remaining == 0:
            yield MonotoneFactorization(kind, level, prefix)
            return
        for s, t in choices:
            if t <= max_t:
                yield from rec(prefix + ((s, t),), remaining - 1, t)

    yield from rec((), length, 10 ** 9)


def clear_caches() -> None:
    class_node.cache_clear()
    _count.cache_clear()
