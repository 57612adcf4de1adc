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

No other module decides an element's edges (:func:`solid_targets`,
:func:`dashed_target`, :func:`squiggled_target`).  A path runs from its
start vertex down to the empty object; paths with their solid-step
annotations biject with monotone transposition factorizations
(Matsumoto-Novak).  One walk lists both, lazily and in a fixed order:
:func:`enumerate_paths` yields the paths, :func:`monotone_factorizations`
their :meth:`Path.solid_transpositions` with the dashed edge tried first,
which is already the sequences' order, so nothing is sorted or held.  The
inverse map and a brute-force generator of the sequences live in
``tests/oracles.py``, where they check that bijection and that order.

Path counts are class functions of the start vertex (cycle type, coset
type), so each kind is also described once at class level:
:func:`level_nodes` reads every class's targets off its partition by the
join/cut rule (Goulden-Jackson, *Transitive factorizations into
transpositions*, PAMS 1997), and :mod:`wgcalc.exact` builds its rows from
these node tables.  One sweep, :func:`count_columns`, yields the counts of
one flat row per class and squiggled count, one solid length at a time;
:func:`count_class_paths` keeps the last column, the listings' walk every
column, series and bounds a few rows (:func:`class_counts`).  Class
constancy is assumed, not derived: the tests check it against element-level
walks on small levels, and ``exact.wg_coe_direct`` checks the solver.
"""

from __future__ import annotations

import enum
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, NamedTuple, Union

from .symcore import (PairPartition, Permutation, _immutable, format_element, partitions,
                      validate_partition)

Element = Union[Permutation, PairPartition]


class GraphKind(enum.Enum):
    UNITARY = "u"
    ORTHOGONAL = "o"
    AIII = "aiii"


SOLID = "solid"
DASHED = "dashed"
SQUIGGLED = "squiggled"


def _check_element(kind: GraphKind, elem: Element) -> None:
    if kind is GraphKind.ORTHOGONAL:
        if not isinstance(elem, PairPartition):
            raise TypeError(f"{kind.value} graph vertices are pair partitions, got {elem!r}")
    elif not isinstance(elem, Permutation):
        raise TypeError(f"{kind.value} graph vertices are permutations, got {elem!r}")


def vertex_class(kind: GraphKind, elem: Element) -> tuple[int, ...]:
    """The class of the ``kind`` vertex ``elem``: its coset type or cycle type."""
    _check_element(kind, elem)
    return elem.cycle_type() if isinstance(elem, Permutation) else elem.coset_type()


class EdgeStep:
    """One traversed edge: its kind, the vertex reached and, on a solid step,
    its transposition ``(index, top)``; ``top`` is ``k``, or ``2k-1`` for
    orthogonal, at the level ``k`` the step stays on.  Immutable; equal, with
    equal hashes, exactly when the class and these four fields are."""

    def __init__(self, kind: str, index: int | None, target: Element, top: int | None = None):
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "index", index)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "top", top)

    __setattr__ = __delattr__ = _immutable

    def __repr__(self) -> str:
        return (f"EdgeStep(kind={self.kind!r}, index={self.index!r}, "
                f"target={self.target!r}, top={self.top!r})")

    def _key(self) -> tuple:
        return (self.kind, self.index, self.target, self.top)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def text(self) -> str:
        """The step as :func:`format_path` prints it, kept on the step: solid
        ``-(i,k)-> target``, dashed ``=> target``, squiggled ``~> target``."""
        if self.kind == SOLID:
            arrow = f"-({self.index},{self.top})->"
        else:
            arrow = "=>" if self.kind == DASHED else "~>"
        return f"{arrow} {format_element(self.target)}"


def _top(kind: GraphKind, level: int) -> int:
    """The point every solid transposition at ``level`` moves."""
    return 2 * level - 1 if kind is GraphKind.ORTHOGONAL else level


def solid_targets(kind: GraphKind, elem: Element) -> list[Element]:
    """Targets of the solid steps leaving ``elem``; index ``i`` sits at position ``i-1``."""
    _check_element(kind, elem)
    top = _top(kind, elem.level)
    swap = elem.swap_points if kind is GraphKind.ORTHOGONAL else elem.swap_values
    return [swap(i, top) for i in range(1, top)]


def solid_neighbors(kind: GraphKind, elem: Element) -> tuple[EdgeStep, ...]:
    """All solid steps leaving ``elem``, in index order.  Empty at low levels."""
    targets = solid_targets(kind, elem)
    top = _top(kind, elem.level)
    return tuple(EdgeStep(SOLID, i, t, top) for i, t in enumerate(targets, 1))


def dashed_target(kind: GraphKind, elem: Element) -> Element | None:
    """``elem`` without its fixed top point ``k``, respectively its top block
    ``{2k-1, 2k}`` (last in canonical block order); None if there is none."""
    _check_element(kind, elem)
    k = elem.level
    if kind is GraphKind.ORTHOGONAL:
        has_top = elem.blocks[-1:] == ((2 * k - 1, 2 * k),)
        return PairPartition(elem.blocks[:-1]) if has_top else None
    return Permutation(elem.images[:-1]) if elem.images[-1:] == (k,) else None


def squiggled_target(kind: GraphKind, elem: Element) -> Permutation | None:
    """``elem`` without the 2-cycle ``(r k)`` through its top point, squeezed
    onto ``{1..k-2}`` in order; None if the top is in no 2-cycle.

    >>> squiggled_target(GraphKind.AIII, Permutation((4, 5, 1, 3, 2)))
    Permutation(images=(3, 1, 2))
    """
    if kind is not GraphKind.AIII:
        raise ValueError(f"squiggled edges exist only in the A III graph, not {kind.value}")
    _check_element(kind, elem)
    imgs, k = elem.images, elem.level
    r = imgs[-1] if k else 0
    if r == k or imgs[r - 1] != k:
        return None
    return Permutation(tuple(y - (y > r) for x, y in enumerate(imgs[:-1], 1) if x != r))


class ClassNode(NamedTuple):
    """Where a class representative's edges land: ``solid`` pairs each target
    class with its number of solid edges; ``dashed``/``squiggled`` are classes or None."""

    solid: tuple[tuple[tuple[int, ...], int], ...]
    dashed: tuple[int, ...] | None
    squiggled: tuple[int, ...] | None


NODE_LEVEL_CAP = 32  # whole levels of nodes kept; one benchmark job reads at most 14


@lru_cache(maxsize=NODE_LEVEL_CAP)
def level_nodes(kind: GraphKind, j: int) -> dict[tuple[int, ...], ClassNode]:
    """The node of every class of level ``j``, in :func:`partitions` order.

    The top point lies in the last, smallest part ``c = mu[-1]``, as in the
    class representatives of :mod:`wgcalc.symcore`; the other parts are
    ``rest``.  A solid step cuts that cycle into ``(a, c-a)`` for each
    ``a`` in ``1..c-1`` or joins it to a part ``m`` of ``rest``, ``m`` ways
    (``2m`` ways for pairings, which also take ``c-1`` self-loops).  The
    dashed step drops a top fixed point (``c == 1``), the squiggled step a
    top 2-cycle (``c == 2``); both land on ``rest``.
    """
    ortho = kind is GraphKind.ORTHOGONAL
    nodes = {}
    for mu in partitions(j):
        rest, c = mu[:-1], (mu[-1] if mu else 0)
        solid: dict[tuple[int, ...], int] = {mu: c - 1} if ortho and c > 1 else {}
        for a in range(1, c):  # both parts of a cut are below every part of rest
            target = rest + ((c - a, a) if 2 * a <= c else (a, c - a))
            solid[target] = solid.get(target, 0) + 1
        for i, m in enumerate(rest):  # a join moves m + c up past the smaller parts
            p = i
            while p and rest[p - 1] < m + c:
                p -= 1
            target = rest[:p] + (m + c,) + rest[p:i] + rest[i + 1:]
            solid[target] = solid.get(target, 0) + (2 * m if ortho else m)
        nodes[mu] = ClassNode(
            tuple(solid.items()),
            rest if c == 1 else None,
            rest if kind is GraphKind.AIII and c == 2 else None,
        )
    return nodes


def count_columns(kind: GraphKind, k: int, solid: int
                  ) -> tuple[dict[tuple[int, ...], list[int]], Iterator[list[int]]]:
    """Path counts from every class of level ``<= k``, one solid length at a time.

    ``rows[mu][q]`` numbers the row of class ``mu`` with ``q`` squiggled
    steps (0 outside A III); column ``s <= solid`` counts there the paths
    with ``s`` solid steps: the dashed (or squiggled, one ``q`` lower)
    target's count at ``s`` plus the solid targets' at ``s - 1`` times their
    multiplicities.  Targets are looked up once; row 0, always 0, is none.

    >>> rows, columns = count_columns(GraphKind.UNITARY, 2, 4)
    >>> counts = list(columns)
    >>> {mu: [column[r] for column in counts] for mu, (r,) in rows.items()}
    {(): [1, 0, 0, 0, 0], (1,): [1, 0, 0, 0, 0], (2,): [0, 1, 0, 1, 0], (1, 1): [1, 0, 1, 0, 1]}
    """
    rows: dict[tuple[int, ...], list[int]] = {(): [1]}
    plan: list[tuple[int, list[tuple[int, int]]]] = []  # row 2, 3, ...: (below, [(mult, target)])
    for j in range(1, k + 1):
        nodes = level_nodes(kind, j)
        n_q, first = (j // 2 + 1 if kind is GraphKind.AIII else 1), len(plan) + 2
        for i, mu in enumerate(nodes):
            rows[mu] = list(range(first + i * n_q, first + (i + 1) * n_q))
        for node in nodes.values():
            below = (rows[node.dashed] if node.dashed is not None
                     else [0] + rows.get(node.squiggled, []))
            plan += [(below[q] if q < len(below) else 0,
                      [(mult, rows[target][q]) for target, mult in node.solid])
                     for q in range(n_q)]

    def sweep() -> Iterator[list[int]]:
        column = [0] * (len(plan) + 2)
        for s in range(solid + 1):
            previous, column = column, [0, int(s == 0)]
            for below, steps in plan:
                count = column[below]
                for mult, target in steps:
                    count += mult * previous[target]
                column.append(count)
            yield column

    return rows, sweep()


def class_counts(kind: GraphKind, k: int, solid: int, classes: Iterable[tuple[int, ...]]
                 ) -> list[tuple[int, ...]]:
    """The counts at ``s = 0..solid`` of each of ``classes``' rows, in order."""
    rows, columns = count_columns(kind, k, solid)
    wanted = [r for mu in classes for r in rows[mu]]
    return list(zip(*([column[r] for r in wanted] for column in columns)))


def count_class_paths(kind: GraphKind, mu: tuple[int, ...], solid: int,
                      dashed: int | None = None) -> int:
    """Number of paths from a vertex of class ``mu`` to the empty object with
    ``solid`` solid steps and, if given, ``dashed`` dashed steps.

    Unitary and orthogonal paths take exactly ``k = sum(mu)`` dashed steps.
    An A III path takes ``dashed + 2*squiggled == k``; without ``dashed`` the
    count aggregates over every such split.  Only the last of
    :func:`count_columns` is kept, so memory grows with the counts' size,
    not with ``solid`` times it.
    """
    if solid < 0:
        return 0
    mu = validate_partition(mu)
    k = sum(mu)
    rows, columns = count_columns(kind, k, solid)
    for column in columns:
        pass
    return sum(column[r] for q, r in enumerate(rows[mu]) if dashed in (None, k - 2 * q))


def count_paths(kind: GraphKind, elem: Element, solid: int, dashed: int | None = None) -> int:
    """:func:`count_class_paths` from ``elem``'s :func:`vertex_class`."""
    return count_class_paths(kind, vertex_class(kind, elem), solid, dashed)


class Path(NamedTuple):
    """A traversal from ``start`` down to the empty object."""

    kind: GraphKind
    start: Element
    steps: tuple[EdgeStep, ...]

    def solid_transpositions(self) -> tuple[tuple[int, int], ...]:
        """The transposition carried by each solid step, in traversal order."""
        return tuple((s.index, s.top) for s in self.steps if s.kind == SOLID)


def enumerate_paths(kind: GraphKind, elem: Element, solid: int,
                    dashed: int | None = None) -> Iterator[Path]:
    """Each path with ``solid`` solid steps and, if given, ``dashed`` dashed
    steps, yielded as the walk finds it, in the order of the choices made at
    each vertex: solid edges by index, then dashed, then squiggled.  The
    element is checked here, before the first path."""
    _check_element(kind, elem)
    return _walk(kind, elem, solid, dashed, False)


def monotone_factorizations(kind: GraphKind, elem: Element, length: int
                            ) -> Iterator[tuple[tuple[int, int], ...]]:
    """Each path's :meth:`Path.solid_transpositions`, ``length`` of them, from
    the walk that tries the dashed edge before the solid ones.  After a
    dashed step every top is below the level's, and solid steps go by index,
    so this is the monotone sequences' order: by their ``(t, s)`` pairs,
    lexicographically.  The element is checked here, before the first item."""
    _check_element(kind, elem)
    return (path.solid_transpositions() for path in _walk(kind, elem, length, None, True))


def _walk(kind: GraphKind, elem: Element, solid: int, dashed: int | None,
          dashed_first: bool) -> Iterator[Path]:
    """The walk behind both listings.

    It keeps its own stack and enters only vertices that
    :func:`count_columns` puts on a path (with ``dashed``, on the row of the
    squiggled steps left).  Its memos live for one listing: each vertex's
    class rows and edges, and per ``(vertex, solid and squiggled steps
    left)`` its live moves, filtered once.  Paths share one
    :class:`EdgeStep` per step, and none is kept once yielded.
    """
    if solid < 0 or dashed is not None and (dashed > elem.level or (elem.level - dashed) % 2):
        return
    rows, columns = count_columns(kind, elem.level, solid)
    columns = list(columns)
    class_of = PairPartition.coset_type if kind is GraphKind.ORTHOGONAL else Permutation.cycle_type
    rows_of: dict[Element, list[int]] = {}  # vertex -> its class's rows
    solid_of: dict[Element, tuple[EdgeStep, ...]] = {}  # vertex -> its solid steps
    down_of: dict[Element, list[EdgeStep]] = {}  # vertex -> its dashed and squiggled steps
    # (vertex, solid, squiggled or None steps left) -> [the same three, live moves once expanded]
    entries: dict[tuple[Element, int, int | None], list] = {}

    def entry(node: Element, remaining: int, q: int | None) -> list | None:
        """The walk's entry for ``node``; None if no path leaves it."""
        live = rows_of.get(node)
        if live is None:
            live = rows_of[node] = rows[class_of(node)]
        if not any(columns[remaining][r] for r in (live if q is None else live[q:q + 1])):
            return None
        return entries.setdefault((node, remaining, q), [node, remaining, q, None])

    def live_moves(node: Element, remaining: int, q: int | None) -> list[tuple[EdgeStep, list]]:
        """``(step, entry reached)`` for every live edge, in stack order."""
        if node not in down_of:
            flat = squiggled_target(kind, node) if kind is GraphKind.AIII else None
            down_of[node] = [EdgeStep(edge_kind, None, target)
                             for edge_kind, target in ((DASHED, dashed_target(kind, node)),
                                                       (SQUIGGLED, flat))
                             if target is not None]
        if remaining and node not in solid_of:
            solid_of[node] = solid_neighbors(kind, node)
        edges = [(e, remaining - 1, q) for e in solid_of[node]] if remaining else []
        down = [(e, remaining, q - 1 if q is not None and e.kind == SQUIGGLED else q)
                for e in down_of[node]]
        edges = down + edges if dashed_first else edges + down
        moves = [(e, entry(e.target, r, left)) for e, r, left in reversed(edges)]
        return [(e, reached) for e, reached in moves if reached is not None]

    acc: list[EdgeStep] = []
    start = entry(elem, solid, None if dashed is None else (elem.level - dashed) // 2)
    # (steps taken before, step or None at the start, entry reached)
    stack = [(0, None, start)] if start else []
    while stack:
        depth, step, here = stack.pop()
        acc[depth:] = [step] if step else []
        node, remaining, q, moves = here
        if node.level == 0:
            yield Path(kind, elem, tuple(acc))
            continue
        if moves is None:
            moves = here[3] = live_moves(node, remaining, q)
        depth = len(acc)
        stack.extend((depth, e, reached) for e, reached in moves)


def format_path(path: Path) -> str:
    """Serialize: solid ``-(s,t)->``, dashed ``=>``, squiggled ``~>``.  The
    paths of one :func:`enumerate_paths` call share their step objects, so a
    listing formats each distinct step once (:attr:`EdgeStep.text`)."""
    return " ".join([format_element(path.start), *(step.text for step in path.steps)])


def clear_caches() -> None:
    level_nodes.cache_clear()
