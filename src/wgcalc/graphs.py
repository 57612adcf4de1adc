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
(Matsumoto-Novak), so ``wg factorizations`` lists each path's
:meth:`Path.solid_transpositions`.  The inverse map and a brute-force
generator of the sequences live in ``tests/oracles.py``, where they check
that bijection.

Path counts are class functions of the start vertex (cycle type, coset
type), so each kind is also described once at class level, one table per
level: :func:`level_nodes` computes every class's solid targets with
multiplicities, dashed target and squiggled target from the partition
alone, and keeps at most :data:`NODE_LEVEL_CAP` whole levels in a
``functools.lru_cache``.  A transposition moving the top point joins its
cycle to another cycle or cuts it in two (Goulden-Jackson, *Transitive
factorizations into transpositions*, PAMS 1997); on pairings the same
join/cut acts on coset types, with the cuts that restore the block as
self-loops.  No element is built.  One table, :func:`count_table`, sweeps
the nodes bottom-up for every kind and depth, with no recursion and no
count memo; series, bounds, :func:`count_class_paths` and
:func:`enumerate_paths` read it, and :mod:`wgcalc.exact` builds its rows
from the same node tables.  Class constancy is assumed, not derived;
``tests/test_graphs.py`` checks every node of small levels against the one
read off a representative element, the class-level counts against
element-level walks and :func:`enumerate_paths` on every element of small
levels, and ``exact.wg_coe_direct`` checks the solver.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple, Union

from .symcore import PairPartition, Permutation, format_element, partitions, validate_partition

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
        targets = [(rest + (a, c - a), 1) for a in range(1, c)]
        targets += [(rest[:i] + rest[i + 1:] + (m + c,), 2 * m if ortho else m)
                    for i, m in enumerate(rest)]
        for parts, mult in targets:
            target = tuple(sorted(parts, reverse=True))
            solid[target] = solid.get(target, 0) + mult
        nodes[mu] = ClassNode(
            tuple(solid.items()),
            rest if c == 1 else None,
            rest if kind is GraphKind.AIII and c == 2 else None,
        )
    return nodes


def count_table(kind: GraphKind, k: int, solid: int) -> dict[tuple[int, ...], list[list[int]]]:
    """Path counts from every class of level ``<= k``, swept bottom-up:
    ``table[mu][q][s]`` counts the paths from ``mu`` with ``s <= solid`` solid
    and ``q`` squiggled steps (``q`` is 0 outside A III).  A row at ``s`` is its
    dashed (or squiggled, one ``q`` lower) target's row at ``s`` plus its solid
    targets' rows at ``s - 1`` times their multiplicities."""
    zeros = [0] * (solid + 1)
    table = {(): [[1] + zeros[1:]]}
    for j in range(1, k + 1):
        nodes = level_nodes(kind, j)
        n_rows = j // 2 + 1 if kind is GraphKind.AIII else 1
        for mu, node in nodes.items():
            below = (table[node.dashed] if node.dashed is not None
                     else [zeros] + table.get(node.squiggled, []))
            table[mu] = [(below[q] if q < len(below) else zeros)[:] for q in range(n_rows)]
        # one (row, [(multiplicity, solid target's row)]) per class and q
        plan = [(row, [(mult, table[target][q]) for target, mult in node.solid])
                for mu, node in nodes.items() for q, row in enumerate(table[mu])]
        for s in range(1, solid + 1):
            for row, steps in plan:
                for mult, target in steps:
                    row[s] += mult * target[s - 1]
    return table


def count_class_paths(kind: GraphKind, mu: tuple[int, ...], solid: int,
                      dashed: int | None = None) -> int:
    """Number of paths from a vertex of class ``mu`` to the empty object with
    ``solid`` solid steps and, if given, ``dashed`` dashed steps.

    Unitary and orthogonal paths take exactly ``k = sum(mu)`` dashed steps.
    An A III path takes ``dashed + 2*squiggled == k``; without ``dashed`` the
    count aggregates over every such split.
    """
    if solid < 0:
        return 0
    mu = validate_partition(mu)
    rows = count_table(kind, sum(mu), solid)[mu]
    return sum(row[solid] for q, row in enumerate(rows) if dashed in (None, sum(mu) - 2 * q))


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

    def count(self, edge_kind: str) -> int:
        return sum(1 for s in self.steps if s.kind == edge_kind)

    def solid_transpositions(self) -> tuple[tuple[int, int], ...]:
        """The transposition carried by each solid step, in traversal order."""
        return tuple((s.index, s.top) for s in self.steps if s.kind == SOLID)


def enumerate_paths(kind: GraphKind, elem: Element, solid: int) -> list[Path]:
    """All paths with ``solid`` solid steps, ordered by the choices made at each
    vertex: solid edges by index, then dashed, then squiggled.  The walk keeps
    its own stack and enters only vertices that :func:`count_table` puts on a path.
    """
    _check_element(kind, elem)
    table = count_table(kind, elem.level, solid)
    class_of = PairPartition.coset_type if kind is GraphKind.ORTHOGONAL else Permutation.cycle_type

    def live(node: Element, remaining: int) -> bool:
        return any(row[remaining] for row in table[class_of(node)])

    out: list[Path] = []
    acc: list[EdgeStep] = []
    # (steps taken before, step or None at the start, vertex reached, solid steps left)
    stack = [(0, None, elem, solid)] if live(elem, solid) else []
    while stack:
        depth, step, node, remaining = stack.pop()
        acc[depth:] = [step] if step else []
        if node.level == 0:
            out.append(Path(kind, elem, tuple(acc)))
            continue
        edges = [(e, remaining - 1) for e in solid_neighbors(kind, node)] if remaining else []
        flat = squiggled_target(kind, node) if kind is GraphKind.AIII else None
        for edge_kind, target in ((DASHED, dashed_target(kind, node)), (SQUIGGLED, flat)):
            if target is not None:
                edges.append((EdgeStep(edge_kind, None, target), remaining))
        stack.extend((len(acc), e, e.target, r) for e, r in reversed(edges) if live(e.target, r))
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


def clear_caches() -> None:
    level_nodes.cache_clear()
