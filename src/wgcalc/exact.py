"""Exact Weingarten functions for five matrix ensembles.

Each family satisfies an orthogonality recurrence tying level ``k`` to the
levels below it, with the empty object worth 1:

* unitary:      ``d W(sigma) = -sum_i W((i,k)sigma) + [sigma(k)=k] W(drop)``
* orthogonal:   ``d W(m) = -sum_{i<=2k-2} W((i,2k-1).m) + [top block] W(drop)``
* COE:          the orthogonal shape with coefficient ``d+1`` on the left
* symplectic:   ``|W_sp(m, d)| = |W_o(m, -2d)|`` (the sign is not tracked)
* A III:        ``d W(sigma) = -sum_i W((i,k)sigma) + [sigma(k)=k] dminus W(drop)
                + [top 2-cycle] W(flat)``, at dimensions ``d = a+b``,
                ``dminus = a-b``

Values are constant on cycle-type (permutation families) or coset-type
(pair-partition families) classes, so each level is solved as a small exact
linear system with one unknown per class, by sparse fraction-free
elimination (:func:`wgcalc.ratfunc.solve_linear_exact`).  One row builder
serves every family: it walks the level's node table
(:func:`wgcalc.graphs.level_nodes`), reads each class's solid, dashed and
squiggled targets from it and writes each row as a ``{column: integer}``
dict.  The cached unit is one solved level, keyed by family graph,
dimension argument and level and kept in a bounded ``functools.lru_cache``
(``LEVEL_CAP`` levels); level ``k`` reads only the cached levels ``k-1``
and ``k-2``.  Singular systems are detected exactly
and reported, never patched.  The level-``k`` unitary system is singular
at every ``-k < d < k`` (checked for ``k = 2..7``) and no ensemble has
``d <= -k``, so the unitary route refuses every ``d < k`` before solving.

Public API: :func:`wg` (one element) and :func:`wg_class` (one class, and
the one place each family is mapped to its memo, shifted dimension and
guards); :func:`wg_coe_direct` (COE element by element, an independent
check of the class reduction); :func:`series` (large-``d`` expansions from
the path counts of :mod:`wgcalc.graphs`) and :func:`reconstruct_rational`
(closed forms in ``d``).

Closed forms interpolate ``Q*Wg`` against a known denominator
(:func:`wg_denominator`): ``Q_u = lcm_{lambda |- k} prod_{(i,j)} (d + j - i)``
for ``u`` (Collins–Śniady, CMP 264, 2006), ``Q_o``, the same with
``d + 2j - i``, for ``o`` (zonal ``Z_{2 lambda}(1^d)``, Collins–Matsumoto),
``Q_o(d+1)`` for ``coe``, ``Q_o(-2d)`` for ``sp``.  For ``aiii``, ``Q_u`` is
observed (``k <= 6``, ``dminus`` -1..3), not proven; a held-out check guards
it and raises :class:`wgcalc.ratfunc.DenominatorMismatchError`.
"""

from __future__ import annotations

import warnings
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from . import ratfunc
from .graphs import GraphKind, class_counts, dashed_target, level_nodes, solid_targets
from .symcore import (
    PairPartition,
    Permutation,
    all_pair_partitions,
    partitions,
    validate_partition,
)

FAMILIES = ("u", "o", "coe", "sp", "aiii")


class SingularSystemError(ArithmeticError):
    """The class-level linear system has no unique solution at this dimension."""

    def __init__(self, family: str, level: int, d, dminus=None):
        self.family = family
        self.level = level
        self.d = d
        self.dminus = dminus
        dims = f"d={d}" if dminus is None else f"d={d}, dminus={dminus}"
        super().__init__(f"singular {family} system at level {level}, {dims}")


class BelowLevelError(ValueError):
    """A unitary class of level ``k`` was asked for at ``d < k``, where the
    system is singular (``-k < d < k``) or no ensemble exists (``d <= -k``)."""

    def __init__(self, d: int, k: int):
        self.d = d
        self.k = k
        super().__init__(f"dimension {d} below level {k}")


LEVEL_CAP = 512  # solved levels kept; one benchmark job holds at most 60


@lru_cache(maxsize=LEVEL_CAP)
def _level(kind: GraphKind, d: int, dminus: int | None, j: int) -> dict:
    """Values of every level-``j`` class of the ``kind`` system at ``d``,
    solved from class-graph rows over level ``j-1`` (dashed) and ``j-2``
    (squiggled); raises :class:`SingularSystemError` at the first singular
    level."""
    if j == 0:
        return {(): Fraction(1)}
    below = _level(kind, d, dminus, j - 1)
    nodes = level_nodes(kind, j)
    index = {mu: i for i, mu in enumerate(nodes)}
    rows, rhs = [], []
    for mu, node in nodes.items():
        row = {index[mu]: d}
        for target, mult in node.solid:
            col = index[target]
            row[col] = row.get(col, 0) + mult
        rows.append(row)
        if node.dashed is not None:
            down = below[node.dashed]
            rhs.append(down if dminus is None else dminus * down)
        elif node.squiggled is not None:
            rhs.append(_level(kind, d, dminus, j - 2)[node.squiggled])
        else:
            rhs.append(0)
    sol = ratfunc.solve_linear_exact(rows, rhs)
    if sol is None:
        raise SingularSystemError(kind.value, j, d, dminus)
    return dict(zip(nodes, sol))


def _check_dim(d) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    return d


def _check_coe_dim(d: int) -> None:
    """No COE ensemble has ``d < 1``; both COE routes refuse it."""
    if d < 1:
        raise ValueError(f"COE dimension must be positive, got {d}")


def wg_class(family: str, mu: tuple[int, ...], d: int, dminus: int | None = None) -> Fraction:
    """Weingarten value of the level-``sum(mu)`` class ``mu`` of ``family``.

    The one place a family is mapped to its route:

    * ``u``:    the unitary system at ``d >= k``; ``d < k`` raises
      :class:`BelowLevelError` (the system is singular at ``-k < d < k``,
      and no ensemble has ``d <= -k``).
    * ``o``:    the orthogonal system at ``d``, any integer; negative
      arguments are how the symplectic route is evaluated.
    * ``coe``:  the orthogonal system at ``d+1`` (dimension-shift identity),
      for ``d >= 1``.
    * ``sp``:   ``|orthogonal at -2d|`` for ``d >= 1``; the sign is
      deliberately out of scope.
    * ``aiii``: the A III system at ``d = a+b``, ``dminus = a-b``;
      ``|dminus| > d`` has no matching ensemble, so it is still computed
      but flagged with a warning.

    The value is looked up in the cached solved level ``sum(mu)``, solved
    on demand from the levels below.  A singular level raises
    :class:`SingularSystemError` naming ``family`` and ``d`` as given, also
    on the shifted routes.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family != "aiii" and dminus is not None:
        raise ValueError(f"family {family!r} takes no dminus")
    _check_dim(d)
    mu = validate_partition(mu)
    k = sum(mu)
    kind, dim = GraphKind.ORTHOGONAL, d
    if family == "u":
        if d < k:
            raise BelowLevelError(d, k)
        kind = GraphKind.UNITARY
    elif family == "coe":
        _check_coe_dim(d)
        dim = d + 1
    elif family == "sp":
        if d < 1:
            raise ValueError(f"symplectic dimension must be positive, got {d}")
        dim = -2 * d
    elif family == "aiii":
        if dminus is None:
            raise ValueError("family 'aiii' needs dminus")
        _check_dim(dminus)
        if d < 1:
            raise ValueError(f"dimension must be positive, got {d}")
        if abs(dminus) > d:
            warnings.warn(
                f"|dminus|={abs(dminus)} exceeds d={d}: no signature (a,b) realizes this",
                stacklevel=2,
            )
        kind = GraphKind.AIII
    try:
        value = _level(kind, dim, dminus, k)[mu]
    except SingularSystemError as exc:
        raise SingularSystemError(family, exc.level, d, dminus) from None
    return abs(value) if family == "sp" else value


def wg_denominator(family: str, k: int) -> ratfunc.Poly:
    """The level-``k`` denominator of ``family`` (see the module docstring),
    cells ``(i, j)`` 0-based.

    >>> [str(c) for c in wg_denominator("u", 2)]
    ['0', '-1', '0', '1']
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    step = 1 if family in ("u", "aiii") else 2
    contents: Counter = Counter()
    for lam in partitions(k):  # the lcm keeps each factor at its top multiplicity
        contents |= Counter(step * j - i for i, row in enumerate(lam) for j in range(row))
    scale, shift = {"coe": (1, 1), "sp": (-2, 0)}.get(family, (1, 0))
    return reduce(ratfunc.poly_mul, ((Fraction(shift + c), Fraction(scale))
                                     for c in contents.elements()), (Fraction(1),))


def wg(family: str, elem, d: int, dminus: int | None = None) -> Fraction:
    """Weingarten value of one element: a permutation for ``u`` and
    ``aiii``, a pair partition for ``o``, ``coe`` and ``sp``.  See
    :func:`wg_class` for the routes and their guards."""
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if family in ("u", "aiii"):
        if not isinstance(elem, Permutation):
            raise TypeError(f"family {family!r} expects a permutation")
        return wg_class(family, elem.cycle_type(), d, dminus)
    if not isinstance(elem, PairPartition):
        raise TypeError(f"family {family!r} expects a pair partition")
    return wg_class(family, elem.coset_type(), d, dminus)


def wg_coe_direct(m: PairPartition, d: int) -> Fraction:
    """COE value solved element by element from its own recurrence.

    No class reduction: one unknown per pair partition of each level, its
    edges read element by element from :mod:`wgcalc.graphs`, so this route
    is structurally independent of ``wg("coe", ...)`` and doubles as a
    check of the class constancy it assumes.
    """
    _check_coe_dim(_check_dim(d))
    return _coe_level(d, m.level)[m]


@lru_cache(maxsize=LEVEL_CAP)
def _coe_level(d: int, j: int) -> dict:
    """Values of every level-``j`` pairing of the element-level COE system at ``d``."""
    if j == 0:
        return {PairPartition(()): Fraction(1)}
    below = _coe_level(d, j - 1)
    elems = list(all_pair_partitions(j))
    index = {e: i for i, e in enumerate(elems)}
    rows, rhs = [], []
    for e in elems:
        row = {index[e]: d + 1}
        for target in solid_targets(GraphKind.ORTHOGONAL, e):
            col = index[target]
            row[col] = row.get(col, 0) + 1
        rows.append(row)
        rhs.append(below.get(dashed_target(GraphKind.ORTHOGONAL, e), 0))
    sol = ratfunc.solve_linear_exact(rows, rhs)
    if sol is None:
        raise SingularSystemError("coe", j, d)
    return dict(zip(elems, sol))


@dataclass(frozen=True)
class SeriesTruncation:
    """Truncated large-``d`` expansion, coefficients straight from path counts.

    With ``n`` the element's absolute length and ``k`` its level:

    * ``u``:    ``W = sign * sum_g c[g] d**-(k+n+2g)``, sign ``(-1)**n``
    * ``o``:    ``W = sign * sum_g c[g] (-1)**g d**-(k+n+g)``
    * ``sp``:   ``|W| = sum_g c[g] (2d)**-(k+n+g)``
    * ``aiii``: ``W = sum_g P_g(dminus) d**-(n0+g)`` where each coefficient
      is a polynomial in ``dminus`` stored as an exponent-to-int dict and
      ``-n0`` is ``leading_exponent``.

    ``leading_exponent`` is the exponent of ``d`` (of ``2d`` for ``sp``)
    carried by ``coefficients[0]``.
    """

    family: str
    element: Permutation | PairPartition
    leading_exponent: int
    coefficients: tuple
    order: int


def series(family: str, element, order: int) -> SeriesTruncation:
    """Expansion coefficients for one element through ``order`` terms past the lead."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    k = element.level
    if family == "u":
        if not isinstance(element, Permutation):
            raise TypeError("unitary series expects a permutation")
        n = element.absolute_length()
        row = class_counts(GraphKind.UNITARY, k, n + 2 * order, [element.cycle_type()])[0]
        return SeriesTruncation("u", element, -(k + n), tuple(row[n::2]), order)
    if family in ("o", "sp"):
        if not isinstance(element, PairPartition):
            raise TypeError("orthogonal and symplectic series expect a pair partition")
        n = element.absolute_length()
        row = class_counts(GraphKind.ORTHOGONAL, k, n + order, [element.coset_type()])[0]
        return SeriesTruncation(family, element, -(k + n), tuple(row[n:]), order)
    if family == "aiii":
        if not isinstance(element, Permutation):
            raise TypeError("aiii series expects a permutation")
        by_exponent: dict[int, dict[int, int]] = {}
        # exponent budget: l0 solid steps, l1 dashed, q = (k-l1)/2 squiggled
        max_n = 2 * k + 2 * order + 2
        rows = class_counts(GraphKind.AIII, k, max_n - k + k // 2, [element.cycle_type()])
        for q, row in enumerate(rows):
            l1, base = k - 2 * q, k - q
            for l0, cnt in enumerate(row[:max_n - base + 1]):
                if cnt:  # the one term of exponent l0 + base with l1 dashed steps
                    by_exponent.setdefault(l0 + base, {})[l1] = (-1) ** l0 * cnt
        nonzero = sorted(n for n, poly in by_exponent.items() if any(poly.values()))
        if not nonzero:
            raise AssertionError("every permutation admits at least one path")
        n0 = nonzero[0]
        coeffs = tuple(
            dict(sorted(by_exponent.get(n0 + g, {}).items())) for g in range(order + 1)
        )
        return SeriesTruncation("aiii", element, -n0, coeffs, order)
    raise ValueError(f"no series for family {family!r}")


def reconstruct_rational(family: str, element, dminus: int | None = None
                         ) -> ratfunc.RationalFunctionRep:
    """Closed form in ``d`` for one element's Weingarten value.

    Interpolates ``Q*Wg`` with ``Q`` from :func:`wg_denominator`:
    Collins–Śniady ``Q_u`` for ``u`` and, as an observation, ``aiii``;
    Collins–Matsumoto ``Q_o`` for ``o``, shifted for ``coe`` and ``sp``.
    Evaluations start at ``max(2k+1, |dminus|)``; singular dimensions are skipped.
    A held-out mismatch raises :class:`wgcalc.ratfunc.DenominatorMismatchError`.
    For ``sp`` this is the absolute value, for ``aiii`` the slice at ``dminus``.
    """
    k = element.level
    start = max(2 * k + 1, abs(dminus or 0))
    return ratfunc.reconstruct(lambda d: wg(family, element, d, dminus), start=start,
                               den=wg_denominator(family, k),
                               skip_exceptions=(SingularSystemError,))


def clear_caches() -> None:
    _level.cache_clear()
    _coe_level.cache_clear()
