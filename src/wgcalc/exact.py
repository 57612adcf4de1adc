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
Every refused dimension raises :class:`DimensionError`, a ``ValueError``:
``d < 1`` where a family needs ``d >= 1``, :class:`BelowLevelError` for
the unitary ``d < k``, and the thresholds of :mod:`wgcalc.bounds`.

Each family is one :class:`Family` record in :data:`FAMILIES`, read by
this module and by ``cli``, ``moments``, ``mc``, ``cache`` and
``bounds``.  Public API: :func:`wg` (one element) and :func:`wg_class`
(one class, and the one place a record is mapped to its memo, shifted
dimension and guards); :func:`wg_coe_direct` (COE element by element, an
independent check of the class reduction); :func:`series` (large-``d``
expansions from the path counts of :mod:`wgcalc.graphs`) and
:func:`reconstruct_rational` (closed forms in ``d``).

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
from fractions import Fraction
from functools import lru_cache, reduce
from typing import NamedTuple

from . import ratfunc
from .graphs import (GraphKind, class_counts, dashed_target, level_nodes, solid_targets,
                     vertex_class)
from .symcore import (
    PairPartition,
    Permutation,
    all_pair_partitions,
    partitions,
    validate_partition,
)

# plain names for the hot path: each GraphKind.X lookup costs about 0.1 us on CPython 3.11
_UNITARY, _ORTHOGONAL, _AIII = GraphKind.UNITARY, GraphKind.ORTHOGONAL, GraphKind.AIII


class Family(NamedTuple):
    """One ensemble, as every module reads it."""

    kind: GraphKind  # its elements are pair partitions iff ORTHOGONAL; dminus iff AIII
    scale: int  # the graph is solved at scale*d + shift; at a negative
    shift: int  # scale only the absolute value is defined
    positive: str | None  # prefix of the refusal of d < 1; None: no such guard
    conjugated: bool  # its moments take conjugated factors
    commands: tuple[str, ...]  # subcommands, of those not open to every family, taking it

    @property
    def pairing(self) -> bool:
        return self.kind is _ORTHOGONAL

    @property
    def takes_dminus(self) -> bool:
        return self.kind is _AIII


_RESTRICTED = ("series", "paths", "factorizations", "moment", "bounds")
FAMILIES = {  # in the order the command line lists them
    "u": Family(GraphKind.UNITARY, 1, 0, None, True, _RESTRICTED),
    "o": Family(GraphKind.ORTHOGONAL, 1, 0, None, False, _RESTRICTED),
    "coe": Family(GraphKind.ORTHOGONAL, 1, 1, "COE ", True, ("moment",)),
    "sp": Family(GraphKind.ORTHOGONAL, -2, 0, "symplectic ", False, ("series", "bounds")),
    "aiii": Family(GraphKind.AIII, 1, 0, "", False, ("series", "paths", "moment")),
}


def _family(name: str) -> Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ValueError(f"unknown family {name!r}") from None


class SingularSystemError(ArithmeticError):
    """The class-level linear system has no unique solution at this dimension."""

    def __init__(self, family: str, level: int, d, dminus=None):
        self.family = family
        self.level = level
        self.d = d
        self.dminus = dminus
        dims = f"d={d}" if dminus is None else f"d={d}, dminus={dminus}"
        super().__init__(f"singular {family} system at level {level}, {dims}")


class DimensionError(ValueError):
    """A refused dimension: below 1 where the family's record asks for
    ``d >= 1``, below the level on the unitary graph, or short of a bound
    certificate's threshold."""


class BelowLevelError(DimensionError):
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


def _check_positive(fam: Family, d: int) -> None:
    if fam.positive is not None and d < 1:
        raise DimensionError(f"{fam.positive}dimension must be positive, got {d}")


def wg_class(family: str, mu: tuple[int, ...], d: int, dminus: int | None = None) -> Fraction:
    """Weingarten value of the level-``sum(mu)`` class ``mu`` of ``family``.

    The one place each family is mapped to its route, all read off its
    :class:`Family` record: the class graph ``kind`` is solved at
    ``scale*d + shift`` (COE at ``d+1``, the dimension-shift identity; sp at
    ``-2d``, sign deliberately out of scope; o at any integer ``d``).
    Guards: ``d >= 1`` where the record has a ``positive`` prefix; on the
    unitary graph, ``d < k`` raises :class:`BelowLevelError` (that system is
    singular at ``-k < d < k``, and no ensemble has ``d <= -k``); ``dminus``
    is required on A III and refused elsewhere.  ``|dminus| > d`` matches no
    A III signature, so it is still computed but flagged with a warning.

    The value is looked up in the cached solved level ``sum(mu)``, solved
    on demand from the levels below.  A singular level raises
    :class:`SingularSystemError` naming ``family`` and ``d`` as given, also
    on the shifted routes.
    """
    fam = _family(family)
    if fam.takes_dminus != (dminus is not None):
        raise ValueError(f"family {family!r} needs dminus" if dminus is None
                         else f"family {family!r} takes no dminus")
    _check_dim(d)
    mu = validate_partition(mu)
    k = sum(mu)
    _check_positive(fam, d)
    if d < k and fam.kind is _UNITARY:
        raise BelowLevelError(d, k)
    if dminus is not None and abs(_check_dim(dminus)) > d:
        warnings.warn(
            f"|dminus|={abs(dminus)} exceeds d={d}: no signature (a,b) realizes this",
            stacklevel=2,
        )
    try:
        value = _level(fam.kind, fam.scale * d + fam.shift, dminus, k)[mu]
    except SingularSystemError as exc:
        raise SingularSystemError(family, exc.level, d, dminus) from None
    return abs(value) if fam.scale < 0 else value


def wg_denominator(family: str, k: int) -> ratfunc.Poly:
    """The level-``k`` denominator of ``family`` (see the module docstring),
    cells ``(i, j)`` 0-based, at ``scale*d + shift``.

    >>> [str(c) for c in wg_denominator("u", 2)]
    ['0', '-1', '0', '1']
    """
    fam = _family(family)
    step = 2 if fam.pairing else 1
    contents: Counter = Counter()
    for lam in partitions(k):  # the lcm keeps each factor at its top multiplicity
        contents |= Counter(step * j - i for i, row in enumerate(lam) for j in range(row))
    return reduce(ratfunc.poly_mul, ((Fraction(fam.shift + c), Fraction(fam.scale))
                                     for c in contents.elements()), (Fraction(1),))


def wg(family: str, elem, d: int, dminus: int | None = None) -> Fraction:
    """Weingarten value of one element: a permutation for ``u`` and
    ``aiii``, a pair partition for ``o``, ``coe`` and ``sp``.  See
    :func:`wg_class` for the routes and their guards."""
    return wg_class(family, vertex_class(_family(family).kind, elem), d, dminus)


def wg_coe_direct(m: PairPartition, d: int) -> Fraction:
    """COE value solved element by element from its own recurrence.

    No class reduction: one unknown per pair partition of each level, its
    edges read element by element from :mod:`wgcalc.graphs`, so this route
    is structurally independent of ``wg("coe", ...)`` and doubles as a
    check of the class constancy it assumes.  ``m`` is checked first, as
    :func:`wg` checks it.
    """
    vertex_class(GraphKind.ORTHOGONAL, m)
    _check_positive(FAMILIES["coe"], _check_dim(d))
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


class SeriesTruncation(NamedTuple):
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
    fam = FAMILIES.get(family)
    if fam is None or "series" not in fam.commands:
        raise ValueError(f"no series for family {family!r}")
    mu = vertex_class(fam.kind, element)
    k = element.level
    if not fam.takes_dminus:
        # a unitary path has the parity of n, so only every other count is read
        step = 1 if fam.pairing else 2
        n = element.absolute_length()
        row = class_counts(fam.kind, k, n + step * order, [mu])[0]
        return SeriesTruncation(family, element, -(k + n), tuple(row[n::step]), order)
    by_exponent: dict[int, dict[int, int]] = {}
    # exponent budget: l0 solid steps, l1 dashed, q = (k-l1)/2 squiggled
    max_n = 2 * k + 2 * order + 2
    rows = class_counts(fam.kind, k, max_n - k + k // 2, [mu])
    for q, row in enumerate(rows):
        l1, base = k - 2 * q, k - q
        for l0, cnt in enumerate(row[:max_n - base + 1]):
            if cnt:  # the one term of exponent l0 + base with l1 dashed steps
                by_exponent.setdefault(l0 + base, {})[l1] = (-1) ** l0 * cnt
    n0 = min(by_exponent)  # every count stored is nonzero, and every element has a path
    coeffs = tuple(dict(sorted(by_exponent.get(n0 + g, {}).items())) for g in range(order + 1))
    return SeriesTruncation(family, element, -n0, coeffs, order)


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
