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
serves every family: it reads each class's solid, dashed and squiggled
targets from the class graph of :mod:`wgcalc.graphs` and writes each row as
a ``{column: integer}`` dict (COE and symplectic go through the orthogonal
graph at a shifted dimension).  Results are cached per dimension
argument and extended level by level on demand.  Singular systems are
detected exactly and reported, never patched.

The series half of the module turns path counts from :mod:`wgcalc.graphs`
into truncated large-``d`` expansions, and :func:`reconstruct_rational`
recovers closed forms in ``d`` from exact evaluations.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from . import ratfunc
from .graphs import GraphKind, class_node, count_paths, count_paths_refined
from .symcore import (
    PairPartition,
    Permutation,
    act,
    all_pair_partitions,
    partitions,
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


@dataclass(frozen=True)
class WgTable:
    """Snapshot of solved values: one entry per class of each level up to ``level``.

    Class keys are partitions; a partition of weight ``j`` labels a level-``j``
    class (cycle type or coset type depending on the family).
    """

    family: str
    level: int
    d: int
    dminus: int | None
    values: dict[tuple[int, ...], Fraction]

    def lookup(self, elem) -> Fraction:
        key = elem.coset_type() if isinstance(elem, PairPartition) else elem.cycle_type()
        return self.values[key]


class _TableState:
    """Solved values keyed by class (or by pairing for ``wg_coe_direct``),
    complete for every level up to ``level``; the empty key is worth 1."""

    __slots__ = ("values", "level")

    def __init__(self, empty=()):
        self.values: dict = {empty: Fraction(1)}
        self.level = 0


_STATES: dict[tuple, _TableState] = {}
_COE_FULL: dict[int, _TableState] = {}


def _state(key: tuple) -> _TableState:
    st = _STATES.get(key)
    if st is None:
        st = _STATES[key] = _TableState()
    return st


def _extend(st: _TableState, family: str, kind: GraphKind, k: int, d: int, dminus=None) -> _TableState:
    """Solve levels ``st.level+1 .. k`` from class-graph rows."""
    for j in range(st.level + 1, k + 1):
        classes = list(partitions(j))
        index = {mu: i for i, mu in enumerate(classes)}
        rows, rhs = [], []
        for mu in classes:
            node = class_node(kind, mu)
            row = {index[mu]: d}
            for target, mult in node.solid:
                col = index[target]
                row[col] = row.get(col, 0) + mult
            rows.append(row)
            if node.dashed is not None:
                down = st.values[node.dashed]
                rhs.append(down if dminus is None else dminus * down)
            elif node.squiggled is not None:
                rhs.append(st.values[node.squiggled])
            else:
                rhs.append(0)
        sol = ratfunc.solve_linear_exact(rows, rhs)
        if sol is None:
            raise SingularSystemError(family, j, d, dminus)
        st.values.update(zip(classes, sol))
        st.level = j
    return st


def _table(st: _TableState, family: str, k: int, d: int, dminus=None) -> WgTable:
    vals = {mu: st.values[mu] for n in range(k + 1) for mu in partitions(n)}
    return WgTable(family, k, d, dminus, vals)


def _check_dim(d) -> int:
    if not isinstance(d, int) or isinstance(d, bool):
        raise ValueError(f"dimension must be an integer, got {d!r}")
    return d


def _unitary_state(k: int, d: int, force: bool) -> _TableState:
    _check_dim(d)
    if k < 0:
        raise ValueError("level must be nonnegative")
    if d < k and not force:
        raise ValueError(f"dimension {d} below level {k}; pass force=True to try anyway")
    return _extend(_state(("u", d)), "u", GraphKind.UNITARY, k, d)


def solve_unitary_table(k: int, d: int, force: bool = False) -> WgTable:
    """Unitary Weingarten values for every class of level at most ``k``.

    ``d < k`` sits outside the proven-invertible range and is rejected
    unless ``force`` is set; with ``force`` the solve still detects a
    genuinely singular system exactly.
    """
    return _table(_unitary_state(k, d, force), "u", k, d)


def wg_unitary_class(mu: tuple[int, ...], d: int, force: bool = False) -> Fraction:
    return _unitary_state(sum(mu), d, force).values[tuple(mu)]


def wg_unitary(sigma: Permutation, d: int, force: bool = False) -> Fraction:
    return wg_unitary_class(sigma.cycle_type(), d, force)


def _orthogonal_state(k: int, d: int) -> _TableState:
    _check_dim(d)
    if k < 0:
        raise ValueError("level must be nonnegative")
    return _extend(_state(("o", d)), "o", GraphKind.ORTHOGONAL, k, d)


def solve_orthogonal_table(k: int, d: int) -> WgTable:
    """Orthogonal Weingarten values; ``d`` may be any nonzero integer.

    Negative arguments are how the symplectic route is evaluated, so no
    positivity constraint is imposed; singular dimensions raise.
    """
    return _table(_orthogonal_state(k, d), "o", k, d)


def wg_orthogonal_class(mu: tuple[int, ...], d: int) -> Fraction:
    return _orthogonal_state(sum(mu), d).values[tuple(mu)]


def wg_orthogonal(m: PairPartition, d: int) -> Fraction:
    return wg_orthogonal_class(m.coset_type(), d)


def wg_orthogonal_pair(m: PairPartition, n: PairPartition, d: int) -> Fraction:
    """Two-pairing value: reduce by the permutation carrying the trivial
    pairing to ``m``, then look up the one-argument function."""
    if m.level != n.level:
        raise ValueError("pairings must have equal level")
    reduced = act(m.as_permutation().inverse(), n)
    return wg_orthogonal(reduced, d)


def wg_coe_class(mu: tuple[int, ...], d: int) -> Fraction:
    """COE value through the dimension-shift identity: orthogonal at ``d+1``."""
    return wg_orthogonal_class(mu, d + 1)


def wg_coe(m: PairPartition, d: int) -> Fraction:
    return wg_coe_class(m.coset_type(), d)


def wg_coe_direct(m: PairPartition, d: int) -> Fraction:
    """COE value solved element by element from its own recurrence.

    No class reduction: one unknown per pair partition of each level, so
    this route is structurally independent of :func:`wg_coe` and doubles as
    a check of the class constancy it assumes.
    """
    _check_dim(d)
    k = m.level
    st = _COE_FULL.get(d)
    if st is None:
        st = _COE_FULL[d] = _TableState(PairPartition(()))
    for j in range(st.level + 1, k + 1):
        elems = list(all_pair_partitions(j))
        index = {e: i for i, e in enumerate(elems)}
        rows, rhs = [], []
        for e in elems:
            row = {index[e]: d + 1}
            for i in range(1, 2 * j - 1):
                col = index[e.swap_points(i, 2 * j - 1)]
                row[col] = row.get(col, 0) + 1
            rows.append(row)
            rhs.append(st.values[e.pairing_down()] if e.has_top_block() else 0)
        sol = ratfunc.solve_linear_exact(rows, rhs)
        if sol is None:
            raise SingularSystemError("coe", j, d)
        st.values.update(zip(elems, sol))
        st.level = j
    return st.values[m]


def wg_symplectic_abs_class(mu: tuple[int, ...], d: int) -> Fraction:
    if d < 1:
        raise ValueError(f"symplectic dimension must be positive, got {d}")
    return abs(wg_orthogonal_class(mu, -2 * d))


def wg_symplectic_abs(m: PairPartition, d: int) -> Fraction:
    """Absolute symplectic value ``|W_sp(m, d)|`` via the orthogonal solver
    at ``-2d``.  The sign is deliberately out of scope."""
    return wg_symplectic_abs_class(m.coset_type(), d)


def _aiii_state(k: int, d: int, dminus: int) -> _TableState:
    _check_dim(d)
    _check_dim(dminus)
    if k < 0:
        raise ValueError("level must be nonnegative")
    if d < 1:
        raise ValueError(f"dimension must be positive, got {d}")
    if abs(dminus) > d:
        warnings.warn(
            f"|dminus|={abs(dminus)} exceeds d={d}: no signature (a,b) realizes this",
            stacklevel=3,
        )
    return _extend(_state(("aiii", d, dminus)), "aiii", GraphKind.AIII, k, d, dminus)


def solve_aiii_table(k: int, d: int, dminus: int) -> WgTable:
    """A III Weingarten values at ``d = a+b``, ``dminus = a-b``.

    ``|dminus| > d`` has no matching ensemble; it is still computable and is
    flagged with a warning rather than rejected.
    """
    return _table(_aiii_state(k, d, dminus), "aiii", k, d, dminus)


def wg_aiii_class(mu: tuple[int, ...], d: int, dminus: int) -> Fraction:
    return _aiii_state(sum(mu), d, dminus).values[tuple(mu)]


def wg_aiii(sigma: Permutation, d: int, dminus: int) -> Fraction:
    return wg_aiii_class(sigma.cycle_type(), d, dminus)


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

    def evaluate(self, d: int, dminus: int | None = None) -> Fraction:
        """Partial sum of the truncation at an integer dimension."""
        total = Fraction(0)
        if self.family == "aiii":
            if dminus is None:
                raise ValueError("aiii evaluation needs dminus")
            for g, poly in enumerate(self.coefficients):
                n = -self.leading_exponent + g
                val = sum(c * dminus**e for e, c in poly.items())
                total += Fraction(val, d**n)
            return total
        n0 = -self.leading_exponent
        sign = (-1) ** self.element.absolute_length()
        for g, c in enumerate(self.coefficients):
            if self.family == "u":
                total += Fraction(c, d ** (n0 + 2 * g))
            elif self.family == "o":
                total += Fraction(c * (-1) ** g, d ** (n0 + g))
            else:
                total += Fraction(c, (2 * d) ** (n0 + g))
        if self.family == "sp":
            return total
        return sign * total


def series(family: str, element, order: int) -> SeriesTruncation:
    """Expansion coefficients for one element through ``order`` terms past the lead."""
    if order < 0:
        raise ValueError("order must be nonnegative")
    k = element.level
    if family == "u":
        if not isinstance(element, Permutation):
            raise TypeError("unitary series expects a permutation")
        n = element.absolute_length()
        coeffs = tuple(count_paths(GraphKind.UNITARY, element, n + 2 * g) for g in range(order + 1))
        return SeriesTruncation("u", element, -(k + n), coeffs, order)
    if family in ("o", "sp"):
        if not isinstance(element, PairPartition):
            raise TypeError("orthogonal and symplectic series expect a pair partition")
        n = element.absolute_length()
        coeffs = tuple(count_paths(GraphKind.ORTHOGONAL, element, n + g) for g in range(order + 1))
        return SeriesTruncation(family, element, -(k + n), coeffs, order)
    if family == "aiii":
        if not isinstance(element, Permutation):
            raise TypeError("aiii series expects a permutation")
        by_exponent: dict[int, dict[int, int]] = {}
        # exponent budget: l0 solid steps, l1 dashed, (k-l1)/2 squiggled
        max_n = 2 * k + 2 * order + 2
        for l1 in range(k % 2, k + 1, 2):
            base = (k + l1) // 2
            for l0 in range(0, max_n - base + 1):
                cnt = count_paths_refined(element, l0, l1)
                if cnt:
                    n = l0 + base
                    by_exponent.setdefault(n, {}).setdefault(l1, 0)
                    by_exponent[n][l1] += (-1) ** l0 * cnt
        nonzero = sorted(n for n, poly in by_exponent.items() if any(poly.values()))
        if not nonzero:
            raise AssertionError("every permutation admits at least one path")
        n0 = nonzero[0]
        coeffs = tuple(
            dict(sorted(by_exponent.get(n0 + g, {}).items())) for g in range(order + 1)
        )
        return SeriesTruncation("aiii", element, -n0, coeffs, order)
    raise ValueError(f"no series for family {family!r}")


def reconstruct_rational(
    family: str,
    element,
    dminus: int | None = None,
    degree_cap: int = 40,
) -> ratfunc.RationalFunctionRep:
    """Closed form in ``d`` for one element's Weingarten value.

    Evaluations start at ``2k+1`` and climb; singular dimensions are
    skipped.  For ``sp`` the recovered function is the absolute value, for
    ``aiii`` it is the slice at a fixed ``dminus``.
    """
    k = element.level
    start = 2 * k + 1
    if family == "u":
        f = lambda d: wg_unitary(element, d)
    elif family == "o":
        f = lambda d: wg_orthogonal(element, d)
    elif family == "coe":
        f = lambda d: wg_coe(element, d)
    elif family == "sp":
        f = lambda d: wg_symplectic_abs(element, d)
    elif family == "aiii":
        if dminus is None:
            raise ValueError("aiii reconstruction needs dminus")
        f = lambda d: wg_aiii(element, d, dminus)
    else:
        raise ValueError(f"unknown family {family!r}")
    return ratfunc.reconstruct(
        f, start=start, degree_cap=degree_cap, skip_exceptions=(SingularSystemError,)
    )


def clear_caches() -> None:
    _STATES.clear()
    _COE_FULL.clear()
