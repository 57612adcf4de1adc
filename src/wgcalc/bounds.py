"""Catalan closed forms and exhaustive certification of the uniform bounds.

The value bounds are all stated on one normalized ratio.  For a class
``s`` of level ``k`` with ``|s| = k - len(s)`` and the family's ``scale``
from :data:`wgcalc.exact.FAMILIES`,

    ``R(s, d) = sign (|scale| d)^(k+|s|) W(s, d) / #P(s, |s|)``

with ``sign = (-1)^|s|`` for u and o and ``1`` for sp, whose values are
absolute.  The certification ops re-check, with exact arithmetic over
concrete ranges, the inequalities the asymptotic theory rests on:

* path-count growth, permutations:  ``(k-1)^g #P(s,|s|) <= #P(s,|s|+2g)
  <= (6 k^{7/2})^g #P(s,|s|)``
* path-count growth, pairings: ``(2k-2)^g #P(m,|m|) <= #P(m,|m|+2g)`` and
  ``#P(m,|m|+g) <= (12 k^{7/2})^g #P(m,|m|)``
* value ratio, u and sp: ``1/(1-(k-1)/c) <= R <= 1/(1-6k^{7/2}/t)``, with
  ``c = d^2, t = d^2`` for u (lower for any d >= k, upper past
  ``d > sqrt(6) k^{7/4}``) and ``c = 2d^2, t = d`` for sp (``d > 6k^{7/2}``)
* value ratio, o (``d > 12k^{7/2}``):
  ``(1-24k^{7/2}/d)/(1-144k^7/d^2) <= R <= 1/(1-144k^7/d^2)``

Constants like ``6 k^{7/2}`` are irrational, so every comparison against
them is squared into integers first; nothing here touches floating point.
Each report row carries margins normalized so that a value <= 1 certifies
the inequality (margins against irrational constants are the squared
ones).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional

from .exact import FAMILIES, DimensionError, wg_class
from .graphs import GraphKind, class_counts
from .symcore import Permutation, format_partition, partitions


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def _minimal_count(mu: tuple[int, ...]) -> int:
    """Number of minimal paths from class ``mu``: the Catalan product over its parts."""
    return math.prod(catalan(part - 1) for part in mu)


def _check_k(k: int) -> None:
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")


class BoundRow(NamedTuple):
    """One certified instance.  ``margin <= 1`` means the inequality holds;
    margins compared against irrational constants are squared.  ``g`` is
    the growth step on path-count rows and the path length ``l`` on
    injection rows (printed as ``g=`` on both); value rows have none."""

    class_key: str
    g: Optional[int]
    lower_margin: Optional[Fraction]
    upper_margin: Optional[Fraction]
    ok: bool

    @property
    def label(self) -> str:
        return self.class_key if self.g is None else f"{self.class_key} g={self.g}"


class BoundReport(NamedTuple):
    family: str
    check: str
    k: int
    d: Optional[int]
    gmax: Optional[int]
    rows: tuple[BoundRow, ...]
    all_pass: bool
    tightest_lower: Optional[str]
    tightest_upper: Optional[str]


def _finish(family, check, k, d, gmax, rows) -> BoundReport:
    def pick(attr):
        best, label = None, None
        for row in rows:
            val = getattr(row, attr)
            if val is not None and (best is None or val > best):
                best, label = val, row.label
        return label

    return BoundReport(
        family,
        check,
        k,
        d,
        gmax,
        tuple(rows),
        all(r.ok for r in rows),
        pick("lower_margin"),
        pick("upper_margin"),
    )


def _count_growth(kind: GraphKind, k: int, gmax: int, lower_base: int, upper_const: int,
                  upper_step: int) -> BoundReport:
    """Path-count growth on level ``k`` for ``g <= gmax``, read off one count
    sweep: ``lower_base^g #P(|s|) <= #P(|s|+2g)`` and
    ``#P(|s|+upper_step*g)^2 <= upper_const^g k^(7g) #P(|s|)^2``."""
    _check_k(k)
    if gmax < 0:
        raise ValueError(f"gmax must be nonnegative, got {gmax}")
    rows = []
    for mu, counts in zip(partitions(k), class_counts(kind, k, k - 1 + 2 * gmax, partitions(k))):
        row = counts[k - len(mu):]  # counts from the minimal length on
        base = row[0]
        for g in range(gmax + 1):
            even_cnt = row[2 * g]
            low_bound = lower_base**g * base
            ok_low = low_bound <= even_cnt
            low = Fraction(low_bound, even_cnt) if even_cnt else None
            cnt = row[upper_step * g]
            up_bound = upper_const**g * k ** (7 * g) * base * base
            ok_up = cnt * cnt <= up_bound
            up = Fraction(cnt * cnt, up_bound)
            rows.append(BoundRow(format_partition(mu), g, low, up, ok_low and ok_up))
    return _finish(kind.value, "path-count growth", k, None, gmax, rows)


def certify_unitary_bounds(k: int, gmax: int = 3) -> BoundReport:
    """Exhaustive check of the two-sided path-count growth bound on S_k."""
    return _count_growth(GraphKind.UNITARY, k, gmax, k - 1, 36, 2)


def certify_orthogonal_bounds(k: int, gmax: int = 3) -> BoundReport:
    """Pairing path-count growth: lower bound on +2g steps, upper on +g."""
    return _count_growth(GraphKind.ORTHOGONAL, k, gmax, 2 * k - 2, 144, 1)


def _ratio(family: str, mu: tuple[int, ...], d: int) -> Fraction:
    """``R(mu, d)`` of the module docstring."""
    scale = FAMILIES[family].scale
    k = sum(mu)
    n = k - len(mu)
    sign = 1 if scale < 0 else (-1) ** n
    power = Fraction(abs(scale) * d) ** (k + n)
    return sign * power * wg_class(family, mu, d) / _minimal_count(mu)


def _ratio_report(family: str, k: int, d: int, c: int, square: Optional[int]) -> BoundReport:
    """Every class of level ``k`` against ``c/(c-(k-1)) <= R`` and, unless
    ``square`` is None, the upper bound squared once its sign allows:
    ``(R-1)^2 square <= 36 R^2 k^7``, margin 0 where ``R <= 1``."""
    lower = Fraction(c, c - (k - 1))
    rows = []
    for mu in partitions(k):
        ratio = _ratio(family, mu, d)
        if square is None:
            ok_up, up = True, None
        elif ratio <= 1:
            ok_up, up = True, Fraction(0)
        else:
            lhs, rhs = (ratio - 1) ** 2 * square, 36 * ratio**2 * k**7
            ok_up, up = lhs <= rhs, lhs / rhs
        rows.append(BoundRow(format_partition(mu), None, lower / ratio, up,
                             lower <= ratio and ok_up))
    return _finish(family, "value ratio", k, d, None, rows)


def certify_wg_ratio_unitary(k: int, d: int) -> BoundReport:
    """Value-versus-leading-term ratio bound for every class of S_k at one d."""
    _check_k(k)
    if d < k:
        raise DimensionError(f"ratio bound needs d >= k, got d={d}, k={k}")
    return _ratio_report("u", k, d, d * d, d**4 if d**4 > 36 * k**7 else None)


def certify_sp_ratio(k: int, d: int) -> BoundReport:
    """Two-sided ratio bound for the absolute symplectic values at one d."""
    _check_k(k)
    if d * d <= 36 * k**7:
        raise DimensionError(f"symplectic ratio bound needs d > 6 k^(7/2); d={d}, k={k}")
    return _ratio_report("sp", k, d, 2 * d * d, d * d)


def certify_orthogonal_ratio(k: int, d: int) -> BoundReport:
    """Two-sided ratio bound for the signed orthogonal values at one d."""
    _check_k(k)
    if d * d <= 144 * k**7:
        raise DimensionError(f"orthogonal ratio bound needs d > 12 k^(7/2); d={d}, k={k}")
    rows = []
    for mu in partitions(k):
        # upper: up = R (1 - 144k^7/d^2) <= 1; lower: 1 - up <= 24k^{7/2}/d,
        # squared once 1 - up is positive
        up = _ratio("o", mu, d) * (d * d - 144 * k**7) / (d * d)
        low = Fraction(0) if up >= 1 else (1 - up) ** 2 * d * d / (576 * k**7)
        rows.append(BoundRow(format_partition(mu), None, low, up, low <= 1 and up <= 1))
    return _finish("o", "value ratio", k, d, None, rows)


def _first_of_class(mu: tuple[int, ...]) -> Permutation:
    """The lexicographically first permutation of cycle type ``mu``: consecutive
    cycles ``(p p+1 ... p+L-1)``, smallest part first.  Mapping back to the open
    cycle's start ``p`` is the smallest free value, feasible exactly when a part
    of the open cycle's length is left.

    >>> _first_of_class((2, 1))
    Permutation(images=(1, 3, 2))
    """
    images: list[int] = []
    for part in reversed(mu):
        p = len(images) + 1
        images += range(p + 1, p + part)
        images.append(p)
    return Permutation(tuple(images))


def neighborhood_certify(k: int) -> BoundReport:
    """Multiplying by any transposition grows the minimal path count by at
    most 6 k^{3/2}, checked over all of S_k.

    Conjugation preserves cycle type, so every permutation of one class
    reaches the same target classes.  Each class's lexicographically first
    permutation is built directly (:func:`_first_of_class`) and the classes
    are visited in the order of those permutations, the order in which a
    lexicographic walk over S_k meets them; the cost is p(k) k(k-1)/2 swaps.
    """
    _check_k(k)
    rows = []
    for sigma in sorted(map(_first_of_class, partitions(k)), key=lambda s: s.images):
        mu, seen = sigma.cycle_type(), set()
        before = _minimal_count(mu)
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                nu = sigma.swap_values(a, b).cycle_type()
                if nu in seen:
                    continue
                seen.add(nu)
                margin = Fraction(_minimal_count(nu) ** 2, 36 * k**3 * before * before)
                label = f"{format_partition(mu)}->{format_partition(nu)}"
                rows.append(BoundRow(label, None, None, margin, margin <= 1))
    return _finish("u", "neighborhood", k, None, None, rows)


def easy_injection_check(k: int, extra: int = 4) -> BoundReport:
    """(k-1) #P(s,l) <= #P(s,l+2) for every class and l up to |s|+extra."""
    _check_k(k)
    if extra < 0:
        raise ValueError(f"extra must be nonnegative, got {extra}")
    rows = []
    for mu, row in zip(partitions(k), class_counts(GraphKind.UNITARY, k, k + 1 + extra,
                                                   partitions(k))):
        n = k - len(mu)
        for l in range(n, n + extra + 1):
            here, above = row[l], row[l + 2]
            ok = (k - 1) * here <= above
            margin = Fraction((k - 1) * here, above) if above else None
            rows.append(BoundRow(format_partition(mu), l, margin, None, ok))
    return _finish("u", "easy injection", k, None, None, rows)
