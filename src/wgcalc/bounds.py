"""Catalan closed forms and exhaustive certification of the uniform bounds.

The certification ops re-check, with exact arithmetic over concrete ranges,
the inequalities the asymptotic theory rests on:

* path-count growth, permutations:  ``(k-1)^g #P(s,|s|) <= #P(s,|s|+2g)
  <= (6 k^{7/2})^g #P(s,|s|)``
* value ratio, unitary: ``1/(1-(k-1)/d^2) <= (-1)^|s| d^(k+|s|) W_u / #P
  <= 1/(1-6k^{7/2}/d^2)`` (lower for any d >= k, upper past the threshold
  ``d > sqrt(6) k^{7/4}``)
* path-count growth, pairings: ``(2k-2)^g #P(m,|m|) <= #P(m,|m|+2g)`` and
  ``#P(m,|m|+g) <= (12 k^{7/2})^g #P(m,|m|)``
* value ratio, symplectic (``d > 6k^{7/2}``):
  ``#P/(1-(k-1)/(2d^2)) <= (2d)^(|m|+k) |W_sp| <= #P/(1-6k^{7/2}/d)``
* value ratio, orthogonal (``d > 12k^{7/2}``):
  ``#P (1-24k^{7/2}/d)/(1-144k^7/d^2) <= (-1)^|m| d^(|m|+k) W_o
  <= #P/(1-144k^7/d^2)``

Constants like ``6 k^{7/2}`` are irrational, so every comparison against
them is squared into integers first; nothing here touches floating point.
Each report row carries margins normalized so that a value <= 1 certifies
the inequality (margins against irrational constants are the squared
ones).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .exact import wg_class
from .graphs import GraphKind, count_class_paths
from .symcore import Permutation, format_partition, partitions


def catalan(n: int) -> int:
    if n < 0:
        raise ValueError("catalan index must be nonnegative")
    return math.comb(2 * n, n) // (n + 1)


def _minimal_count(mu: tuple[int, ...]) -> int:
    """Number of minimal paths from class ``mu``: the Catalan product over its parts."""
    return math.prod(catalan(part - 1) for part in mu)


def shortest_count(kind: GraphKind, element) -> int:
    """Number of minimal paths from ``element``, via the Catalan product over its class."""
    if kind is GraphKind.UNITARY:
        return _minimal_count(element.cycle_type())
    if kind is GraphKind.ORTHOGONAL:
        return _minimal_count(element.coset_type())
    raise ValueError(f"no closed form for {kind}")


def moebius(sigma: Permutation) -> int:
    """Leading coefficient of the large-d expansion, with its sign."""
    return (-1) ** sigma.absolute_length() * _minimal_count(sigma.cycle_type())


@dataclass(frozen=True)
class BoundRow:
    """One certified instance.  ``margin <= 1`` means the inequality holds;
    margins compared against irrational constants are squared."""

    class_key: str
    g: Optional[int]
    lower_margin: Optional[Fraction]
    upper_margin: Optional[Fraction]
    ok: bool


@dataclass(frozen=True)
class BoundReport:
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
                best, label = val, row.class_key if row.g is None else f"{row.class_key} g={row.g}"
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


def certify_unitary_bounds(k: int, gmax: int) -> BoundReport:
    """Exhaustive check of the two-sided path-count growth bound on S_k."""
    if k < 1 or gmax < 0:
        raise ValueError(f"need k >= 1 and gmax >= 0, got k={k}, gmax={gmax}")
    rows = []
    for mu in partitions(k):
        n = k - len(mu)
        base = count_class_paths(GraphKind.UNITARY, mu, n)
        for g in range(gmax + 1):
            cnt = count_class_paths(GraphKind.UNITARY, mu, n + 2 * g)
            low_bound = (k - 1) ** g * base
            ok_low = low_bound <= cnt
            low = Fraction(low_bound, cnt) if cnt else None
            ok_up = cnt * cnt <= 36**g * k ** (7 * g) * base * base
            up = Fraction(cnt * cnt, 36**g * k ** (7 * g) * base * base)
            rows.append(BoundRow(format_partition(mu), g, low, up, ok_low and ok_up))
    return _finish("u", "path-count growth", k, None, gmax, rows)


def certify_wg_ratio_unitary(k: int, d: int) -> BoundReport:
    """Value-versus-leading-term ratio bound for every class of S_k at one d."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if d < k:
        raise ValueError(f"ratio bound needs d >= k, got d={d}, k={k}")
    upper_applies = d**4 > 36 * k**7
    rows = []
    for mu in partitions(k):
        n = k - len(mu)
        ratio = (-1) ** n * Fraction(d) ** (k + n) * wg_class("u", mu, d) / _minimal_count(mu)
        lower_bound = Fraction(d * d, d * d - (k - 1))
        ok_low = lower_bound <= ratio
        low = lower_bound / ratio
        if upper_applies:
            # ratio <= 1/(1 - 6 k^{7/2}/d^2), squared once the sign allows
            if ratio <= 1:
                ok_up, up = True, Fraction(0)
            else:
                lhs = (ratio - 1) ** 2 * d**4
                rhs = 36 * ratio**2 * k**7
                ok_up, up = lhs <= rhs, lhs / rhs
        else:
            ok_up, up = True, None
        rows.append(BoundRow(format_partition(mu), None, low, up, ok_low and ok_up))
    return _finish("u", "value ratio", k, d, None, rows)


def certify_orthogonal_bounds(k: int, gmax: int) -> BoundReport:
    """Pairing path-count growth: lower bound on +2g steps, upper on +g."""
    if k < 1 or gmax < 0:
        raise ValueError(f"need k >= 1 and gmax >= 0, got k={k}, gmax={gmax}")
    rows = []
    for mu in partitions(k):
        n = k - len(mu)
        base = count_class_paths(GraphKind.ORTHOGONAL, mu, n)
        for g in range(gmax + 1):
            even_cnt = count_class_paths(GraphKind.ORTHOGONAL, mu, n + 2 * g)
            low_bound = (2 * k - 2) ** g * base
            ok_low = low_bound <= even_cnt
            low = Fraction(low_bound, even_cnt) if even_cnt else None
            cnt = count_class_paths(GraphKind.ORTHOGONAL, mu, n + g)
            ok_up = cnt * cnt <= 144**g * k ** (7 * g) * base * base
            up = Fraction(cnt * cnt, 144**g * k ** (7 * g) * base * base)
            rows.append(BoundRow(format_partition(mu), g, low, up, ok_low and ok_up))
    return _finish("o", "path-count growth", k, None, gmax, rows)


def certify_sp_ratio(k: int, d: int) -> BoundReport:
    """Two-sided ratio bound for the absolute symplectic values at one d."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if d * d <= 36 * k**7:
        raise ValueError(f"symplectic ratio bound needs d > 6 k^(7/2); d={d}, k={k}")
    rows = []
    for mu in partitions(k):
        n = k - len(mu)
        base = count_class_paths(GraphKind.ORTHOGONAL, mu, n)
        value = Fraction(2 * d) ** (n + k) * wg_class("sp", mu, d)
        lower_bound = base * Fraction(2 * d * d, 2 * d * d - (k - 1))
        ok_low = lower_bound <= value
        low = lower_bound / value
        # value <= base * d/(d - 6 k^{7/2})  <=>  (value-base) d <= 6 value k^{7/2}
        diff = value - base
        if diff <= 0:
            ok_up, up = True, Fraction(0)
        else:
            lhs = diff**2 * d * d
            rhs = 36 * value**2 * k**7
            ok_up, up = lhs <= rhs, lhs / rhs
        rows.append(BoundRow(format_partition(mu), None, low, up, ok_low and ok_up))
    return _finish("sp", "value ratio", k, d, None, rows)


def certify_orthogonal_ratio(k: int, d: int) -> BoundReport:
    """Two-sided ratio bound for the signed orthogonal values at one d."""
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if d * d <= 144 * k**7:
        raise ValueError(f"orthogonal ratio bound needs d > 12 k^(7/2); d={d}, k={k}")
    rows = []
    for mu in partitions(k):
        n = k - len(mu)
        base = count_class_paths(GraphKind.ORTHOGONAL, mu, n)
        value = (-1) ** n * Fraction(d) ** (n + k) * wg_class("o", mu, d)
        scaled = value * (d * d - 144 * k**7)
        ok_up = scaled <= base * d * d
        up = scaled / (base * d * d)
        # base d (d - 24 k^{7/2}) <= scaled, squared when the left side is positive
        diff = base * d * d - scaled
        if diff <= 0:
            ok_low, low = True, Fraction(0)
        else:
            lhs = diff**2
            rhs = 576 * base**2 * d * d * k**7
            ok_low, low = lhs <= rhs, lhs / rhs
        rows.append(BoundRow(format_partition(mu), None, low, up, ok_low and ok_up))
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
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
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
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    if extra < 0:
        raise ValueError(f"extra must be nonnegative, got {extra}")
    rows = []
    for mu in partitions(k):
        n = k - len(mu)
        for l in range(n, n + extra + 1):
            here = count_class_paths(GraphKind.UNITARY, mu, l)
            above = count_class_paths(GraphKind.UNITARY, mu, l + 2)
            ok = (k - 1) * here <= above
            margin = Fraction((k - 1) * here, above) if above else None
            rows.append(BoundRow(format_partition(mu), l, margin, None, ok))
    return _finish("u", "easy injection", k, None, None, rows)


def dyck_area_sum(mu: tuple[int, ...], doubled: bool = False) -> int:
    """Sum of areas over +-1 paths constrained by I_mu = (mu_1-1, ...).

    With ``doubled=False`` the path length is sum(mu_i - 1) and heights
    return to zero after each prefix of I_mu, read literally from the
    stated convention; see :func:`dyck_report` for the discrepancy this
    produces.  With ``doubled=True`` each unit of I_mu spans two steps
    (length 2 sum(mu_i - 1), zero after each doubled prefix), which
    empirically reproduces the direct path counts on every partition
    tried.
    """
    lengths = [(2 if doubled else 1) * (part - 1) for part in mu]
    total = sum(lengths)
    marks = set()
    acc = 0
    for piece in lengths:
        acc += piece
        marks.add(acc)

    def walk(step: int, height: int, twice_area: int) -> int:
        if step == total:
            return twice_area
        out = 0
        for move in (1, -1):
            nxt = height + move
            if nxt < 0:
                continue
            if step + 1 in marks and nxt != 0:
                continue
            out += walk(step + 1, nxt, twice_area + height + nxt)
        return out

    doubled = walk(0, 0, 0)
    assert doubled % 2 == 0
    return doubled // 2


def dyck_report(mu: tuple[int, ...]) -> tuple[int, int, bool]:
    """Dyck-area sum (literal convention) next to the directly enumerated
    #P(m,|m|+1).

    The two agree only in the degenerate all-ones case; both numbers are
    returned so the mismatch stays visible.  The ``doubled=True`` variant
    of :func:`dyck_area_sum` is the reading that matches the enumeration.
    """
    area = dyck_area_sum(mu)
    direct = count_class_paths(GraphKind.ORTHOGONAL, mu, sum(mu) - len(mu) + 1)
    return area, direct, area == direct
