"""Exact rational linear algebra and rational-function reconstruction.

Results are :class:`fractions.Fraction`.  The linear solver takes sparse
``{column: int}`` rows with int or Fraction right-hand sides, eliminates
fraction-free in one sweep from the last column to the first, so the
caller's numbering of the unknowns is the elimination order, and
back-substitutes on integer numerator/denominator pairs, building one
Fraction per unknown; polynomials and rational functions work over
Fraction throughout.  Polynomials are coefficient
tuples, lowest degree first; the zero polynomial is ``()``.

:func:`reconstruct` is given the denominator: Collins–Śniady content
products for ``u`` (and ``aiii``, where it is only observed), Collins–Matsumoto
zonal factors for ``o``, shifted for ``coe`` and ``sp``
(:func:`wgcalc.exact.wg_denominator`).  A held-out mismatch raises
:class:`DenominatorMismatchError`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, NamedTuple, Sequence

Poly = tuple[Fraction, ...]

HELD_OUT = 3  # evaluations past the interpolation points that must agree


class DenominatorMismatchError(ValueError):
    """Held-out evaluations are not ``P/den`` for one polynomial ``P``."""


def _integer_row(row: dict[int, int], b: int | Fraction) -> tuple[dict[int, int], int]:
    """One equation as coprime integers: a copy of ``row`` scaled by the
    denominator of the right-hand side ``b``, divided by its content.  Zero
    coefficients are dropped."""
    m = b.denominator
    ints = {c: v * m for c, v in row.items() if v}
    rhs = b.numerator
    g = gcd(rhs, *ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
        rhs //= g
    return ints, rhs


def solve_linear_exact(rows: Sequence[dict[int, int]],
                       rhs: Sequence[int | Fraction]) -> list[Fraction] | None:
    """Solve a square system exactly by sparse fraction-free elimination.

    Each row is a ``{column: int}`` mapping, the form :mod:`wgcalc.exact`
    builds; each right-hand side is an int or a Fraction.  A copy of every
    row, zero entries dropped, is scaled by its right-hand side's
    denominator and divided by its content; the caller's rows are left
    untouched.  Columns are eliminated in one fixed sweep, from the last to
    the first, so the caller's numbering of the unknowns is the elimination
    order.  Column ``col`` pivots on row ``col`` while that row is active
    and nonzero in ``col``, else on the shortest active row nonzero there,
    and is cleared from the other active rows by ``p*row - f*pivot_row``
    with ``gcd(p, f)`` divided out first and the row's content afterwards.
    A pivot row then holds no column above its own, so back-substitution
    runs from column 0 upwards.

    Back-substitution stays on integers: each solved unknown is a reduced
    ``(numerator, denominator)`` pair, and a pivot row with the lcm ``m`` of
    its other columns' denominators gives ``(b*m - sum v*num*(m//den)) /
    (p*m)``, built as one Fraction.

    Returns ``None`` when the matrix is singular, detected exactly as a
    column with no nonzero in any active row when the sweep reaches it.
    """
    n = len(rows)
    a: list[dict[int, int]] = []
    b: list[int] = []
    for row, value in zip(rows, rhs):
        ints, rhs_int = _integer_row(row, value)
        a.append(ints)
        b.append(rhs_int)
    # active rows with a nonzero in each uneliminated column
    col_rows: list[set[int]] = [set() for _ in range(n)]
    for r, row in enumerate(a):
        for c in row:
            col_rows[c].add(r)
    pivots: list[tuple[int, int]] = [(0, 0)] * n  # (pivot row, its entry in the column)
    for col in range(n - 1, -1, -1):
        active = col_rows[col]
        if not active:
            return None
        piv = col if col in active else min(active, key=lambda r: len(a[r]))
        active.remove(piv)
        prow, pb = a[piv], b[piv]
        p = prow.pop(col)
        pivots[col] = piv, p
        for c in prow:
            col_rows[c].discard(piv)
        for r in active:
            row = a[r]
            f = row.pop(col)
            g = gcd(p, f)
            pp, ff = p // g, f // g
            new = {c: pp * v for c, v in row.items()} if pp != 1 else row
            for c, v in prow.items():
                nv = new.get(c, 0) - ff * v
                if nv:
                    if c not in new:
                        col_rows[c].add(r)
                    new[c] = nv
                else:
                    del new[c]
                    col_rows[c].discard(r)
            rhs_r = pp * b[r] - ff * pb
            g = gcd(rhs_r, *new.values())
            if g > 1:
                new = {c: v // g for c, v in new.items()}
                rhs_r //= g
            a[r], b[r] = new, rhs_r
    x: list[Fraction] = []
    nums: list[int] = []
    dens: list[int] = []
    for piv, p in pivots:
        prow = a[piv]
        m = lcm(*[dens[c] for c in prow])
        acc = b[piv] * m - sum(v * nums[c] * (m // dens[c]) for c, v in prow.items())
        value = Fraction(acc, p * m)
        x.append(value)
        nums.append(value.numerator)
        dens.append(value.denominator)
    return x


def poly_trim(p: Sequence[Fraction]) -> Poly:
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(Fraction(c) for c in coeffs)


def poly_eval(p: Poly, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def poly_scale(p: Poly, c) -> Poly:
    return poly_trim([x * c for x in p])


def poly_mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ()
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly_trim(out)


def poly_divmod(p: Poly, q: Poly) -> tuple[Poly, Poly]:
    q = poly_trim(q)
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    for d in range(len(quo) - 1, -1, -1):
        c = quo[d] = rem[d + len(q) - 1] / q[-1]
        for i, b in enumerate(q):
            rem[d + i] -= c * b
    return poly_trim(quo), poly_trim(rem)


def poly_gcd(p: Poly, q: Poly) -> Poly:
    a, b = poly_trim(p), poly_trim(q)
    while b:
        a, b = b, poly_divmod(a, b)[1]
        if b:
            b = poly_scale(b, 1 / b[-1])  # keep coefficients tame
    if not a:
        return ()
    return poly_scale(a, 1 / a[-1])


def _normalize_pair(num: Poly, den: Poly) -> tuple[Poly, Poly]:
    """Scale so both polynomials have coprime integer coefficients and the
    denominator's leading coefficient is positive."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return (), poly_trim([Fraction(1)])
    mult = lcm(*[c.denominator for c in num + den])
    ints = [c * mult for c in num + den]
    content = gcd(*[int(c) for c in ints])
    scale = Fraction(mult, content)
    num2, den2 = poly_scale(num, scale), poly_scale(den, scale)
    if den2[-1] < 0:
        num2, den2 = poly_scale(num2, -1), poly_scale(den2, -1)
    return num2, den2


def poly_text(p: Poly, var: str = "d") -> str:
    if not p:
        return "0"
    terms = []
    for power in range(len(p) - 1, -1, -1):
        c = p[power]
        if c == 0:
            continue
        mag = abs(c)
        if power == 0:
            body = str(mag)
        else:
            x = var if power == 1 else f"{var}^{power}"
            body = x if mag == 1 else f"{mag}*{x}"
        if not terms:
            terms.append(body if c > 0 else f"-{body}")
        else:
            terms.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(terms)


class RationalFunctionRep(NamedTuple):
    """A reduced rational function ``num/den``."""

    num: Poly
    den: Poly

    def text(self, var: str = "d") -> str:
        num_s = poly_text(self.num, var)
        if self.den == (Fraction(1),):
            return num_s
        den_s = poly_text(self.den, var)
        if sum(1 for c in self.num if c != 0) > 1:
            num_s = f"({num_s})"
        return f"{num_s}/({den_s})"


def _interpolate(points: list[tuple[int, Fraction]]) -> Poly:
    """The polynomial of degree below ``len(points)`` through ``points`` (Newton form)."""
    xs, coef = [x for x, _ in points], [y for _, y in points]
    for j in range(1, len(coef)):
        for i in range(len(coef) - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * len(coef)
    for c, x in zip(reversed(coef), reversed(xs)):  # poly = poly*(X - x) + c
        poly = [c - x * poly[0]] + [a - x * b for a, b in zip(poly, poly[1:])]
    return poly_trim(poly)


def reconstruct(evaluate: Callable[[int], Fraction], start: int, den: Sequence[Fraction],
                skip_exceptions: tuple = ()) -> RationalFunctionRep:
    """Recover ``f = P/den`` with ``deg P <= deg den`` from exact evaluations.

    ``den*f`` is sampled at ``start, start+1, ...``, skipping points where
    ``evaluate`` raises one of ``skip_exceptions``, interpolated through
    ``deg den + 1`` of them and checked on the next :data:`HELD_OUT`; a
    mismatch raises :class:`DenominatorMismatchError`.  The result is reduced
    by ``gcd(P, den)`` and integer-normalized.
    """
    den = poly_trim(den)
    points: list[tuple[int, Fraction]] = []
    x = start
    while len(points) < len(den) + HELD_OUT:
        try:
            points.append((x, evaluate(x) * poly_eval(den, x)))
        except skip_exceptions:
            pass
        x += 1
    num = _interpolate(points[:len(den)])
    for x, y in points[len(den):]:
        if poly_eval(num, x) != y:
            raise DenominatorMismatchError(
                f"held-out value at d={x} is not P(d)/({poly_text(den)}): wrong denominator")
    g = poly_gcd(num, den)
    return RationalFunctionRep(*_normalize_pair(poly_divmod(num, g)[0], poly_divmod(den, g)[0]))
