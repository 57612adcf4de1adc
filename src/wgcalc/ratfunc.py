"""Exact rational linear algebra and rational-function reconstruction.

Results are :class:`fractions.Fraction`.  The linear solver eliminates on
sparse integer rows (fraction-free) and only back-substitutes over
Fraction; polynomials and rational functions work over Fraction
throughout.  Polynomials are coefficient tuples, lowest degree first; the
zero polynomial is ``()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Sequence

Poly = tuple[Fraction, ...]


def _integer_row(row, b) -> tuple[dict[int, int], int]:
    """One equation as coprime integers: ``{column: coefficient}`` and the
    right-hand side, scaled by the lcm of their denominators and divided by
    their content.  Zero coefficients are dropped."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    entries = {c: v for c, v in items if v}
    m = lcm(b.denominator, *(v.denominator for v in entries.values()))
    ints = {c: v.numerator * (m // v.denominator) for c, v in entries.items()}
    rhs = b.numerator * (m // b.denominator)
    g = gcd(rhs, *ints.values())
    if g > 1:
        ints = {c: v // g for c, v in ints.items()}
        rhs //= g
    return ints, rhs


def solve_linear_exact(
    rows: Sequence[dict[int, Fraction] | Sequence[Fraction]], rhs: Sequence[Fraction]
) -> list[Fraction] | None:
    """Solve a square system exactly by sparse fraction-free elimination.

    Each row is either a ``{column: value}`` mapping of its nonzero entries
    or a dense sequence; values and ``rhs`` are ints or Fractions.  Every
    row is scaled to coprime integers.  Each step pivots Markowitz-style
    (the uneliminated column with the fewest active rows, then the shortest
    row in it) and clears that column from the other active rows by
    ``p*row - f*pivot_row`` with ``gcd(p, f)`` divided out first and the
    row's content afterwards.  Back-substitution runs over Fraction.

    Returns ``None`` when the matrix is singular, detected exactly as an
    uneliminated column with no nonzero in any active row.
    """
    n = len(rows)
    a: list[dict[int, int]] = []
    b: list[int] = []
    for row, value in zip(rows, rhs):
        ints, rhs_int = _integer_row(row, value)
        a.append(ints)
        b.append(rhs_int)
    # active rows with a nonzero in each uneliminated column
    col_rows: dict[int, set[int]] = {c: set() for c in range(n)}
    for r, row in enumerate(a):
        for c in row:
            col_rows[c].add(r)
    order: list[tuple[int, int]] = []
    while col_rows:
        col = min(col_rows, key=lambda c: len(col_rows[c]))
        active = col_rows.pop(col)
        if not active:
            return None
        piv = min(active, key=lambda r: len(a[r]))
        active.remove(piv)
        prow, pb = a[piv], b[piv]
        for c in prow:
            if c != col:
                col_rows[c].discard(piv)
        p = prow[col]
        for r in active:
            row = a[r]
            f = row.pop(col)
            g = gcd(p, f)
            pp, ff = p // g, f // g
            new = {c: pp * v for c, v in row.items()} if pp != 1 else row
            for c, v in prow.items():
                if c == col:
                    continue
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
        order.append((col, piv))
    x: list[Fraction] = [Fraction(0)] * n
    for col, piv in reversed(order):
        prow = a[piv]
        acc = Fraction(b[piv])
        for c, v in prow.items():
            if c != col:
                acc -= v * x[c]
        x[col] = acc / prow[col]
    return x


def poly_trim(p: Sequence[Fraction]) -> Poly:
    coeffs = list(p)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(Fraction(c) for c in coeffs)


def poly_deg(p: Poly) -> int:
    """Degree, with the zero polynomial at -1."""
    return len(p) - 1


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
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    quo = [Fraction(0)] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q) and poly_trim(rem):
        rem = list(poly_trim(rem))
        if len(rem) < len(q):
            break
        c = rem[-1] / q[-1]
        d = len(rem) - len(q)
        quo[d] = c
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


@dataclass(frozen=True)
class RationalFunctionRep:
    """A reduced rational function with a record of how it was certified.

    ``degree_bounds`` is the (numerator, denominator) degree hypothesis that
    fit; ``validated_points`` counts every evaluation the candidate matched.
    """

    num: Poly
    den: Poly
    degree_bounds: tuple[int, int]
    validated_points: int

    def evaluate(self, x) -> Fraction:
        denv = poly_eval(self.den, x)
        if denv == 0:
            raise ZeroDivisionError(f"pole at {x}")
        return poly_eval(self.num, x) / denv

    def equivalent(self, num: Sequence, den: Sequence) -> bool:
        """Equality with ``num/den`` as rational functions (cross-multiplied)."""
        other_num = poly_trim([Fraction(c) for c in num])
        other_den = poly_trim([Fraction(c) for c in den])
        return poly_mul(self.num, other_den) == poly_mul(other_num, self.den)

    def laurent_at_infinity(self, n_lo: int, n_hi: int) -> list[Fraction]:
        """Coefficients of ``x**-n`` for ``n`` in ``[n_lo, n_hi]``."""
        if not self.num:
            return [Fraction(0)] * (n_hi - n_lo + 1)
        dn, dd = poly_deg(self.num), poly_deg(self.den)
        # f = x**(dn-dd) * A(t)/B(t) with t = 1/x and reversed coefficients
        a = list(reversed(self.num))
        b = list(reversed(self.den))
        order = n_hi + dn - dd
        if order < 0:
            return [Fraction(0)] * (n_hi - n_lo + 1)
        series = [Fraction(0)] * (order + 1)
        for r in range(order + 1):
            acc = a[r] if r < len(a) else Fraction(0)
            for j in range(1, min(r, len(b) - 1) + 1):
                acc -= b[j] * series[r - j]
            series[r] = acc / b[0]
        out = []
        for n in range(n_lo, n_hi + 1):
            r = n + dn - dd
            out.append(series[r] if 0 <= r <= order else Fraction(0))
        return out

    def text(self, var: str = "d") -> str:
        num_s = poly_text(self.num, var)
        if self.den == (Fraction(1),):
            return num_s
        den_s = poly_text(self.den, var)
        if sum(1 for c in self.num if c != 0) > 1:
            num_s = f"({num_s})"
        return f"{num_s}/({den_s})"


def from_integer_polys(num: Sequence[int], den: Sequence[int]) -> RationalFunctionRep:
    n, d = _normalize_pair(poly_trim([Fraction(c) for c in num]),
                           poly_trim([Fraction(c) for c in den]))
    return RationalFunctionRep(n, d, (poly_deg(n), poly_deg(d)), 0)


def _fit(points: list[tuple[int, Fraction]], p: int, q: int):
    # num_0..num_p and den_0..den_{q-1} unknown, den monic of degree q
    rows, rhs = [], []
    for x, y in points:
        xp = [x**i for i in range(max(p, q) + 1)]
        row = {i: xp[i] for i in range(p + 1)}
        row.update((p + 1 + j, -y * xp[j]) for j in range(q))
        rows.append(row)
        rhs.append(y * xp[q])
    sol = solve_linear_exact(rows, rhs)
    if sol is None:
        return None
    num = poly_trim(sol[: p + 1])
    den = poly_trim(list(sol[p + 1:]) + [Fraction(1)])
    return num, den


def reconstruct(
    evaluate: Callable[[int], Fraction],
    start: int,
    degree_cap: int = 40,
    skip_exceptions: tuple = (),
) -> RationalFunctionRep:
    """Recover the rational function behind an exact evaluator.

    Samples at ``start, start+1, ...`` (points where ``evaluate`` raises one
    of ``skip_exceptions`` are skipped).  Degree hypotheses are tried in
    order of total degree; a candidate must reproduce ``p+q+3`` held-out
    evaluations beyond the ``p+q+1`` it was fitted on before it is accepted,
    after which it is gcd-reduced and integer-normalized.
    """
    points: list[tuple[int, Fraction]] = []
    cursor = start

    def ensure(n: int) -> None:
        nonlocal cursor
        while len(points) < n:
            try:
                y = evaluate(cursor)
            except skip_exceptions:
                cursor += 1
                continue
            points.append((cursor, y))
            cursor += 1

    for total in range(degree_cap + 1):
        for q in range(total, -1, -1):
            p = total - q
            fit_n = p + q + 1
            check_n = p + q + 3
            ensure(fit_n + check_n)
            fitted = _fit(points[:fit_n], p, q)
            if fitted is None:
                continue
            num, den = fitted
            held_out = points[fit_n: fit_n + check_n]
            if all(poly_eval(num, x) == y * poly_eval(den, x) for x, y in held_out):
                g = poly_gcd(num, den)
                if poly_deg(g) > 0:
                    num = poly_divmod(num, g)[0]
                    den = poly_divmod(den, g)[0]
                num, den = _normalize_pair(num, den)
                return RationalFunctionRep(
                    num, den, (p, q), fit_n + check_n
                )
    raise ValueError(f"no rational function of total degree <= {degree_cap} fits")
