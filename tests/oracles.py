"""Reference helpers that only the tests use: rational-function equality,
construction from integer coefficients and Laurent expansion at infinity."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from wgcalc.ratfunc import RationalFunctionRep, _normalize_pair, poly_mul, poly_trim


def from_integer_polys(num: Sequence[int], den: Sequence[int]) -> RationalFunctionRep:
    return RationalFunctionRep(*_normalize_pair(poly_trim([Fraction(c) for c in num]),
                                                poly_trim([Fraction(c) for c in den])))


def equivalent(rep: RationalFunctionRep, num: Sequence, den: Sequence) -> bool:
    """Equality of ``rep`` with ``num/den`` as rational functions (cross-multiplied)."""
    other_num = poly_trim([Fraction(c) for c in num])
    other_den = poly_trim([Fraction(c) for c in den])
    return poly_mul(rep.num, other_den) == poly_mul(other_num, rep.den)


def laurent_at_infinity(rep: RationalFunctionRep, n_lo: int, n_hi: int) -> list[Fraction]:
    """Coefficients of ``x**-n`` in ``rep`` for ``n`` in ``[n_lo, n_hi]``."""
    if not rep.num:
        return [Fraction(0)] * (n_hi - n_lo + 1)
    dn, dd = len(rep.num) - 1, len(rep.den) - 1
    # f = x**(dn-dd) * A(t)/B(t) with t = 1/x and reversed coefficients
    a = list(reversed(rep.num))
    b = list(reversed(rep.den))
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
