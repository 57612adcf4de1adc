import random
from fractions import Fraction
from math import gcd

import pytest
from oracles import equivalent, from_integer_polys, laurent_at_infinity

from wgcalc.ratfunc import (
    DenominatorMismatchError,
    RationalFunctionRep,
    poly_divmod,
    poly_eval,
    poly_gcd,
    poly_mul,
    poly_text,
    poly_trim,
    reconstruct,
    solve_linear_exact,
)

F = Fraction


def test_solve_linear_exact():
    sol = solve_linear_exact([[F(2), F(1)], [F(1), F(3)]], [F(5), F(10)])
    assert sol == [F(1), F(3)]
    assert solve_linear_exact([[F(1), F(2)], [F(2), F(4)]], [F(0), F(0)]) is None


def _sparse_system(rng: random.Random, n: int, k: int) -> list[dict[int, int]]:
    """Random integer rows with about ``2k`` off-diagonal nonzeros and a
    diagonal that dominates them, so the matrix is nonsingular."""
    rows = []
    for r in range(n):
        others = [c for c in range(n) if c != r]
        row = {c: rng.choice([-1, 1]) * rng.randint(1, 9)
               for c in rng.sample(others, min(2 * k, n - 1))}
        row[r] = rng.choice([-1, 1]) * (sum(map(abs, row.values())) + rng.randint(1, 5))
        rows.append(row)
    return rows


def _big_fraction(rng: random.Random) -> Fraction:
    return F(rng.randint(-10**30, 10**30), rng.randint(1, 10**25))


def _solves(rows, rhs, x) -> bool:
    """``A x == b`` exactly, for dict or dense rows."""
    for row, b in zip(rows, rhs):
        items = row.items() if isinstance(row, dict) else enumerate(row)
        if sum(v * x[c] for c, v in items) != b:
            return False
    return True


@pytest.mark.parametrize("n", [1, 2, 7, 19, 40])
def test_solve_linear_exact_random_sparse(n):
    rng = random.Random(9000 + n)
    for trial in range(4):
        rows = _sparse_system(rng, n, k=rng.randint(1, 6))
        # rescale some equations by a rational factor: the solver must
        # clear denominators itself
        for r in rng.sample(range(n), n // 2):
            factor = F(rng.randint(1, 10**6), rng.randint(1, 10**6))
            rows[r] = {c: v * factor for c, v in rows[r].items()}
        rhs = [_big_fraction(rng) if rng.random() < 0.8 else 0 for _ in range(n)]
        before = [dict(row) for row in rows]
        x = solve_linear_exact(rows, rhs)
        assert x is not None and len(x) == n
        assert all(isinstance(v, Fraction) for v in x)
        assert _solves(rows, rhs, x)
        assert rows == before  # callers' rows are left untouched
        dense = [[F(row.get(c, 0)) for c in range(n)] for row in rows]
        assert solve_linear_exact(dense, [F(b) for b in rhs]) == x


def _gauss_jordan(rows, rhss, n):
    """Dense Fraction Gauss-Jordan elimination, first nonzero as pivot, of
    ``rows`` against each right-hand side in ``rhss``: the reference for the
    sparse solver.  One solution per right-hand side, or ``None`` when the
    matrix is singular."""
    m = [[F(row.get(c, 0)) for c in range(n)] + [F(rhs[r]) for rhs in rhss]
         for r, row in enumerate(rows)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        lead = m[col][col]
        m[col] = [v / lead for v in m[col]]
        for r in range(n):
            f = m[r][col]
            if r != col and f:
                m[r] = [v - f * w for v, w in zip(m[r], m[col])]
    return [[m[r][n + i] for r in range(n)] for i in range(len(rhss))]


def _unstructured_system(rng: random.Random, n: int) -> list[dict[int, int]]:
    """Random rows of 1 to 4 signed entries in 1..9 on a random permutation of
    the diagonal: no dominance, so pivots are negative and non-unit and the
    elimination fills in."""
    perm = rng.sample(range(n), n)
    rows = []
    for r in range(n):
        row = {c: rng.choice([-1, 1]) * rng.randint(1, 9)
               for c in rng.sample(range(n), min(n, rng.randint(1, 4)))}
        row[perm[r]] = rng.choice([-1, 1]) * rng.randint(1, 9)
        rows.append(row)
    return rows


@pytest.mark.parametrize("n", [1, 3, 8, 20, 35, 60])
def test_solve_linear_exact_matches_dense_oracle(n):
    rng = random.Random(4100 + n)
    for trial in range(2):
        rows = _unstructured_system(rng, n)
        rhss = ([0] * n,
                [_big_fraction(rng) for _ in range(n)],
                [rng.choice([0, 0, rng.randint(-9, 9), _big_fraction(rng)]) for _ in range(n)])
        want = _gauss_jordan(rows, rhss, n)
        assert want is not None
        for rhs, expected in zip(rhss, want):
            x = solve_linear_exact(rows, rhs)
            assert x == expected
            assert all(isinstance(v, Fraction) and v.denominator > 0
                       and gcd(v.numerator, v.denominator) == 1 for v in x)
            assert _solves(rows, rhs, x)


def test_solve_linear_exact_singular_systems():
    rng = random.Random(77)
    n = 12
    # a zero column
    rows = _sparse_system(rng, n, k=3)
    for row in rows:
        row.pop(5, None)
    assert solve_linear_exact(rows, [_big_fraction(rng) for _ in range(n)]) is None
    # one row an integer combination of two others, placed first
    rows = _sparse_system(rng, n, k=3)
    combo = {c: 3 * rows[4].get(c, 0) - 7 * rows[9].get(c, 0) for c in range(n)}
    rows[0] = {c: v for c, v in combo.items() if v}
    assert solve_linear_exact(rows, [_big_fraction(rng) for _ in range(n)]) is None
    assert solve_linear_exact([[F(v) for v in combo.values()]] + [
        [F(row.get(c, 0)) for c in range(n)] for row in rows[1:]
    ], [F(1)] * n) is None
    # weighted Laplacian of a connected graph: every column holds at least
    # two nonzeros and the kernel (the all-ones vector) involves every row,
    # so the singularity only surfaces once the last column is reached
    for n in (6, 25):
        lap = [dict() for _ in range(n)]
        edges = {(i, i + 1) for i in range(n - 1)}
        edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(n)}
        for i, j in edges:
            w = rng.randint(1, 9)
            for a, b in ((i, j), (j, i)):
                lap[a][b] = lap[a].get(b, 0) - w
                lap[a][a] = lap[a].get(a, 0) + w
        assert solve_linear_exact(lap, [0] * n) is None
        assert solve_linear_exact(lap, [_big_fraction(rng) for _ in range(n)]) is None
        # grounding one vertex makes it nonsingular
        grounded = [dict(row) for row in lap]
        grounded[0][0] += 1
        rhs = [_big_fraction(rng) for _ in range(n)]
        x = solve_linear_exact(grounded, rhs)
        assert x is not None and _solves(grounded, rhs, x)


def test_poly_basics():
    p = poly_trim([F(0), F(-1), F(0), F(1)])  # d^3 - d
    assert poly_eval(p, 3) == 24
    q, r = poly_divmod(p, poly_trim([F(-1), F(1)]))  # divide by d - 1
    assert r == ()
    assert poly_eval(q, 3) == 12
    g = poly_gcd(p, poly_trim([F(-1), F(0), F(1)]))  # gcd with d^2 - 1
    assert poly_eval(poly_mul(g, g), 2) == poly_eval(g, 2) ** 2
    assert g == poly_trim([F(-1), F(0), F(1)])


def test_poly_text():
    assert poly_text(poly_trim([F(0), F(-2), F(1), F(1)])) == "d^3 + d^2 - 2*d"
    assert poly_text(poly_trim([F(-1)])) == "-1"
    assert poly_text(()) == "0"


def test_reconstruct_simple():
    rep = reconstruct(lambda d: F(-1, d**3 - d), start=3, den=(F(0), F(-1), F(0), F(1)))
    assert equivalent(rep, [-1], [0, -1, 0, 1])
    assert rep.text() == "-1/(d^3 - d)"
    # a multiple of the true denominator: the common factor d+1 is divided out
    rep = reconstruct(lambda d: F(d + 1, d**3 + d**2 - 2 * d), start=3,
                      den=poly_mul((F(0), F(-2), F(1), F(1)), (F(1), F(1))))
    assert equivalent(rep, [1, 1], [0, -2, 1, 1])
    assert rep.text() == "(d + 1)/(d^3 + d^2 - 2*d)"
    rep = reconstruct(lambda d: F(1, d + 1), start=2, den=(F(1), F(1)))
    assert equivalent(rep, [1], [1, 1])


def test_reconstruct_skips_bad_points():
    def f(d):
        if d in (5, 7):
            raise ZeroDivisionError
        return F(3, d - 4)

    rep = reconstruct(f, start=5, den=(F(-4), F(1)), skip_exceptions=(ZeroDivisionError,))
    assert equivalent(rep, [3], [-4, 1])


def test_reconstruct_refuses_a_wrong_denominator():
    with pytest.raises(DenominatorMismatchError):
        reconstruct(lambda d: F(1, d + 1), start=2, den=(F(0), F(1)))


def test_laurent_expansion():
    rep = from_integer_polys([-1], [0, -1, 0, 1])  # -1/(d^3 - d)
    coeffs = laurent_at_infinity(rep, 1, 7)
    assert coeffs == [F(0), F(0), F(-1), F(0), F(-1), F(0), F(-1)]
    rep = from_integer_polys([1, 1], [0, -2, 1, 1])  # (d+1)/(d^3+d^2-2d)
    lead = laurent_at_infinity(rep, 2, 2)[0]
    assert lead == 1
    zero = RationalFunctionRep((), (F(1),))
    assert laurent_at_infinity(zero, 0, 3) == [F(0)] * 4


def test_equivalence_normalization():
    rep = from_integer_polys([2, 2], [0, -4, 2, 2])
    assert equivalent(rep, [1, 1], [0, -2, 1, 1])
    assert rep.den[-1] > 0
