"""Twelve-point acceptance gate.

Each test certifies one numbered criterion, checks its runtime budget,
and prints one PASS line (visible with ``pytest -s``; under ``pytest -v``
the test name itself is the per-criterion pass/fail line).  All values
are exact rationals except the Monte Carlo suite, whose tolerance is
pinned at 5 standard errors with seed 20260822.
"""

import math
import time
from fractions import Fraction

from oracles import equivalent, laurent_at_infinity

from wgcalc import bounds, exact, graphs, mc
from wgcalc.graphs import GraphKind
from wgcalc.moments import MomentSpec, exact_moment
from wgcalc.symcore import (
    all_pair_partitions,
    all_permutations,
    class_representative,
    coset_representative,
    partitions,
)

SEED = 20260822


def _finish(n: int, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, f"criterion {n} took {elapsed:.1f}s, budget {budget}s"
    print(f"[criterion {n}] PASS ({elapsed:.2f}s)")


def test_criterion_01_unitary_closed_forms():
    t0 = time.monotonic()
    one = exact.reconstruct_rational("u", class_representative((1,)))
    assert equivalent(one, [1], [0, 1])
    id2 = exact.reconstruct_rational("u", class_representative((1, 1)))
    assert equivalent(id2, [1], [-1, 0, 1])
    swap = exact.reconstruct_rational("u", class_representative((2,)))
    assert equivalent(swap, [-1], [0, -1, 0, 1])
    _finish(1, t0, 1.0)


def test_criterion_02_orthogonal_closed_forms():
    t0 = time.monotonic()
    den = [0, -2, 1, 1]
    for m in all_pair_partitions(2):
        fn = exact.reconstruct_rational("o", m)
        if m.coset_type() == (1, 1):
            assert equivalent(fn, [1, 1], den)
        else:
            assert m.coset_type() == (2,)
            assert equivalent(fn, [-1], den)
    _finish(2, t0, 1.0)


def test_criterion_03_coe_equals_shifted_orthogonal():
    t0 = time.monotonic()
    for k in range(1, 5):
        for d in range(2 * k, 2 * k + 6):
            for m in all_pair_partitions(k):
                assert exact.wg_coe_direct(m, d) == exact.wg("o", m, d + 1)
    _finish(3, t0, 120.0)


def test_criterion_04_aiii_transposition_formula():
    t0 = time.monotonic()
    swap = class_representative((2,))
    for d in range(3, 9):
        for dminus in range(0, d + 1):
            want = Fraction(d * d - dminus * dminus, d * (d * d - 1))
            assert exact.wg("aiii", swap, d, dminus) == want
    _finish(4, t0, 10.0)


def test_criterion_05_series_matches_reconstruction():
    t0 = time.monotonic()
    order = 3
    for k in range(1, 5):
        for mu in partitions(k):
            sigma = class_representative(mu)
            pairing = coset_representative(mu)
            sign = (-1) ** sigma.absolute_length()

            st = exact.series("u", sigma, order)
            lead = -st.leading_exponent
            coeffs = laurent_at_infinity(
                exact.reconstruct_rational("u", sigma), lead, lead + 2 * order + 1)
            for g in range(order + 1):
                assert coeffs[2 * g] == sign * st.coefficients[g]
            for off in range(1, 2 * order + 2, 2):
                assert coeffs[off] == 0

            st = exact.series("o", pairing, order)
            lead = -st.leading_exponent
            coeffs = laurent_at_infinity(
                exact.reconstruct_rational("o", pairing), lead, lead + order)
            for g in range(order + 1):
                assert coeffs[g] == sign * (-1) ** g * st.coefficients[g]

            st = exact.series("sp", pairing, order)
            lead = -st.leading_exponent
            coeffs = laurent_at_infinity(
                exact.reconstruct_rational("sp", pairing), lead, lead + order)
            for g in range(order + 1):
                assert coeffs[g] == Fraction(st.coefficients[g], 2 ** (lead + g))

            st = exact.series("aiii", sigma, order)
            lead = -st.leading_exponent
            for dminus in (0, 1, 2):
                fn = exact.reconstruct_rational("aiii", sigma, dminus=dminus)
                coeffs = laurent_at_infinity(fn, lead, lead + order)
                for g in range(order + 1):
                    want = sum(c * dminus**e for e, c in st.coefficients[g].items())
                    assert coeffs[g] == want
    _finish(5, t0, 300.0)


def test_criterion_06_catalan_oracle():
    t0 = time.monotonic()

    def cat_product(mu):
        total = 1
        for part in mu:
            n = part - 1
            total *= math.comb(2 * n, n) // (n + 1)
        return total

    for k in range(1, 6):
        for mu in partitions(k):
            sigma = class_representative(mu)
            assert graphs.count_paths(
                GraphKind.UNITARY, sigma, sigma.absolute_length()) == cat_product(mu)
    for k in range(1, 5):
        for mu in partitions(k):
            m = coset_representative(mu)
            assert graphs.count_paths(
                GraphKind.ORTHOGONAL, m, m.absolute_length()) == cat_product(mu)
    _finish(6, t0, 120.0)


def test_criterion_07_path_factorization_bijection():
    t0 = time.monotonic()
    for length in range(0, 6):
        by_target = {}
        for f in graphs.enumerate_monotone_factorizations(GraphKind.UNITARY, 4, length):
            by_target.setdefault(f.target(), []).append(f)
        for sigma in all_permutations(4):
            paths = graphs.enumerate_paths(GraphKind.UNITARY, sigma, length)
            facts = by_target.get(sigma, [])
            assert len(paths) == len(facts)
            assert len(paths) == graphs.count_paths(GraphKind.UNITARY, sigma, length)
            round_tripped = set()
            for p in paths:
                f = graphs.path_to_factorization(p)
                assert graphs.factorization_to_path(f) == p
                round_tripped.add(f)
            assert round_tripped == set(facts)
    _finish(7, t0, 60.0)


def test_criterion_08_bound_certification():
    t0 = time.monotonic()
    for k in range(1, 6):
        assert bounds.certify_unitary_bounds(k, 3).all_pass
        assert bounds.neighborhood_certify(k).all_pass
    for k in range(1, 5):
        assert bounds.certify_orthogonal_bounds(k, 3).all_pass
    unitary_sweep = {1: [1, 2, 3, 4, 10], 2: [2, 3, 8, 9, 12], 3: [3, 5, 16, 17, 25]}
    sp_sweep = {1: [7, 8, 20], 2: [68, 69, 100], 3: [281, 282, 400]}
    orth_sweep = {1: [13, 14, 30], 2: [136, 137, 200], 3: [562, 563, 800]}
    for k in (1, 2, 3):
        for d in unitary_sweep[k]:
            assert bounds.certify_wg_ratio_unitary(k, d).all_pass
        for d in sp_sweep[k]:
            assert bounds.certify_sp_ratio(k, d).all_pass
        for d in orth_sweep[k]:
            assert bounds.certify_orthogonal_ratio(k, d).all_pass
    _finish(8, t0, 600.0)


def test_criterion_09_symplectic_magnitude_and_positivity():
    t0 = time.monotonic()
    for k in range(1, 4):
        for m in all_pair_partitions(k):
            st = exact.series("sp", m, 3)
            assert all(c >= 0 for c in st.coefficients)
            for d in range(k, k + 5):
                value = exact.wg("sp", m, d)
                assert value == abs(exact.wg("o", m, -2 * d))
                assert value > 0
            # the truncation really tracks the value: at a large dimension
            # the defect stays below twice the first omitted term
            d_big = 50
            n_next = -st.leading_exponent + st.order + 1
            c_next = graphs.count_paths(
                GraphKind.ORTHOGONAL, m, m.absolute_length() + st.order + 1)
            defect = abs(exact.wg("sp", m, d_big) - st.evaluate(d_big))
            assert defect <= Fraction(2 * c_next, (2 * d_big) ** n_next)
    _finish(9, t0, 30.0)


def test_criterion_10_sum_rules():
    t0 = time.monotonic()
    d = 3
    for k in range(1, 4):
        pad_rows = (1,) * (k - 1)
        # row orthogonality: sum_t u_1t conj(u_2t) X = 0 for any extra factors X
        total = sum(
            exact_moment(MomentSpec("u", (1,) + pad_rows, (t,) + pad_rows,
                                    (2,) + pad_rows, (t,) + pad_rows, d))
            for t in range(1, d + 1))
        assert total == 0
        # row normalization: sum_t |u_1t|^2 X integrates to the moment of X
        total = sum(
            exact_moment(MomentSpec("u", (1,) + pad_rows, (t,) + pad_rows,
                                    (1,) + pad_rows, (t,) + pad_rows, d))
            for t in range(1, d + 1))
        rest = MomentSpec("u", pad_rows, pad_rows, pad_rows, pad_rows, d)
        assert total == (exact_moment(rest) if pad_rows else Fraction(1))
        # orthogonal row norm with the same padding trick
        pad = (1, 1) * (k - 1)
        total = sum(
            exact_moment(MomentSpec("o", (1, 1) + pad, (t, t) + pad, (), (), d))
            for t in range(1, d + 1))
        rest = MomentSpec("o", pad, pad, (), (), d)
        assert total == (exact_moment(rest) if pad else Fraction(1))
    # trace powers of the two-block symmetry: tr(s) = dminus, tr(s^2) = d,
    # tr(s^3) = dminus again since s is an involution
    for dim, dminus in ((3, 1), (4, 2)):
        total = sum(
            exact_moment(MomentSpec("aiii", (i,), (i,), (), (), dim, dminus))
            for i in range(1, dim + 1))
        assert total == dminus
        total = sum(
            exact_moment(MomentSpec("aiii", (i, j), (j, i), (), (), dim, dminus))
            for i in range(1, dim + 1) for j in range(1, dim + 1))
        assert total == dim
        total = sum(
            exact_moment(MomentSpec("aiii", (i, j, l), (j, l, i), (), (), dim, dminus))
            for i in range(1, dim + 1) for j in range(1, dim + 1)
            for l in range(1, dim + 1))
        assert total == dminus
    _finish(10, t0, 60.0)


def test_criterion_11_monte_carlo_suite():
    t0 = time.monotonic()
    n = 200_000
    failures = []
    for d in (2, 3, 4):
        batches = [
            (("u", d, d), [
                MomentSpec("u", (1,), (1,), (1,), (1,), d),
                MomentSpec("u", (1, 2), (1, 2), (1, 2), (2, 1), d),
                MomentSpec("u", (1, 2), (1, 2), (1, 2), (1, 2), d),
                MomentSpec("u", (1,), (1,), (2,), (2,), d),
            ]),
            (("o", d, d), [
                MomentSpec("o", (1, 1), (1, 1), (), (), d),
                MomentSpec("o", (1, 1, 2, 2), (1, 2, 1, 2), (), (), d),
                MomentSpec("o", (1, 1, 2, 2), (1, 1, 2, 2), (), (), d),
                MomentSpec("o", (1, 2), (1, 1), (), (), d),
            ]),
            (("coe", d, d), [
                MomentSpec("coe", (1,), (1,), (1,), (1,), d),
                MomentSpec("coe", (1,), (2,), (1,), (2,), d),
                MomentSpec("coe", (1, 1), (1, 1), (1, 1), (1, 1), d),
                MomentSpec("coe", (1,), (1,), (1,), (2,), d),
            ]),
        ]
        for ens, specs in batches:
            for report in mc.compare_many(ens, specs, n, SEED):
                if not report.passed:
                    failures.append(report)
    aiii_batches = [
        # degree 4 is singular for the exact engine at d = 3, so the (2,1)
        # signature carries the degree <= 3 monomials of the suite
        (("aiii", 3, 2), [
            MomentSpec("aiii", (1,), (1,), (), (), 3, 1),
            MomentSpec("aiii", (1, 2), (2, 1), (), (), 3, 1),
            MomentSpec("aiii", (1, 1), (1, 1), (), (), 3, 1),
            MomentSpec("aiii", (1, 2, 3), (2, 3, 1), (), (), 3, 1),
        ]),
        (("aiii", 4, 2), [
            MomentSpec("aiii", (1,), (1,), (), (), 4, 0),
            MomentSpec("aiii", (1, 2), (2, 1), (), (), 4, 0),
            MomentSpec("aiii", (1, 2, 3, 4), (2, 1, 4, 3), (), (), 4, 0),
        ]),
        (("aiii", 4, 3), [
            MomentSpec("aiii", (1,), (1,), (), (), 4, 2),
            MomentSpec("aiii", (1, 2), (2, 1), (), (), 4, 2),
            MomentSpec("aiii", (1, 2, 3, 4), (1, 2, 3, 4), (), (), 4, 2),
        ]),
    ]
    for ens, specs in aiii_batches:
        for report in mc.compare_many(ens, specs, n, SEED):
            if not report.passed:
                failures.append(report)
    assert not failures, "\n".join(
        f"{r.spec}: estimate {r.estimate.mean}, exact {r.exact}, "
        f"z=({r.z_real:.2f}, {r.z_imag:.2f})" for r in failures)
    _finish(11, t0, 300.0)


def test_criterion_12_dyck_area_report():
    t0 = time.monotonic()
    for k in range(1, 5):
        literal, direct, agree = bounds.dyck_report((1,) * k)
        assert agree and literal == 0 and direct == 0
    literal, direct, agree = bounds.dyck_report((2,))
    assert (literal, direct, agree) == (0, 1, False)
    _finish(12, t0, 10.0)
