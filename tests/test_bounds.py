from fractions import Fraction as F

import pytest

from wgcalc.bounds import (
    BoundReport,
    _first_of_class,
    catalan,
    certify_orthogonal_bounds,
    certify_orthogonal_ratio,
    certify_sp_ratio,
    certify_unitary_bounds,
    certify_wg_ratio_unitary,
    dyck_area_sum,
    dyck_report,
    easy_injection_check,
    moebius,
    neighborhood_certify,
    shortest_count,
)
from wgcalc.graphs import GraphKind, count_paths
from wgcalc.symcore import (
    all_permutations,
    class_representative,
    coset_representative,
    format_partition,
    parse_permutation,
    partitions,
)


def test_catalan_values():
    assert [catalan(n) for n in range(5)] == [1, 1, 2, 5, 14]
    with pytest.raises(ValueError):
        catalan(-1)


def test_shortest_count_and_moebius():
    five_cycle = class_representative((5,))
    assert shortest_count(GraphKind.UNITARY, five_cycle) == 14
    assert moebius(five_cycle) == 14
    assert moebius(parse_permutation("2,1")) == -1
    assert moebius(class_representative((3,))) == 2
    m = coset_representative((2, 1))
    assert shortest_count(GraphKind.ORTHOGONAL, m) == 1


def test_shortest_count_matches_enumeration():
    for k in range(1, 6):
        for mu in partitions(k):
            sigma = class_representative(mu)
            n = sigma.absolute_length()
            assert shortest_count(GraphKind.UNITARY, sigma) == count_paths(
                GraphKind.UNITARY, sigma, n
            ), mu
    for k in range(1, 5):
        for mu in partitions(k):
            m = coset_representative(mu)
            n = m.absolute_length()
            assert shortest_count(GraphKind.ORTHOGONAL, m) == count_paths(
                GraphKind.ORTHOGONAL, m, n
            ), mu


def test_unitary_count_bounds():
    for k in range(1, 5):
        report = certify_unitary_bounds(k, 3)
        assert report.all_pass, report
    report = certify_unitary_bounds(2, 1)
    row = next(r for r in report.rows if r.class_key == "2" and r.g == 1)
    assert row.ok
    assert row.lower_margin == 1
    assert row.upper_margin == F(1, 36 * 2**7)


def test_unitary_ratio_bounds():
    report = certify_wg_ratio_unitary(2, 10)
    assert report.all_pass
    for row in report.rows:
        assert row.lower_margin == 1, row
    assert certify_wg_ratio_unitary(3, 9).all_pass
    # below the threshold only the lower bound is examined
    below = certify_wg_ratio_unitary(3, 5)
    assert below.all_pass
    assert all(r.upper_margin is None for r in below.rows)
    with pytest.raises(ValueError):
        certify_wg_ratio_unitary(3, 2)


def test_orthogonal_count_bounds():
    for k in range(1, 4):
        assert certify_orthogonal_bounds(k, 2).all_pass
    report = certify_orthogonal_bounds(2, 1)
    row = next(r for r in report.rows if r.class_key == "2" and r.g == 1)
    assert row.ok
    assert row.lower_margin == F(2, 3)
    assert row.upper_margin == F(1, 144 * 2**7)


def test_symplectic_ratio_bounds():
    assert certify_sp_ratio(1, 7).all_pass
    assert certify_sp_ratio(2, 68).all_pass
    with pytest.raises(ValueError):
        certify_sp_ratio(2, 67)


def test_orthogonal_ratio_bounds():
    assert certify_orthogonal_ratio(1, 13).all_pass
    assert certify_orthogonal_ratio(2, 136).all_pass
    with pytest.raises(ValueError):
        certify_orthogonal_ratio(2, 135)


def test_neighborhood_bound():
    for k in range(1, 6):
        report = neighborhood_certify(k)
        assert report.all_pass, k
    report = neighborhood_certify(10)
    assert report.all_pass and len(report.rows) == 228


def _neighborhood_rows_full_walk(k):
    """Reference rows: every permutation of S_k times every transposition."""
    rows, seen = [], set()
    for sigma in all_permutations(k):
        mu = sigma.cycle_type()
        for a in range(1, k + 1):
            for b in range(a + 1, k + 1):
                tau_sigma = sigma.swap_values(a, b)
                pair = (mu, tau_sigma.cycle_type())
                if pair in seen:
                    continue
                seen.add(pair)
                before = shortest_count(GraphKind.UNITARY, sigma)
                after = shortest_count(GraphKind.UNITARY, tau_sigma)
                margin = F(after * after, 36 * k**3 * before * before)
                label = f"{format_partition(pair[0])}->{format_partition(pair[1])}"
                rows.append((label, margin, margin <= 1))
    return rows


def test_neighborhood_one_permutation_per_class_matches_full_walk():
    for k in range(1, 7):
        report = neighborhood_certify(k)
        got = [(r.class_key, r.upper_margin, r.ok) for r in report.rows]
        assert got == _neighborhood_rows_full_walk(k), k


def test_first_of_class_is_the_first_of_its_class_in_the_full_walk():
    for k in range(1, 9):
        first = {}
        for sigma in all_permutations(k):
            first.setdefault(sigma.cycle_type(), sigma)
        assert first == {mu: _first_of_class(mu) for mu in partitions(k)}, k


def test_empty_ranges_are_refused():
    for call in (lambda: certify_unitary_bounds(4, -1), lambda: certify_orthogonal_bounds(3, -2),
                 lambda: easy_injection_check(4, extra=-1), lambda: neighborhood_certify(0)):
        with pytest.raises(ValueError):
            call()
    for call in (lambda: certify_wg_ratio_unitary(0, 5), lambda: certify_wg_ratio_unitary(-2, 5),
                 lambda: certify_sp_ratio(0, 1), lambda: certify_orthogonal_ratio(0, 1),
                 lambda: easy_injection_check(0)):
        with pytest.raises(ValueError, match="^k must be positive, got "):
            call()
    assert neighborhood_certify(1).rows == ()


def test_easy_injection():
    for k in range(1, 5):
        assert easy_injection_check(k).all_pass, k


def test_dyck_area_literal():
    assert dyck_area_sum((3, 3)) == 2
    assert dyck_area_sum((1, 1, 1)) == 0
    assert dyck_area_sum((2,)) == 0
    area, direct, agree = dyck_report((2,))
    assert (area, direct, agree) == (0, 1, False)
    area, direct, agree = dyck_report((1, 1))
    assert (area, direct, agree) == (0, 0, True)


def test_dyck_area_doubled_matches_enumeration():
    for mu in [(2,), (3,), (4,), (2, 1), (2, 2), (3, 3), (3, 1, 1)]:
        m = coset_representative(mu)
        direct = count_paths(GraphKind.ORTHOGONAL, m, m.absolute_length() + 1)
        assert dyck_area_sum(mu, doubled=True) == direct, mu


def test_report_witnesses():
    report = certify_unitary_bounds(3, 2)
    assert isinstance(report, BoundReport)
    assert report.tightest_lower is not None
    assert report.tightest_upper is not None
    labels = {r.class_key for r in report.rows}
    assert labels == {"1+1+1", "2+1", "3"}
