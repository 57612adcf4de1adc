import random
from fractions import Fraction as F

import pytest

from wgcalc.exact import SingularSystemError
from wgcalc.moments import (
    MomentSpec,
    delta_admissible,
    delta_sigma,
    exact_moment,
    moment_aiii,
    moment_coe,
    moment_orthogonal,
    moment_unitary,
    strongly_admissible,
)
from wgcalc.symcore import (
    Permutation,
    parse_pair_partition,
    parse_permutation,
    strong_admissible_sequence,
)


def test_delta_symbols():
    ident = Permutation.identity(3)
    assert delta_sigma(ident, (1, 2, 2), (1, 2, 2)) == 1
    assert delta_sigma(ident, (1, 2, 2), (1, 2, 3)) == 0
    swap = parse_permutation("2,1")
    assert delta_sigma(swap, (1, 2), (2, 1)) == 1
    with pytest.raises(ValueError):
        delta_sigma(ident, (1, 2), (1, 2, 3))
    m = parse_pair_partition("1,3|2,6|4,5")
    assert delta_admissible(m, (2, 1, 2, 2, 2, 1)) == 1
    assert strongly_admissible(m, (2, 1, 2, 2, 2, 1)) == 0
    assert strongly_admissible(m, (2, 1, 2, 3, 3, 1)) == 1
    assert delta_admissible(m, (2, 1, 1, 2, 2, 1)) == 0


def test_strong_sequence_is_strongly_admissible():
    for text in ("1,2|3,4", "1,3|2,4", "1,3|2,6|4,5", "1,4|2,3|5,6"):
        m = parse_pair_partition(text)
        seq = strong_admissible_sequence(m)
        assert strongly_admissible(m, seq) == 1


def test_unitary_moments():
    d = 5
    assert moment_unitary((1,), (1,), (1,), (1,), d) == F(1, d)
    assert moment_unitary((1, 2), (1, 2), (1, 2), (1, 2), d) == F(1, d * d - 1)
    assert moment_unitary((1, 1), (1, 1), (1, 1), (1, 1), d) == F(2, d * (d + 1))
    assert moment_unitary((1, 2), (1, 2), (1, 2), (2, 1), d) == F(-1, d * (d * d - 1))
    # phase invariance kills unbalanced monomials outright
    assert moment_unitary((1,), (1,), (), (), d) == 0
    assert moment_unitary((1,), (1,), (2,), (2,), d) == 0


def test_orthogonal_moments():
    d = 4
    assert moment_orthogonal((1, 1), (1, 1), d) == F(1, d)
    assert moment_orthogonal((1, 1, 1, 1), (1, 1, 1, 1), d) == F(3, d * (d + 2))
    q = (d + 2) * d * (d - 1)
    assert moment_orthogonal((1, 1, 2, 2), (1, 1, 2, 2), d) == F(d + 1, q)
    assert moment_orthogonal((1, 1, 2, 2), (1, 2, 1, 2), d) == F(-1, q)
    assert moment_orthogonal((1,), (1,), d) == 0
    assert moment_orthogonal((1, 1), (1, 2), d) == 0


def test_coe_moments():
    d = 3
    assert moment_coe((1, 1), (1, 1), d) == F(2, d + 1)
    assert moment_coe((1, 2), (1, 2), d) == F(1, d + 1)
    assert moment_coe((1, 1, 1, 1), (1, 1, 1, 1), d) == F(8, (d + 3) * (d + 1))
    assert moment_coe((1, 2, 1, 2), (1, 2, 1, 2), d) == F(2, (d + 3) * d)
    # the matrix is symmetric, so swapping one factor's indices changes nothing
    assert moment_coe((1, 2), (2, 1), d) == F(1, d + 1)
    assert moment_coe((1, 2), (), d) == 0
    assert moment_coe((1, 2, 1, 2), (1, 2), d) == 0
    assert moment_coe((1, 2), (1, 3), d) == 0
    assert moment_coe((1, 2), (3, 4), 4) == 0


def test_coe_substitution_value():
    assert moment_coe((1, 2), (1, 2), 2) == F(1, 3)


def test_aiii_moments():
    d, dm = 3, 1
    assert moment_aiii((1,), (1,), d, dm) == F(dm, d)
    assert moment_aiii((1,), (2,), d, dm) == 0
    assert moment_aiii((1, 2), (2, 1), d, dm) == F(d * d - dm * dm, d * (d * d - 1))
    assert moment_aiii((1, 2), (1, 2), d, dm) == F(dm * dm - 1, d * d - 1)
    assert moment_aiii((1, 1), (1, 1), d, dm) == F(dm * dm + d, d * (d + 1))


def test_aiii_trace_rules():
    # Tr(s) integrates to dminus and s^2 = 1 forces Tr E[s s] = d
    for d, dm in ((3, 1), (4, 2), (4, 0)):
        total = sum(moment_aiii((i,), (i,), d, dm) for i in range(1, d + 1))
        assert total == dm
        sq = sum(
            moment_aiii((i, j), (j, i), d, dm)
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        )
        assert sq == d


def test_unitarity_sum_rules():
    # summing the last column index over 1..d turns a k-factor moment into
    # the (k-1)-factor moment it contracts to
    d = 3
    total = sum(moment_unitary((1,), (t,), (1,), (t,), d) for t in range(1, d + 1))
    assert total == 1
    total = sum(moment_unitary((1,), (t,), (2,), (t,), d) for t in range(1, d + 1))
    assert total == 0
    lower = moment_unitary((1,), (1,), (1,), (1,), d)
    total = sum(
        moment_unitary((1, 2), (1, t), (1, 2), (1, t), d) for t in range(1, d + 1)
    )
    assert total == lower
    # orthogonal rows are unit vectors as well
    total = sum(moment_orthogonal((1, 1), (t, t), d) for t in range(1, d + 1))
    assert total == 1


def test_relabeling_invariance():
    rng = random.Random(4571)
    d = 5
    names = list(range(1, d + 1))
    for _ in range(12):
        k = rng.choice((1, 2, 3))
        rows = tuple(rng.randint(1, 3) for _ in range(k))
        cols = tuple(rng.randint(1, 3) for _ in range(k))
        crows = tuple(rng.randint(1, 3) for _ in range(k))
        ccols = tuple(rng.randint(1, 3) for _ in range(k))
        before = moment_unitary(rows, cols, crows, ccols, d)
        row_map = dict(zip(names, rng.sample(names, d)))
        col_map = dict(zip(names, rng.sample(names, d)))
        after = moment_unitary(
            tuple(row_map[x] for x in rows),
            tuple(col_map[x] for x in cols),
            tuple(row_map[x] for x in crows),
            tuple(col_map[x] for x in ccols),
            d,
        )
        assert before == after
    for _ in range(8):
        seq_i = tuple(rng.randint(1, 3) for _ in range(4))
        seq_j = tuple(rng.randint(1, 3) for _ in range(4))
        before = moment_orthogonal(seq_i, seq_j, d)
        row_map = dict(zip(names, rng.sample(names, d)))
        col_map = dict(zip(names, rng.sample(names, d)))
        after = moment_orthogonal(
            tuple(row_map[x] for x in seq_i),
            tuple(col_map[x] for x in seq_j),
            d,
        )
        assert before == after


def test_index_range_checks():
    with pytest.raises(ValueError):
        moment_unitary((1,), (6,), (1,), (1,), 5)
    with pytest.raises(ValueError):
        moment_orthogonal((0, 1), (1, 1), 4)
    with pytest.raises(ValueError):
        moment_aiii((1, 4), (1, 1), 3, 1)
    with pytest.raises(ValueError):
        moment_coe((1, 2), (5, 1), 4)


def test_moment_spec_dispatch():
    spec = MomentSpec("u", (1, 2), (1, 2), (1, 2), (1, 2), d=5)
    assert exact_moment(spec) == F(1, 24)
    spec = MomentSpec("o", (1, 1, 2, 2), (1, 1, 2, 2), d=4)
    assert exact_moment(spec) == F(5, 72)
    spec = MomentSpec("coe", (1, 1), (1, 1), (1, 1), (1, 1), d=3)
    assert exact_moment(spec) == F(1, 3)
    spec = MomentSpec("aiii", (1, 2), (2, 1), d=3, dminus=1)
    assert exact_moment(spec) == F(1, 3)
    with pytest.raises(ValueError):
        MomentSpec("x", (1,), (1,))
    with pytest.raises(ValueError):
        MomentSpec("o", (1, 1), (1, 1), (1,), (1,))
    with pytest.raises(ValueError):
        MomentSpec("aiii", (1,), (1,), d=3)
    with pytest.raises(ValueError):
        MomentSpec("u", (1, 2), (1,))


def test_moments_below_level_are_refused():
    # E|u11|^2k and E[o11^2k] at d < k exist (1/C(d+k-1,k) and
    # prod (2i+1)/(d+2i)), but the recurrence system is singular or guarded
    # there: until a pseudo-inverse route exists the engine must raise, never
    # return a value
    for k, d in [(2, 1), (3, 2), (3, 1), (4, 2), (4, 3), (4, 1)]:
        ones = (1,) * k
        with pytest.raises(ValueError, match="below level"):
            moment_unitary(ones, ones, ones, ones, d)
    for k, d in [(2, 1), (3, 1), (3, 2)]:
        ones = (1,) * (2 * k)
        with pytest.raises(SingularSystemError):
            moment_orthogonal(ones, ones, d)
