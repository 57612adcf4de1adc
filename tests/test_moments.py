import random
from collections import Counter
from fractions import Fraction as F
from itertools import combinations_with_replacement
from math import comb, factorial, prod

import pytest
from oracles import (
    all_permutations,
    as_permutation,
    delta_admissible,
    delta_sigma,
    identity,
    strong_admissible_sequence,
    strongly_admissible,
)

from wgcalc.exact import BelowLevelError, SingularSystemError, wg, wg_class
from wgcalc.moments import IndexRangeError, MomentSpec, _term_classes, exact_moment
from wgcalc.symcore import (
    PairPartition,
    all_pair_partitions,
    parse_pair_partition,
    parse_permutation,
    partitions,
)


def test_delta_symbols():
    ident = identity(3)
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
    assert exact_moment(MomentSpec("u", (1,), (1,), (1,), (1,), d)) == F(1, d)
    assert exact_moment(MomentSpec("u", (1, 2), (1, 2), (1, 2), (1, 2), d)) == F(1, d * d - 1)
    assert exact_moment(MomentSpec("u", (1, 1), (1, 1), (1, 1), (1, 1), d)) == F(2, d * (d + 1))
    assert exact_moment(MomentSpec("u", (1, 2), (1, 2), (1, 2), (2, 1), d)) == F(
        -1, d * (d * d - 1))
    # phase invariance kills unbalanced monomials outright
    assert exact_moment(MomentSpec("u", (1,), (1,), (), (), d)) == 0
    assert exact_moment(MomentSpec("u", (1,), (1,), (2,), (2,), d)) == 0
    # at any size, before any term is counted: one column index has no partner
    labels = tuple(range(1, 401))
    assert exact_moment(MomentSpec("u", labels, labels, labels, labels[:-1] + (401,), 401)) == 0


def test_orthogonal_moments():
    d = 4
    assert exact_moment(MomentSpec("o", (1, 1), (1, 1), d=d)) == F(1, d)
    assert exact_moment(MomentSpec("o", (1, 1, 1, 1), (1, 1, 1, 1), d=d)) == F(3, d * (d + 2))
    q = (d + 2) * d * (d - 1)
    assert exact_moment(MomentSpec("o", (1, 1, 2, 2), (1, 1, 2, 2), d=d)) == F(d + 1, q)
    assert exact_moment(MomentSpec("o", (1, 1, 2, 2), (1, 2, 1, 2), d=d)) == F(-1, q)
    assert exact_moment(MomentSpec("o", (1,), (1,), d=d)) == 0
    assert exact_moment(MomentSpec("o", (1, 1), (1, 2), d=d)) == 0


def test_coe_moments():
    d = 3
    assert exact_moment(MomentSpec("coe", (1,), (1,), (1,), (1,), d)) == F(2, d + 1)
    assert exact_moment(MomentSpec("coe", (1,), (2,), (1,), (2,), d)) == F(1, d + 1)
    assert exact_moment(MomentSpec("coe", (1, 1), (1, 1), (1, 1), (1, 1), d)) == F(
        8, (d + 3) * (d + 1))
    assert exact_moment(MomentSpec("coe", (1, 1), (2, 2), (1, 1), (2, 2), d)) == F(2, (d + 3) * d)
    # the matrix is symmetric, so swapping one factor's indices changes nothing
    assert exact_moment(MomentSpec("coe", (1,), (2,), (2,), (1,), d)) == F(1, d + 1)
    assert exact_moment(MomentSpec("coe", (1,), (2,), (), (), d)) == 0
    assert exact_moment(MomentSpec("coe", (1, 1), (2, 2), (1,), (2,), d)) == 0
    assert exact_moment(MomentSpec("coe", (1,), (2,), (1,), (3,), d)) == 0
    assert exact_moment(MomentSpec("coe", (1,), (2,), (3,), (4,), 4)) == 0


def test_coe_substitution_value():
    assert exact_moment(MomentSpec("coe", (1,), (2,), (1,), (2,), 2)) == F(1, 3)


def test_aiii_moments():
    d, dm = 3, 1
    assert exact_moment(MomentSpec("aiii", (1,), (1,), d=d, dminus=dm)) == F(dm, d)
    assert exact_moment(MomentSpec("aiii", (1,), (2,), d=d, dminus=dm)) == 0
    assert exact_moment(MomentSpec("aiii", (1, 2), (2, 1), d=d, dminus=dm)) == F(
        d * d - dm * dm, d * (d * d - 1))
    assert exact_moment(MomentSpec("aiii", (1, 2), (1, 2), d=d, dminus=dm)) == F(
        dm * dm - 1, d * d - 1)
    assert exact_moment(MomentSpec("aiii", (1, 1), (1, 1), d=d, dminus=dm)) == F(
        dm * dm + d, d * (d + 1))


def test_aiii_trace_rules():
    # Tr(s) integrates to dminus and s^2 = 1 forces Tr E[s s] = d
    for d, dm in ((3, 1), (4, 2), (4, 0)):
        total = sum(exact_moment(MomentSpec("aiii", (i,), (i,), d=d, dminus=dm))
                    for i in range(1, d + 1))
        assert total == dm
        sq = sum(
            exact_moment(MomentSpec("aiii", (i, j), (j, i), d=d, dminus=dm))
            for i in range(1, d + 1)
            for j in range(1, d + 1)
        )
        assert sq == d


def test_unitarity_sum_rules():
    # summing the last column index over 1..d turns a k-factor moment into
    # the (k-1)-factor moment it contracts to
    d = 3
    total = sum(exact_moment(MomentSpec("u", (1,), (t,), (1,), (t,), d)) for t in range(1, d + 1))
    assert total == 1
    total = sum(exact_moment(MomentSpec("u", (1,), (t,), (2,), (t,), d)) for t in range(1, d + 1))
    assert total == 0
    lower = exact_moment(MomentSpec("u", (1,), (1,), (1,), (1,), d))
    total = sum(
        exact_moment(MomentSpec("u", (1, 2), (1, t), (1, 2), (1, t), d)) for t in range(1, d + 1)
    )
    assert total == lower
    # orthogonal rows are unit vectors as well
    total = sum(exact_moment(MomentSpec("o", (1, 1), (t, t), d=d)) for t in range(1, d + 1))
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
        before = exact_moment(MomentSpec("u", rows, cols, crows, ccols, d))
        row_map = dict(zip(names, rng.sample(names, d)))
        col_map = dict(zip(names, rng.sample(names, d)))
        after = exact_moment(MomentSpec(
            "u",
            tuple(row_map[x] for x in rows),
            tuple(col_map[x] for x in cols),
            tuple(row_map[x] for x in crows),
            tuple(col_map[x] for x in ccols),
            d,
        ))
        assert before == after
    for _ in range(8):
        seq_i = tuple(rng.randint(1, 3) for _ in range(4))
        seq_j = tuple(rng.randint(1, 3) for _ in range(4))
        before = exact_moment(MomentSpec("o", seq_i, seq_j, d=d))
        row_map = dict(zip(names, rng.sample(names, d)))
        col_map = dict(zip(names, rng.sample(names, d)))
        after = exact_moment(MomentSpec(
            "o",
            tuple(row_map[x] for x in seq_i),
            tuple(col_map[x] for x in seq_j),
            d=d,
        ))
        assert before == after


def test_index_range_checks():
    # MomentSpec is the one validator: a bad index fails at construction
    with pytest.raises(IndexRangeError, match=r"^cols index 6 outside 1\.\.5$"):
        exact_moment(MomentSpec("u", (1,), (6,), (1,), (1,), 5))
    with pytest.raises(IndexRangeError, match=r"^rows index 0 outside 1\.\.4$"):
        exact_moment(MomentSpec("o", (0, 1), (1, 1), d=4))
    with pytest.raises(IndexRangeError, match=r"^rows index 4 outside 1\.\.3$"):
        exact_moment(MomentSpec("aiii", (1, 4), (1, 1), d=3, dminus=1))
    with pytest.raises(IndexRangeError, match=r"^crows index 5 outside 1\.\.4$"):
        exact_moment(MomentSpec("coe", (1,), (2,), (5,), (1,), 4))


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
    # a nonpositive dimension and a stray dminus are refused, after the index
    # range check, which refuses any index at d < 1 first
    with pytest.raises(ValueError, match=r"^dimension must be positive, got 0$"):
        MomentSpec("o", (), (), d=0)
    with pytest.raises(ValueError, match=r"^dimension must be positive, got -3$"):
        MomentSpec("u", (), (), d=-3)
    with pytest.raises(IndexRangeError, match=r"^rows index 1 outside 1\.\.0$"):
        MomentSpec("u", (1,), (1,), (1,), (1,), d=0)
    with pytest.raises(ValueError, match=r"^family 'u' takes no dminus$"):
        MomentSpec("u", (1,), (1,), (1,), (1,), d=3, dminus=7)
    with pytest.raises(ValueError, match=r"^family 'o' takes no dminus$"):
        MomentSpec("o", (1, 1), (1, 1), d=3, dminus=0)


def test_single_entry_moments_match_closed_forms_at_d8():
    # E|u11|^2k = 1/C(d+k-1, k) and E[o11^2k] = (2k-1)!!/prod_{j<k} (d+2j);
    # a per-term enumeration needs (k!)^2 and ((2k-1)!!)^2 terms here
    d = 8
    for k in range(1, 9):
        ones = (1,) * k
        assert exact_moment(MomentSpec("u", ones, ones, ones, ones, d)) == F(1, comb(d + k - 1, k))
    for k in range(1, 8):
        ones = (1,) * (2 * k)
        want = F(prod(range(1, 2 * k, 2)), prod(d + 2 * j for j in range(k)))
        assert exact_moment(MomentSpec("o", ones, ones, d=d)) == want
    # COE: s11 = sum_j u_j^2 over a column u of U, uniform on the unit sphere
    # of C^d, whose Dirichlet moments give E prod |u_j|^(2 m_j) =
    # (d-1)! prod m_j! / (d-1+sum m)!; so E|s11|^2k = (d-1)!/(d+2k-1)!
    # sum_{|alpha|=k} (k!/alpha!)^2 prod (2 alpha_j)!
    for k in range(1, 7):
        ones = (1,) * k
        total = sum((F(factorial(k), prod(map(factorial, alpha.values())))) ** 2
                    * prod(factorial(2 * m) for m in alpha.values())
                    for alpha in map(Counter, combinations_with_replacement(range(d), k)))
        want = total * F(factorial(d - 1), factorial(d + 2 * k - 1))
        assert exact_moment(MomentSpec("coe", ones, ones, ones, ones, d)) == want
    # A III: s11 = 2B - 1 with B ~ Beta(a, b), a - b = dminus, a + b = d, so
    # E[s11^k] = sum_i C(k,i) 2^i (-1)^(k-i) prod_{t<i} (a+t)/(d+t); level 9 is
    # singular at d = 8, so k = 9 is checked at d = 9
    for k, dim in [*((k, d) for k in range(1, 9)), (9, 9)]:
        ones = (1,) * k
        for dminus in (2, -4):
            a = F(dim + dminus, 2)
            want = sum(comb(k, i) * 2**i * (-1) ** (k - i)
                       * prod((a + t) / (dim + t) for t in range(i)) for i in range(k + 1))
            assert exact_moment(MomentSpec("aiii", ones, ones, d=dim, dminus=dminus)) == want


def _centralizer(mu, scale=1):
    # z_mu = prod i^{m_i} m_i!; scale=2 gives z_{2 mu} = prod (2i)^{m_i} m_i!
    return prod((scale * i) ** m * factorial(m) for i, m in Counter(mu).items())


def test_all_equal_class_counts_match_closed_forms():
    # with every label equal, each class holds a fixed share of the terms:
    # k!/z_mu permutations per cycle type, 2^k k!/z_{2 mu} pairings per coset
    # type, (2k-1)!! row pairings and 2^k k! matchings per COE pairing
    def counts(spec):
        totals = Counter()
        for mu, n in _term_classes(spec):
            totals[mu] += n
        return totals

    for k in range(1, 9):
        ones = (1,) * k
        assert counts(MomentSpec("u", ones, ones, ones, ones, d=k)) == {
            mu: factorial(k) ** 2 // _centralizer(mu) for mu in partitions(k)}
    for k in range(1, 8):
        ones = (1,) * (2 * k)
        assert counts(MomentSpec("o", ones, ones, d=k)) == {
            mu: prod(range(1, 2 * k, 2)) * 2**k * factorial(k) // _centralizer(mu, 2)
            for mu in partitions(k)}
    for k in range(1, 7):
        ones = (1,) * k
        assert counts(MomentSpec("coe", ones, ones, ones, ones, d=k)) == {
            mu: (2**k * factorial(k)) ** 2 // _centralizer(mu, 2) for mu in partitions(k)}
    for k in range(1, 10):
        ones = (1,) * k
        assert counts(MomentSpec("aiii", ones, ones, d=k, dminus=0)) == {
            mu: factorial(k) // _centralizer(mu) for mu in partitions(k)}


def test_moments_below_level_are_refused():
    # E|u11|^2k and E[o11^2k] at d < k exist (1/C(d+k-1,k) and
    # prod (2i+1)/(d+2i)), but the recurrence system is singular or guarded
    # there: until a pseudo-inverse route exists the engine must raise, never
    # return a value
    for k, d in [(2, 1), (3, 2), (3, 1), (4, 2), (4, 3), (4, 1)]:
        ones = (1,) * k
        with pytest.raises(ValueError, match="below level"):
            exact_moment(MomentSpec("u", ones, ones, ones, ones, d))
    for k, d in [(2, 1), (3, 1), (3, 2)]:
        ones = (1,) * (2 * k)
        with pytest.raises(SingularSystemError):
            exact_moment(MomentSpec("o", ones, ones, d=d))


def _orthogonal_pair(m, n, d):
    """W_o(m, n): reduce by the permutation carrying the trivial pairing
    to ``m``, then look up the one-argument function."""
    return wg("o", n.apply(as_permutation(m).inverse()), d)


def _per_term_oracle(spec):
    """The moment's Weingarten sum with one ``wg`` lookup per term, its
    terms found by filtering the whole group or every pairing."""
    d, rows, cols = spec.d, spec.rows, spec.cols
    if spec.family == "u":
        if len(rows) != len(spec.crows):
            return F(0)
        perms = list(all_permutations(len(rows)))
        sigmas = [s for s in perms if delta_sigma(s, rows, spec.crows)]
        taus = [t for t in perms if delta_sigma(t, cols, spec.ccols)]
        return sum((wg("u", s * t.inverse(), d) for s in sigmas for t in taus), F(0))
    if spec.family == "o":
        if len(rows) % 2:
            return F(0)
        pairings = list(all_pair_partitions(len(rows) // 2))
        ms = [m for m in pairings if delta_admissible(m, rows)]
        ns = [n for n in pairings if delta_admissible(n, cols)]
        return sum((_orthogonal_pair(m, n, d) for m in ms for n in ns), F(0))
    if spec.family == "coe":
        i = tuple(x for pair in zip(rows, cols) for x in pair)
        j = tuple(x for pair in zip(spec.crows, spec.ccols) for x in pair)
        if len(i) != len(j):
            return F(0)
        trivial = PairPartition.trivial(len(i) // 2)
        return sum((wg("coe", trivial.apply(s), d) for s in all_permutations(len(i))
                    if delta_sigma(s, i, j)), F(0))
    return sum((wg("aiii", s, d, spec.dminus) for s in all_permutations(len(rows))
                if delta_sigma(s, rows, cols)), F(0))


def _outcome(route, spec):
    try:
        return route(spec)
    except (ValueError, SingularSystemError) as exc:
        return type(exc), str(exc)


def test_exact_moment_matches_per_term_oracle():
    m = parse_pair_partition("1,3|2,4")
    assert _orthogonal_pair(m, m, 5) == wg_class("o", (1, 1), 5)
    assert _orthogonal_pair(PairPartition.trivial(2), m, 4) == F(-1, 72)

    rng = random.Random(80211)

    def draw(n, d):
        return tuple(rng.randint(1, min(d, 3)) for _ in range(n))

    def match(seq, d):
        # most draws permute seq so that terms exist; the rest are free
        return tuple(rng.sample(seq, len(seq))) if rng.random() < 0.75 else draw(len(seq), d)

    specs = []
    for _ in range(40):
        d, k = rng.randint(1, 5), rng.randint(1, 4)
        rows, cols = draw(k, d), draw(k, d)
        specs.append(MomentSpec("u", rows, cols, match(rows, d), match(cols, d), d))
        d, k = rng.randint(1, 5), rng.randint(1, 4)
        rows, cols = match(draw(k, d) * 2, d), match(draw(k, d) * 2, d)
        specs.append(MomentSpec("o", rows, cols, d=d))
        d, k = rng.randint(1, 5), rng.randint(1, 3)
        i = draw(2 * k, d)
        j = match(i, d)
        specs.append(MomentSpec("coe", i[0::2], i[1::2], j[0::2], j[1::2], d))
    for d in range(1, 6):
        for dminus in range(-d, d + 1, 2):
            for k in range(1, 5):
                rows = draw(k, d)
                specs.append(MomentSpec("aiii", rows, match(rows, d), d=d, dminus=dminus))
    # larger mixed labels: each outer set falls into several keys that hold
    # several terms each
    specs.append(MomentSpec("u", (1, 2, 1, 1, 2), (2, 1, 2, 1, 2), (1, 1, 1, 2, 2),
                            (1, 1, 2, 2, 2), 5))
    specs.append(MomentSpec("o", (1, 1, 1, 1, 2, 2, 2, 2), (1, 2, 1, 2, 3, 3, 2, 2), d=4))
    specs.append(MomentSpec("coe", (1, 1, 2), (1, 2, 1), (1, 2, 1), (1, 1, 2), 3))
    # the unitary guard at d < k and the singular orthogonal system at d=1
    # raise the same error through both routes
    specs.append(MomentSpec("u", (1, 1), (1, 1), (1, 1), (1, 1), 1))
    specs.append(MomentSpec("o", (1, 1, 1, 1), (1, 1, 1, 1), d=1))
    outcomes = [(_outcome(exact_moment, s), _outcome(_per_term_oracle, s)) for s in specs]
    for spec, (got, want) in zip(specs, outcomes):
        assert got == want, spec
    assert outcomes[-2][0] == (BelowLevelError, "dimension 1 below level 2")
    assert outcomes[-1][0] == (SingularSystemError, "singular o system at level 2, d=1")
    nonzero = {s.family for s, (got, _) in zip(specs, outcomes) if isinstance(got, F) and got}
    assert nonzero == {"u", "o", "coe", "aiii"}
