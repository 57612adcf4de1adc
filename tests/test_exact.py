import functools
import hashlib
import warnings
from fractions import Fraction as F

import pytest
from oracles import all_permutations, equivalent, evaluate_rational, evaluate_series, identity

from wgcalc import exact
from wgcalc.exact import (
    SingularSystemError,
    clear_caches,
    reconstruct_rational,
    series,
    wg,
    wg_class,
    wg_coe_direct,
)
from wgcalc.graphs import (
    GraphKind,
    dashed_target,
    solid_neighbors,
    squiggled_target,
)
from wgcalc.ratfunc import poly_eval
from wgcalc.symcore import (
    PairPartition,
    Permutation,
    all_pair_partitions,
    class_representative,
    coset_representative,
    parse_pair_partition,
    parse_permutation,
    partitions,
)


def test_unitary_closed_forms():
    for d in (2, 3, 5, 9):
        assert wg_class("u", (1,), d) == F(1, d)
    for d in (3, 5, 9):
        assert wg_class("u", (1, 1), d) == F(1, d * d - 1)
        assert wg_class("u", (2,), d) == F(-1, d * (d * d - 1))
    assert wg_class("u", (1, 1), 5) == F(1, 24)
    assert wg_class("u", (2,), 3) == F(-1, 24)
    assert wg("u", parse_permutation("2,1"), 2) == F(-1, 6)
    assert wg("u", parse_permutation("2,3,1"), 3) == F(1, 60)


def test_orthogonal_closed_forms():
    for d in (3, 5, 8):
        assert wg_class("o", (1,), d) == F(1, d)
        assert wg_class("o", (1, 1), d) == F(d + 1, (d + 2) * d * (d - 1))
        assert wg_class("o", (2,), d) == F(-1, (d + 2) * d * (d - 1))
    assert wg("o", parse_pair_partition("1,2|3,4"), 4) == F(5, 72)
    assert wg("o", parse_pair_partition("1,3|2,4"), 4) == F(-1, 72)


def test_coe_closed_forms():
    for d in (2, 3, 7):
        assert wg_class("coe", (1,), d) == F(1, d + 1)
        assert wg_class("coe", (1, 1), d) == F(d + 2, (d + 3) * (d + 1) * d)
    assert wg("coe", parse_pair_partition("1,2|3,4"), 3) == F(5, 72)


def test_symplectic_closed_forms():
    for d in (1, 2, 3):
        assert wg_class("sp", (1,), d) == F(1, 2 * d)
    for d in (2, 3):
        q = (2 * d - 2) * 2 * d * (2 * d + 1)
        assert wg_class("sp", (1, 1), d) == F(2 * d - 1, q)
    assert wg("sp", parse_pair_partition("1,2|3,4"), 2) == F(3, 40)
    assert wg("sp", parse_pair_partition("1,3|2,4"), 2) == F(1, 40)


def test_aiii_closed_forms():
    for d, dm in ((3, 1), (4, 2), (5, 0), (6, 6)):
        assert wg_class("aiii", (1,), d, dm) == F(dm, d)
        assert wg_class("aiii", (1, 1), d, dm) == F(dm * dm - 1, d * d - 1)
        assert wg_class("aiii", (2,), d, dm) == F(d * d - dm * dm, d * (d * d - 1))
    assert wg("aiii", parse_permutation("2,1"), 4, 2) == F(1, 5)


def test_unitary_recurrence_residual_elementwise():
    # the recurrence that defined the solve must hold for raw elements, not
    # just the class representatives it was assembled from
    d = 7
    lookup = functools.partial(wg, "u", d=d)
    kind = GraphKind.UNITARY
    for k in range(1, 5):
        for sigma in all_permutations(k):
            lhs = d * lookup(sigma)
            rhs = -sum(lookup(step.target) for step in solid_neighbors(kind, sigma))
            down = dashed_target(kind, sigma)
            if down is not None:
                rhs += lookup(down)
            assert lhs == rhs, sigma


def test_orthogonal_recurrence_residual_elementwise():
    d = 5
    lookup = functools.partial(wg, "o", d=d)
    kind = GraphKind.ORTHOGONAL
    for k in range(1, 4):
        for m in all_pair_partitions(k):
            lhs = d * lookup(m)
            rhs = -sum(lookup(step.target) for step in solid_neighbors(kind, m))
            down = dashed_target(kind, m)
            if down is not None:
                rhs += lookup(down)
            assert lhs == rhs, m


def test_aiii_recurrence_residual_elementwise():
    d, dm = 5, 2
    lookup = functools.partial(wg, "aiii", d=d, dminus=dm)
    kind = GraphKind.AIII
    for k in range(1, 5):
        for sigma in all_permutations(k):
            lhs = d * lookup(sigma)
            rhs = -sum(lookup(step.target) for step in solid_neighbors(kind, sigma))
            down, flat = dashed_target(kind, sigma), squiggled_target(kind, sigma)
            if down is not None:
                rhs += dm * lookup(down)
            elif flat is not None:
                rhs += lookup(flat)
            assert lhs == rhs, sigma


def test_coe_direct_matches_shifted_orthogonal():
    for d in (2, 3):
        for k in range(1, 4):
            for m in all_pair_partitions(k):
                assert wg_coe_direct(m, d) == wg("coe", m, d), (m, d)


def _base_family(fam: exact.Family) -> str:
    """The family solved on ``fam``'s graph at ``d`` itself."""
    return next(name for name, base in exact.FAMILIES.items()
                if base.kind is fam.kind and (base.scale, base.shift) == (1, 0))


@pytest.mark.parametrize("name", [name for name, fam in exact.FAMILIES.items()
                                  if (fam.scale, fam.shift) != (1, 0)])
def test_a_dimension_map_moves_values_and_denominators_alike(name):
    # Wg and its denominator Q of a family with a dimension map are those of
    # its base graph at scale*d + shift (the value's absolute value when the
    # scale is negative); Q is checked at more points than its degree
    fam = exact.FAMILIES[name]
    base = _base_family(fam)
    for k in range(1, 6):
        den, base_den = exact.wg_denominator(name, k), exact.wg_denominator(base, k)
        assert len(den) == len(base_den)
        for d in range(1, len(den) + 2):
            assert poly_eval(den, d) == poly_eval(base_den, fam.scale * d + fam.shift), (k, d)
        for d in range(1, 7):
            dminus = d % 2 if fam.takes_dminus else None
            for mu in partitions(k):
                outcomes = []
                for family, dim in ((name, d), (base, fam.scale * d + fam.shift)):
                    try:
                        outcomes.append(wg_class(family, mu, dim, dminus))
                    except SingularSystemError:
                        outcomes.append("singular")
                value, at_base = outcomes
                if fam.scale < 0 and at_base != "singular":
                    at_base = abs(at_base)
                assert value == at_base, (mu, d)


def test_unitary_sign_law():
    # sign is (-1)^(absolute length) once d reaches the level
    from wgcalc.symcore import partitions

    for k in range(1, 6):
        for d in (k, k + 3):
            for mu in (mu for j in range(k + 1) for mu in partitions(j)):
                val = wg_class("u", mu, d)
                n = sum(mu) - len(mu)
                assert val != 0
                assert (val > 0) == (n % 2 == 0), (mu, d)


def test_orthogonal_sign_law_spot():
    from wgcalc.symcore import partitions

    for k in range(1, 4):
        d = 2 * k
        for mu in (mu for j in range(1, k + 1) for mu in partitions(j)):
            val = wg_class("o", mu, d)
            n = sum(mu) - len(mu)
            assert val != 0
            assert (val > 0) == (n % 2 == 0), (mu, d)


def test_full_cycle_magnitude():
    # a k-cycle evaluates to a Catalan number over a rising product
    import math

    for k in range(1, 6):
        d = 7
        cat = math.comb(2 * (k - 1), k - 1) // k
        denom = 1
        for j in range(d - k + 1, d + k):
            denom *= j
        expected = F((-1) ** (k - 1) * cat, denom)
        assert wg_class("u", (k,), d) == expected


def test_dimension_guards():
    with pytest.raises(exact.BelowLevelError) as below:
        wg_class("u", (3,), 2)
    assert isinstance(below.value, ValueError)
    assert (below.value.d, below.value.k) == (2, 3)
    with pytest.raises(ValueError):
        wg_class("u", (2, 1), 2)
    # singular at -k < d < k, no ensemble at d <= -k: refused before any solve
    clear_caches()
    for mu, d in (((1, 1), 1), ((1,), 0), ((2,), -5)):
        with pytest.raises(exact.BelowLevelError, match=f"^dimension {d} below level {sum(mu)}$"):
            wg_class("u", mu, d)
    assert exact._level.cache_info().currsize == 0
    assert wg_class("u", (1, 1), 2) == F(1, 3)


def test_refused_dimensions_raise_dimension_error():
    assert issubclass(exact.BelowLevelError, exact.DimensionError)
    assert issubclass(exact.DimensionError, ValueError)
    assert not issubclass(SingularSystemError, ValueError)
    for family, mu, d in (("coe", (1,), 0), ("sp", (1,), -1), ("aiii", (1,), 0), ("u", (2,), 1)):
        with pytest.raises(exact.DimensionError):
            wg_class(family, mu, d, 0 if family == "aiii" else None)
    with pytest.raises(exact.DimensionError, match="^COE dimension must be positive, got 0$"):
        wg_coe_direct(parse_pair_partition("1,2"), 0)


@pytest.mark.parametrize("mu", [(1, 2), (2, 0), (3, -1)])
def test_malformed_class_is_refused_before_any_solve(mu):
    clear_caches()
    with pytest.raises(ValueError, match="partition parts must be"):
        wg_class("u", mu, 5)
    assert exact._level.cache_info().currsize == 0


@pytest.mark.parametrize("mu, text", [
    ((1, 2), "partition parts must be weakly decreasing: (1, 2)"),
    ((3, 3, 4, 1), "partition parts must be weakly decreasing: (3, 3, 4, 1)"),
    ((2, 0), "partition parts must be positive: (2, 0)"),
    ((0,), "partition parts must be positive: (0,)"),
    # breaks both rules: positivity is reported first
    ((1, 2, -1), "partition parts must be positive: (1, 2, -1)"),
    ((3, -1, 2), "partition parts must be positive: (3, -1, 2)"),
])
def test_malformed_class_refusal_texts_are_pinned(mu, text):
    with pytest.raises(ValueError) as info:
        wg_class("u", mu, 9)
    assert str(info.value) == text


def test_orthogonal_singular_dimension():
    with pytest.raises(SingularSystemError) as info:
        wg_class("o", (1, 1), 1)
    assert info.value.family == "o"
    assert info.value.level == 2
    with pytest.raises(SingularSystemError):
        wg_class("sp", (1, 1), 1)
    with pytest.raises(ValueError):
        wg_class("sp", (1,), 0)


def test_singular_levels_refused_and_lower_levels_kept():
    # the unitary table refuses d < k at each level and keeps level 1 at
    # d=1; the orthogonal table at d=1 hits an exactly singular level-2
    # system and keeps level 1
    with pytest.raises(exact.BelowLevelError):
        wg_class("u", (3,), 1)
    assert wg_class("u", (1,), 1) == 1
    with pytest.raises(SingularSystemError) as info:
        wg_class("o", (4,), 1)
    assert (info.value.family, info.value.level, info.value.d) == ("o", 2, 1)
    assert wg_class("o", (1,), 1) == 1
    # no COE ensemble has d < 1: both COE routes refuse it alike
    for d in (0, -1, -2, -3):
        with pytest.raises(ValueError, match=f"COE dimension must be positive, got {d}"):
            wg("coe", PairPartition.trivial(2), d)
        with pytest.raises(ValueError, match=f"COE dimension must be positive, got {d}"):
            wg_coe_direct(PairPartition.trivial(2), d)
    # at d=1 the element-level COE system is singular where the class one is
    with pytest.raises(SingularSystemError) as info:
        wg_coe_direct(PairPartition.trivial(3), 1)
    assert (info.value.family, info.value.level, info.value.d) == ("coe", 3, 1)


def test_shifted_routes_raise_with_the_callers_family_and_dimension():
    # COE runs the orthogonal system at d+1 and sp at -2d, but a singular
    # level is reported against the family and dimension asked for
    with pytest.raises(SingularSystemError) as info:
        wg("coe", PairPartition.trivial(3), 1)
    assert (info.value.family, info.value.level, info.value.d) == ("coe", 3, 1)
    assert str(info.value) == "singular coe system at level 3, d=1"
    with pytest.raises(SingularSystemError) as info:
        wg_class("sp", (1, 1), 1)
    assert (info.value.family, info.value.level, info.value.d) == ("sp", 2, 1)
    # the orthogonal memo the routes share still reports itself as o
    with pytest.raises(SingularSystemError) as info:
        wg_class("o", (2,), 1)
    assert (info.value.family, info.value.d) == ("o", 1)


def test_family_route_argument_checks():
    with pytest.raises(ValueError, match="unknown family"):
        wg_class("q", (1,), 3)
    with pytest.raises(ValueError, match="unknown family"):
        wg("q", identity(1), 3)
    with pytest.raises(ValueError, match="takes no dminus"):
        wg_class("u", (1,), 3, dminus=1)
    with pytest.raises(ValueError, match="needs dminus"):
        wg_class("aiii", (1,), 3)
    with pytest.raises(TypeError):
        wg("u", PairPartition.trivial(1), 3)
    with pytest.raises(TypeError):
        wg("coe", identity(1), 3)
    # the element-level route refuses a non-pairing as wg("coe", ...) does
    for elem in (Permutation((2, 1)), (2, 1)):
        with pytest.raises(TypeError, match="o graph vertices are pair partitions, got "):
            wg_coe_direct(elem, 3)
    with pytest.raises(ValueError, match="needs dminus"):
        reconstruct_rational("aiii", identity(1))
    with pytest.raises(ValueError, match="unknown family"):
        reconstruct_rational("q", identity(1))


def test_aiii_signature_warning():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        wg_class("aiii", (1,), 3, 5)
    assert any("signature" in str(w.message) for w in caught)


def test_table_lookup():
    # one element lookup caches the unitary levels 0..3 at d=5, each holding
    # every class of its level, and nothing else
    clear_caches()
    value = wg("u", parse_permutation("2,3,1"), 5)
    assert exact._level.cache_info().currsize == 4
    assert [set(exact._level(GraphKind.UNITARY, 5, None, j)) for j in range(4)] == [
        {()},
        {(1,)},
        {(1, 1), (2,)},
        {(1, 1, 1), (2, 1), (3,)},
    ]
    assert value == wg_class("u", (3,), 5)
    assert wg("u", identity(3), 5) == wg_class("u", (1, 1, 1), 5)


def test_series_unitary():
    t = parse_permutation("2,1")
    s = series("u", t, 3)
    assert s.leading_exponent == -3
    assert s.coefficients == (1, 1, 1, 1)
    # -1/(d^3 - d) is the geometric sum of exactly these terms
    assert evaluate_series(s, 5) == -(F(1, 125) + F(1, 5**5) + F(1, 5**7) + F(1, 5**9))
    ident = identity(2)
    s2 = series("u", ident, 2)
    assert s2.leading_exponent == -2
    assert s2.coefficients == (1, 1, 1)


def test_series_orthogonal_and_symplectic():
    m = parse_pair_partition("1,3|2,4")
    s = series("o", m, 2)
    assert s.leading_exponent == -3
    assert s.coefficients == (1, 1, 3)
    # truncation with alternating signs: -(1/d^3 - 1/d^4 + 3/d^5)
    assert evaluate_series(s, 10) == -(F(1, 1000) - F(1, 10**4) + F(3, 10**5))
    one = PairPartition.trivial(1)
    sp = series("sp", one, 4)
    assert sp.leading_exponent == -1
    assert sp.coefficients == (1, 0, 0, 0, 0)
    assert evaluate_series(sp, 3) == F(1, 6)


def test_series_aiii():
    t = parse_permutation("2,1")
    s = series("aiii", t, 2)
    assert s.leading_exponent == -1
    assert s.coefficients == ({0: 1}, {}, {0: 1, 2: -1})
    assert evaluate_series(s, 5, 2) == F(1, 5) + F(1 - 4, 125)
    ident = identity(2)
    s2 = series("aiii", ident, 0)
    assert s2.leading_exponent == -2
    assert s2.coefficients == ({0: -1, 2: 1},)
    with pytest.raises(ValueError):
        evaluate_series(s2, 5)


def test_series_argument_checks():
    with pytest.raises(TypeError):
        series("u", PairPartition.trivial(2), 1)
    with pytest.raises(TypeError):
        series("o", identity(2), 1)
    with pytest.raises(ValueError):
        series("coe", PairPartition.trivial(2), 1)
    with pytest.raises(ValueError):
        series("u", identity(2), -1)


def test_reconstruct_closed_forms():
    rep = reconstruct_rational("u", parse_permutation("2,1"))
    assert equivalent(rep, [-1], [0, -1, 0, 1])
    rep = reconstruct_rational("o", PairPartition.trivial(2))
    assert equivalent(rep, [1, 1], [0, -2, 1, 1])
    rep = reconstruct_rational("coe", PairPartition.trivial(1))
    assert equivalent(rep, [1], [1, 1])
    rep = reconstruct_rational("sp", PairPartition.trivial(1))
    assert equivalent(rep, [1], [0, 2])
    rep = reconstruct_rational("aiii", parse_permutation("2,1"), dminus=1)
    assert equivalent(rep, [1], [0, 1])
    rep = reconstruct_rational("aiii", parse_permutation("2,1"), dminus=0)
    assert equivalent(rep, [0, 0, 1], [0, -1, 0, 1])
    with pytest.raises(ValueError):
        reconstruct_rational("aiii", parse_permutation("2,1"))
    with pytest.raises(ValueError):
        reconstruct_rational("x", parse_permutation("2,1"))


def _closed_form_cases():
    for k in range(1, 6):
        for mu in partitions(k):
            yield "u", class_representative(mu), None
            if k <= 4:
                yield "o", coset_representative(mu), None
                yield from (("aiii", class_representative(mu), dm) for dm in (-1, 0, 1, 2))
            if k <= 3:
                yield "coe", coset_representative(mu), None
                yield "sp", coset_representative(mu), None


@pytest.mark.filterwarnings("ignore:.*exceeds d")
def test_closed_forms_agree_with_wg_outside_the_fit_window():
    # the fit samples d >= 2k+1 only: check the smallest dimension below it
    # that wg accepts, and one far above
    for family, elem, dminus in _closed_form_cases():
        rep = reconstruct_rational(family, elem, dminus)
        value = None
        for d in range(1, 2 * elem.level + 1):
            try:
                value = wg(family, elem, d, dminus)
            except (ValueError, SingularSystemError):
                continue
            assert evaluate_rational(rep, d) == value, (family, elem, dminus, d)
            break
        assert value is not None, (family, elem, dminus)
        assert evaluate_rational(rep, 97) == wg(family, elem, 97, dminus), (family, elem, dminus)


def test_series_matches_exact_at_large_dimension():
    # the truncation error must be governed by the first omitted term: between
    # half of it and twice it at dimensions comfortably past the level
    from wgcalc.graphs import GraphKind, count_paths

    t = parse_permutation("2,3,1")
    order = 4
    s = series("u", t, order)
    n = t.absolute_length()
    c_next = count_paths(GraphKind.UNITARY, t, n + 2 * (order + 1))
    for d in (9, 12):
        tail = abs(wg("u", t, d) - evaluate_series(s, d))
        exp = -s.leading_exponent + 2 * (order + 1)
        assert F(c_next, 2 * d**exp) < tail < F(2 * c_next, d**exp)
    m = parse_pair_partition("1,4|2,3|5,6")
    order = 5
    so = series("o", m, order)
    c_next = count_paths(GraphKind.ORTHOGONAL, m, m.absolute_length() + order + 1)
    for d in (9, 12):
        tail = abs(wg("o", m, d) - evaluate_series(so, d))
        exp = -so.leading_exponent + order + 1
        assert F(c_next, 2 * d**exp) < tail < F(2 * c_next, d**exp)


# SHA-256 of every solved level on the grid of _pinned_levels, taken before
# the solver's heap pivots and integer back-substitution
LEVEL_DIGEST = "1c663ab60c040619f2fcc1bdf06753364e7c1d591b480340f079a2596e8bcc58"


def _pinned_levels():
    """``u`` at k <= 12 and d in {k, k+5}; ``o``, ``coe`` (o at d+1), ``sp``
    (o at -2d) and ``aiii`` at dminus in {-1, 0, 2}, all at k <= 9 and d in
    {k, k+5}."""
    U, O, A3 = GraphKind.UNITARY, GraphKind.ORTHOGONAL, GraphKind.AIII
    for k in range(1, 13):
        for d in (k, k + 5):
            yield U, d, None, k
    for k in range(1, 10):
        for d in (k, k + 5):
            yield O, d, None, k
            yield O, d + 1, None, k
            yield O, -2 * d, None, k
            for dminus in (-1, 0, 2):
                yield A3, d, dminus, k


def test_level_values_are_pinned():
    clear_caches()
    digest = hashlib.sha256()
    for key in _pinned_levels():
        try:
            entries = list(exact._level(*key).items())
        except SingularSystemError:
            entries = "singular"
        digest.update(repr((key[0].value,) + key[1:] + (entries,)).encode())
    assert digest.hexdigest() == LEVEL_DIGEST


def test_clear_caches_roundtrip():
    v = wg_class("u", (2, 1), 6)
    clear_caches()
    assert wg_class("u", (2, 1), 6) == v


def _assert_bounded(memo, cap, probe, flood):
    """Flooding ``memo`` past ``cap`` entries keeps it at ``cap`` and evicts
    ``probe``'s entries; the recomputed ``probe`` equals its fresh value."""
    memo.cache_clear()
    fresh = probe()
    flood()
    assert memo.cache_info().currsize == cap
    misses = memo.cache_info().misses
    assert probe() == fresh
    assert memo.cache_info().misses > misses


def test_memos_stay_bounded_over_many_dimensions():
    dims = range(11, 11 + exact.LEVEL_CAP + 50)
    _assert_bounded(exact._level, exact.LEVEL_CAP,
                    lambda: (wg_class("u", (2, 1), 10), wg_class("aiii", (2, 1), 10, 3)),
                    lambda: [wg_class("u", (1,), d) for d in dims])
    pairing = parse_pair_partition("1,3|2,4")
    _assert_bounded(exact._coe_level, exact.LEVEL_CAP, lambda: wg_coe_direct(pairing, 10),
                    lambda: [wg_coe_direct(PairPartition.trivial(1), d) for d in dims])
