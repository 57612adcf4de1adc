"""Reference helpers that only the tests use: rational-function equality,
construction, evaluation and Laurent expansion; evaluation of series
truncations; permutation constructors and brute-force group enumeration;
the delta symbols of the moment sums; minimal path counts; the Dyck-area
report; the class-node lookup; the cache reader; and the
path/monotone-factorization bijection with its brute-force generator."""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from wgcalc.bounds import _minimal_count
from wgcalc.cache import _parse_file
from wgcalc.exact import SeriesTruncation
from wgcalc.graphs import (
    DASHED,
    SOLID,
    ClassNode,
    EdgeStep,
    Element,
    GraphKind,
    Path,
    count_class_paths,
    dashed_target,
    level_nodes,
    solid_targets,
)
from wgcalc.ratfunc import RationalFunctionRep, _normalize_pair, poly_eval, poly_mul, poly_trim
from wgcalc.symcore import PairPartition, Permutation, validate_partition

# ---- rational functions and series --------------------------------------


def from_integer_polys(num: Sequence[int], den: Sequence[int]) -> RationalFunctionRep:
    return RationalFunctionRep(*_normalize_pair(poly_trim([Fraction(c) for c in num]),
                                                poly_trim([Fraction(c) for c in den])))


def equivalent(rep: RationalFunctionRep, num: Sequence, den: Sequence) -> bool:
    """Equality of ``rep`` with ``num/den`` as rational functions (cross-multiplied)."""
    other_num = poly_trim([Fraction(c) for c in num])
    other_den = poly_trim([Fraction(c) for c in den])
    return poly_mul(rep.num, other_den) == poly_mul(other_num, rep.den)


def evaluate_rational(rep: RationalFunctionRep, x) -> Fraction:
    """``rep`` at ``x``; a pole raises :class:`ZeroDivisionError`."""
    denv = poly_eval(rep.den, x)
    if denv == 0:
        raise ZeroDivisionError(f"pole at {x}")
    return poly_eval(rep.num, x) / denv


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


def evaluate_series(st: SeriesTruncation, d: int, dminus: int | None = None) -> Fraction:
    """Partial sum of the truncation ``st`` at an integer dimension."""
    total = Fraction(0)
    if st.family == "aiii":
        if dminus is None:
            raise ValueError("aiii evaluation needs dminus")
        for g, poly in enumerate(st.coefficients):
            n = -st.leading_exponent + g
            val = sum(c * dminus**e for e, c in poly.items())
            total += Fraction(val, d**n)
        return total
    n0 = -st.leading_exponent
    sign = (-1) ** st.element.absolute_length()
    for g, c in enumerate(st.coefficients):
        if st.family == "u":
            total += Fraction(c, d ** (n0 + 2 * g))
        elif st.family == "o":
            total += Fraction(c * (-1) ** g, d ** (n0 + g))
        else:
            total += Fraction(c, (2 * d) ** (n0 + g))
    if st.family == "sp":
        return total
    return sign * total


# ---- permutations, pairings and the moment deltas -----------------------


def identity(k: int) -> Permutation:
    return Permutation(tuple(range(1, k + 1)))


def transposition(k: int, a: int, b: int) -> Permutation:
    """The permutation of ``{1..k}`` swapping ``a`` and ``b``."""
    imgs = list(range(1, k + 1))
    imgs[a - 1], imgs[b - 1] = imgs[b - 1], imgs[a - 1]
    return Permutation(tuple(imgs))


def all_permutations(k: int) -> Iterator[Permutation]:
    """All ``k!`` permutations of ``{1..k}``, in lexicographic image order."""
    for images in itertools.permutations(range(1, k + 1)):
        yield Permutation(images)


def as_permutation(m: PairPartition) -> Permutation:
    """The permutation sending the trivial pairing to ``m``, block order."""
    imgs = [x for b in m.blocks for x in b]
    return Permutation(tuple(imgs))


def strong_admissible_sequence(m: PairPartition) -> tuple[int, ...]:
    """Lexicographically least sequence equal on a pair iff the pair is a block.

    >>> strong_admissible_sequence(PairPartition(((1, 3), (2, 6), (4, 5))))
    (1, 2, 1, 3, 3, 2)
    """
    out: list[int] = []
    for x, mate in enumerate(m.mates):
        out.append(out[mate] if mate < x else max(out, default=0) + 1)
    return tuple(out)


def delta_sigma(sigma: Permutation, i: Sequence[int], iprime: Sequence[int]) -> int:
    if len(i) != len(iprime):
        raise ValueError("sequences must have equal length")
    if len(i) != sigma.level:
        raise ValueError("sequence length must match the permutation level")
    return int(all(i[sigma(r) - 1] == iprime[r - 1] for r in range(1, len(i) + 1)))


def delta_admissible(m: PairPartition, i: Sequence[int]) -> int:
    """1 iff every block of ``m`` pairs equal entries of ``i``."""
    if len(i) != 2 * m.level:
        raise ValueError("sequence length must be twice the pairing level")
    return int(all(i[a - 1] == i[b - 1] for a, b in m.blocks))


def strongly_admissible(m: PairPartition, i: Sequence[int]) -> int:
    """1 iff blocks pair equal entries and distinct blocks carry distinct values."""
    if not delta_admissible(m, i):
        return 0
    values = [i[a - 1] for a, _ in m.blocks]
    return int(len(set(values)) == len(values))


# ---- minimal path counts and the Dyck-area report -----------------------


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


# ---- graphs and the cache file ------------------------------------------


def class_node(kind: GraphKind, mu: tuple[int, ...]) -> ClassNode:
    """The node of class ``mu``, looked up in its level's ``level_nodes``.

    >>> class_node(GraphKind.UNITARY, (2, 1))
    ClassNode(solid=(((3,), 2),), dashed=(2,), squiggled=None)
    >>> class_node(GraphKind.ORTHOGONAL, (2, 1))
    ClassNode(solid=(((3,), 4),), dashed=(2,), squiggled=None)
    """
    mu = validate_partition(mu)
    return level_nodes(kind, sum(mu))[mu]


def path_nodes(path: Path) -> tuple[Element, ...]:
    """Every vertex ``path`` visits, its start first."""
    return (path.start,) + tuple(s.target for s in path.steps)


def load_cache(path: str) -> dict[tuple, Fraction]:
    """Validated cache contents keyed by (tag, level, class, dims)."""
    return {key: value for key, (value, _) in _parse_file(path).items()}


# ---- the path / monotone-factorization bijection ------------------------


@dataclass(frozen=True)
class MonotoneFactorization:
    """Transpositions ``(s_1,t_1)...(s_l,t_l)`` with ``s_i < t_i`` and weakly
    decreasing ``t_i``, multiplying (leftmost applied last) to a permutation,
    or acting on the trivial pairing in the orthogonal variant where every
    ``t_i`` is an odd position ``2r-1``.
    """

    kind: GraphKind
    level: int
    transpositions: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.kind is GraphKind.AIII:
            raise ValueError("monotone factorizations are defined for the unitary and orthogonal graphs")
        ts = [t for _, t in self.transpositions]
        if any(ts[i] < ts[i + 1] for i in range(len(ts) - 1)):
            raise ValueError(f"second components must weakly decrease: {self.transpositions}")
        n_points = 2 * self.level if self.kind is GraphKind.ORTHOGONAL else self.level
        for s, t in self.transpositions:
            if not (1 <= s < t <= n_points):
                raise ValueError(f"bad transposition ({s},{t}) on {n_points} points")
            if self.kind is GraphKind.ORTHOGONAL and t % 2 == 0:
                raise ValueError(f"orthogonal factors need odd second components: ({s},{t})")

    def product(self) -> Permutation:
        n_points = 2 * self.level if self.kind is GraphKind.ORTHOGONAL else self.level
        acc = identity(n_points)
        for s, t in self.transpositions:
            acc = acc * transposition(n_points, s, t)
        return acc

    def target(self) -> Element:
        """The permutation (or pairing, via action on the trivial one) produced."""
        prod = self.product()
        if self.kind is GraphKind.ORTHOGONAL:
            return PairPartition.trivial(self.level).apply(prod)
        return prod


def path_to_factorization(path: Path) -> MonotoneFactorization:
    return MonotoneFactorization(path.kind, path.start.level, path.solid_transpositions())


def factorization_to_path(f: MonotoneFactorization) -> Path:
    """Rebuild the unique path whose solid steps carry ``f``'s transpositions.

    Walks from ``f.target()``: each factor ``(s,t)`` forces dashed descents
    until its level is reached, then a solid step with index ``s``; the
    remainder descends dashed to the empty object.  Raises ``ValueError``
    when the walk gets stuck, which happens exactly when the sequence is not
    realizable (e.g. a factor below a level whose top cannot be dropped).
    """
    kind = f.kind
    start = f.target()
    cur = start
    steps: list[EdgeStep] = []

    def descend_once() -> None:
        nonlocal cur
        down = dashed_target(kind, cur)
        if down is None:
            raise ValueError("factorization does not correspond to a path: stuck descent")
        steps.append(EdgeStep(DASHED, None, down))
        cur = down

    for s, t in f.transpositions:
        want_level = (t + 1) // 2 if kind is GraphKind.ORTHOGONAL else t
        while cur.level > want_level:
            descend_once()
        if cur.level != want_level:
            raise ValueError(f"factor ({s},{t}) sits above the current level {cur.level}")
        nxt = solid_targets(kind, cur)[s - 1]
        steps.append(EdgeStep(SOLID, s, nxt, t))
        cur = nxt
    while cur.level > 0:
        descend_once()
    return Path(kind, start, tuple(steps))


def enumerate_monotone_factorizations(
    kind: GraphKind, level: int, length: int
) -> Iterator[MonotoneFactorization]:
    """Brute-force generator of every monotone sequence of given length.

    Deliberately independent of the path machinery: the tests' oracle for
    the bijection, in the order ``wg factorizations`` lists.  Small levels only.
    """
    if kind is GraphKind.ORTHOGONAL:
        choices = [
            (s, 2 * r - 1) for r in range(1, level + 1) for s in range(1, 2 * r - 1)
        ]
    else:
        choices = [(s, t) for t in range(1, level + 1) for s in range(1, t)]

    def rec(prefix: tuple, remaining: int, max_t: int):
        if remaining == 0:
            yield MonotoneFactorization(kind, level, prefix)
            return
        for s, t in choices:
            if t <= max_t:
                yield from rec(prefix + ((s, t),), remaining - 1, t)

    yield from rec((), length, 10 ** 9)
