"""Haar-measure moments of matrix entries via Weingarten convolution.

Entry monomials are described by index sequences and evaluated as finite
sums of Weingarten values:

* unitary:    ``E[prod u(i_r,j_r) prod conj(u(i'_s,j'_s))]
              = sum_{sigma,tau} delta_sigma(i,i') delta_tau(j,j')
              W_u(sigma tau^-1)``
* orthogonal: ``E[prod o(i_r,j_r)] = sum_{m,n} Delta_m(i) Delta_n(j)
              W_o(m,n)`` over pair partitions of the 2k factor slots
* COE:        ``E[s(i1,i2)..s(i_{2k-1},i_{2k}) conj(s(j1,j2)..)]
              = sum_{sigma in S_2k} delta_sigma(i,j) W_coe(sigma.e_k)``
* A III:      ``E[prod s(i_r,j_r)] = sum_sigma delta_sigma(i,j)
              W_aiii(sigma)``

``delta_sigma(i,j) = 1`` iff ``i[sigma(r)] == j[r]`` for every slot,
``Delta_m(i) = 1`` iff every block of ``m`` joins equal indices, and
``W_o(m,n)`` is ``W_o`` of ``m^-1 . n``.  The sums are pruned by matching
equal-value position groups instead of enumerating the full symmetric
group.  Outer matchings that meet the same classes are walked once and
share one representative, kept per key: a unitary sigma by the word
``ccols . sigma^-1``, an orthogonal row pairing by the multiset of
column-label pairs over its blocks, a COE sigma by the pairing
``sigma . e_k``.  Wg is a class function, so :func:`exact_moment` counts
the terms of each class and looks each class up once.  :class:`MomentSpec`
is the one validator of a moment request.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .exact import wg_class
from .symcore import PairPartition, Permutation, act, pair_partitions

Indices = tuple[int, ...]
INDEX_FIELDS = ("rows", "cols", "crows", "ccols")


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


def _matchings(source: Sequence[int], target: Sequence[int]) -> Iterator[Indices]:
    """The one-line images of all sigma with source[sigma(r)] == target[r],
    as products of per-value bijections between position groups."""
    k = len(source)
    if k != len(target):
        return
    src_groups: dict[int, list[int]] = {}
    tgt_groups: dict[int, list[int]] = {}
    for pos, v in enumerate(source, 1):
        src_groups.setdefault(v, []).append(pos)
    for pos, v in enumerate(target, 1):
        tgt_groups.setdefault(v, []).append(pos)
    if set(src_groups) != set(tgt_groups):
        return
    values = sorted(src_groups)
    if any(len(src_groups[v]) != len(tgt_groups[v]) for v in values):
        return
    choices = [itertools.permutations(src_groups[v]) for v in values]
    for combo in itertools.product(*choices):
        images = [0] * k
        for v, assigned in zip(values, combo):
            for r, s in zip(tgt_groups[v], assigned):
                images[r - 1] = s
        yield tuple(images)


def _representatives(items: Iterable, key: Callable) -> Iterable[list]:
    """One ``[first item, number of items]`` pair per key of ``items``."""
    reps: dict = {}
    for item in items:
        reps.setdefault(key(item), [item, 0])[1] += 1
    return reps.values()


class IndexRangeError(ValueError):
    """An entry index outside ``1..d``; ``field`` names its index list."""

    def __init__(self, field: str, index: int, d: int):
        self.field = field
        self.reason = f"index {index} outside 1..{d}"
        super().__init__(f"{field} {self.reason}")


@dataclass(frozen=True)
class MomentSpec:
    """One entry-monomial moment: which family, which indices, which dimensions.

    ``rows``/``cols`` hold the plain factors' indices, ``crows``/``ccols``
    the conjugated factors' where the family has them (unitary and COE).
    Construction is the one place a moment is validated: every index must
    lie in ``1..d``, ``d`` must be positive, and only A III takes (and
    needs) ``dminus``.
    """

    family: str
    rows: Indices
    cols: Indices
    crows: Indices = ()
    ccols: Indices = ()
    d: int = 2
    dminus: int | None = None

    def __post_init__(self):
        if self.family not in ("u", "o", "coe", "aiii"):
            raise ValueError(f"unknown moment family {self.family!r}")
        for field in INDEX_FIELDS:
            for v in getattr(self, field):
                if not 1 <= v <= self.d:
                    raise IndexRangeError(field, v, self.d)
        # after the range check, which already refuses any index at d < 1
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if self.family != "aiii" and self.dminus is not None:
            raise ValueError(f"family {self.family!r} takes no dminus")
        if len(self.rows) != len(self.cols) or len(self.crows) != len(self.ccols):
            raise ValueError("row and column index lists must pair up")
        if self.family in ("o", "aiii") and self.crows:
            raise ValueError(f"family {self.family!r} takes no conjugated factors")
        if self.family == "aiii" and self.dminus is None:
            raise ValueError("aiii moments need dminus")


def _term_classes(spec: MomentSpec) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(class, number of terms)`` pairs that cover the nonzero terms of the
    spec's Weingarten sum; a class may recur.

    Unitary terms pair the row matchings sigma with the column matchings
    tau and fall in the cycle type of ``sigma tau^-1``.  For ``h`` in
    Stab(ccols), ``h tau^-1`` runs over the ``tau^-1`` again, so every sigma
    of one coset ``sigma Stab(ccols)``, named by the word
    ``ccols . sigma^-1``, meets the same classes: one representative per
    word pairs with the taus.  Orthogonal terms pair row with column
    pairings ``m, n`` and fall in the coset type of ``m^-1 . n``.  Row
    pairings with one multiset of column-label pairs ``{cols[a], cols[b]}``
    over their blocks differ by an ``h`` in Stab(cols), which permutes the
    column pairings, so one representative per multiset pairs with them.
    COE terms are the matchings sigma of the interleaved index pairs, in
    the coset type of the pairing ``sigma . e_k``, classified once per
    distinct pairing.  A III terms are the matchings sigma themselves.

    >>> list(_term_classes(MomentSpec("u", (1, 1), (1, 1), (1, 1), (1, 1), d=3)))
    [((1, 1), 2), ((2,), 2)]
    """
    if spec.family == "u":
        # an unbalanced monomial (zero by phase invariance) has no tau either,
        # so no sigma is enumerated
        tau_inverses = [Permutation(t).inverse() for t in _matchings(spec.cols, spec.ccols)]
        if not tau_inverses:
            return
        ccols = spec.ccols
        for sigma, n in _representatives(
                _matchings(spec.rows, spec.crows),
                lambda s: tuple(ccols[r] for r in sorted(range(len(s)), key=s.__getitem__))):
            sigma = Permutation(sigma)
            for tau_inverse in tau_inverses:
                yield (sigma * tau_inverse).cycle_type(), n
    elif spec.family == "o":
        rows, cols = spec.rows, spec.cols
        # an odd number of factors has no pairings, so it integrates to zero
        col_pairings = list(pair_partitions(cols))
        if not col_pairings:
            return
        # labels with one equality pattern have the same pairings, in order
        same_pattern = [cols.index(c) for c in cols] == [rows.index(r) for r in rows]
        for m, n in _representatives(
                col_pairings if same_pattern else pair_partitions(rows),
                lambda m: tuple(sorted(tuple(sorted((cols[a - 1], cols[b - 1])))
                                       for a, b in m.blocks))):
            m_inverse = m.as_permutation().inverse()
            for col_pairing in col_pairings:
                yield act(m_inverse, col_pairing).coset_type(), n
    elif spec.family == "coe":
        i = tuple(x for pair in zip(spec.rows, spec.cols) for x in pair)
        j = tuple(x for pair in zip(spec.crows, spec.ccols) for x in pair)
        trivial = PairPartition.trivial(len(i) // 2)
        for sigma, n in _representatives(
                _matchings(i, j),
                lambda s: tuple(sorted(tuple(sorted(p)) for p in zip(s[0::2], s[1::2])))):
            yield act(Permutation(sigma), trivial).coset_type(), n
    else:
        for sigma in _matchings(spec.rows, spec.cols):
            yield Permutation(sigma).cycle_type(), 1


def exact_moment(spec: MomentSpec) -> Fraction:
    """Exact mean of the spec's entry monomial.

    Wg is a class function, so the Weingarten sum is, over the classes of
    :func:`_term_classes`, the number of terms in each class times one
    :func:`wgcalc.exact.wg_class` lookup.  The terms are counted, not
    visited: only one representative per key of the outer set pairs with
    the inner set (unitary sigma keyed by ``ccols . sigma^-1``, orthogonal
    row pairings by their multiset of column-label pairs, COE matchings by
    the pairing ``sigma . e_k``), and its classes count once per outer
    member of that key.  Lookup errors (a unitary ``d`` below the level, a
    singular system) propagate unchanged.

    >>> exact_moment(MomentSpec("u", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=3))
    Fraction(1, 3)
    """
    counts: Counter = Counter()
    for mu, n in _term_classes(spec):
        if not counts:
            # every term has the same level, so a refused level raises at
            # the first term instead of after the whole enumeration
            wg_class(spec.family, mu, spec.d, spec.dminus)
        counts[mu] += n
    return sum((n * wg_class(spec.family, mu, spec.d, spec.dminus) for mu, n in counts.items()),
               Fraction(0))
