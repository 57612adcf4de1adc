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
group.  Wg is a class function, so :func:`exact_moment` counts the terms
of each class and looks each class up once.  :class:`MomentSpec` is the one
validator of a moment request.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

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


def _matching_permutations(source: Sequence[int], target: Sequence[int]) -> Iterator[Permutation]:
    """All sigma with source[sigma(r)] == target[r], as products of
    per-value bijections between position groups."""
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
        yield Permutation(tuple(images))


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
    lie in ``1..d``.
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
        if len(self.rows) != len(self.cols) or len(self.crows) != len(self.ccols):
            raise ValueError("row and column index lists must pair up")
        if self.family in ("o", "aiii") and self.crows:
            raise ValueError(f"family {self.family!r} takes no conjugated factors")
        if self.family == "aiii" and self.dminus is None:
            raise ValueError("aiii moments need dminus")


def _term_classes(spec: MomentSpec) -> Iterator[tuple[int, ...]]:
    """The class of each nonzero term of the spec's Weingarten sum.

    Unitary terms pair the row matchings sigma with the column matchings
    tau and fall in the cycle type of ``sigma tau^-1``; orthogonal terms
    pair row with column pairings ``m, n`` and fall in the coset type of
    ``m^-1 . n``; COE terms are the matchings sigma of the interleaved index
    pairs, in the coset type of ``sigma . e_k``; A III terms are the
    matchings sigma themselves.
    """
    if spec.family == "u":
        # an unbalanced monomial (zero by phase invariance) has no tau either,
        # so no sigma is enumerated
        taus = list(_matching_permutations(spec.cols, spec.ccols))
        if not taus:
            return iter(())
        return ((sigma * tau.inverse()).cycle_type()
                for sigma in _matching_permutations(spec.rows, spec.crows)
                for tau in taus)
    if spec.family == "o":
        # an odd number of factors has no pairings, so it integrates to zero
        col_pairings = list(pair_partitions(spec.cols))
        if not col_pairings:
            return iter(())
        return (act(m.as_permutation().inverse(), n).coset_type()
                for m in pair_partitions(spec.rows)
                for n in col_pairings)
    if spec.family == "coe":
        i = tuple(x for pair in zip(spec.rows, spec.cols) for x in pair)
        j = tuple(x for pair in zip(spec.crows, spec.ccols) for x in pair)
        trivial = PairPartition.trivial(len(i) // 2)
        return (act(sigma, trivial).coset_type() for sigma in _matching_permutations(i, j))
    return (sigma.cycle_type() for sigma in _matching_permutations(spec.rows, spec.cols))


def exact_moment(spec: MomentSpec) -> Fraction:
    """Exact mean of the spec's entry monomial.

    Wg is a class function, so the Weingarten sum is, over the classes of
    :func:`_term_classes`, the number of terms in each class times one
    :func:`wgcalc.exact.wg_class` lookup.  Lookup errors (a unitary ``d``
    below the level, a singular system) propagate unchanged.

    >>> exact_moment(MomentSpec("u", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=3))
    Fraction(1, 3)
    """
    dminus = spec.dminus if spec.family == "aiii" else None
    counts: Counter = Counter()
    for mu in _term_classes(spec):
        if not counts:
            # every term has the same level, so a refused level raises at
            # the first term instead of after the whole enumeration
            wg_class(spec.family, mu, spec.d, dminus)
        counts[mu] += 1
    return sum((n * wg_class(spec.family, mu, spec.d, dminus) for mu, n in counts.items()),
               Fraction(0))
