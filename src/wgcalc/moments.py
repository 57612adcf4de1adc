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

``delta_sigma(i,j) = 1`` iff ``i[sigma(r)] == j[r]`` for every slot, and
``Delta_m(i) = 1`` iff every block of ``m`` joins equal indices.  The sums
are pruned by matching equal-value position groups instead of enumerating
the full symmetric group.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .exact import wg, wg_orthogonal_pair
from .symcore import PairPartition, Permutation, act, pair_partitions

Indices = tuple[int, ...]


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


def _check_indices(d: int, **named: Sequence[int]) -> None:
    for name, seq in named.items():
        for v in seq:
            if not 1 <= v <= d:
                raise ValueError(f"{name} index {v} outside 1..{d}")


def moment_unitary(i, j, iprime, jprime, d: int) -> Fraction:
    """Mean of a product of entries and conjugated entries of a Haar unitary.

    Unequal numbers of plain and conjugated factors integrate to zero by
    phase invariance; that case short-circuits without enumeration.
    """
    if len(i) != len(j) or len(iprime) != len(jprime):
        raise ValueError("row and column sequences must have equal length")
    _check_indices(d, rows=i, cols=j, crows=iprime, ccols=jprime)
    if len(i) != len(iprime):
        return Fraction(0)
    total = Fraction(0)
    taus = list(_matching_permutations(j, jprime))
    if not taus:
        return Fraction(0)
    for sigma in _matching_permutations(i, iprime):
        for tau in taus:
            total += wg("u", sigma * tau.inverse(), d)
    return total


def moment_orthogonal(i, j, d: int) -> Fraction:
    """Mean of a product of entries of a Haar orthogonal matrix."""
    if len(i) != len(j):
        raise ValueError("row and column sequences must have equal length")
    _check_indices(d, rows=i, cols=j)
    if len(i) % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    col_pairings = list(pair_partitions(j))
    if not col_pairings:
        return Fraction(0)
    for m in pair_partitions(i):
        for n in col_pairings:
            total += wg_orthogonal_pair(m, n, d)
    return total


def moment_coe(i, j, d: int) -> Fraction:
    """Mean of a COE monomial: ``i`` strings together the index pairs of the
    plain factors, ``j`` those of the conjugated factors, both of length 2k."""
    if len(i) % 2 == 1 or len(j) % 2 == 1:
        raise ValueError("COE sequences pair up indices, so lengths must be even")
    _check_indices(d, rows=i, cols=j)
    if len(i) != len(j):
        return Fraction(0)
    k = len(i) // 2
    trivial = PairPartition.trivial(k)
    total = Fraction(0)
    for sigma in _matching_permutations(i, j):
        total += wg("coe", act(sigma, trivial), d)
    return total


def moment_aiii(i, j, d: int, dminus: int) -> Fraction:
    """Mean of a product of entries of the two-block symmetry ensemble."""
    if len(i) != len(j):
        raise ValueError("row and column sequences must have equal length")
    _check_indices(d, rows=i, cols=j)
    total = Fraction(0)
    for sigma in _matching_permutations(i, j):
        total += wg("aiii", sigma, d, dminus)
    return total


@dataclass(frozen=True)
class MomentSpec:
    """One entry-monomial moment: which family, which indices, which dimensions.

    ``rows``/``cols`` hold the plain factors' indices, ``crows``/``ccols``
    the conjugated factors' where the family has them (unitary and COE).
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
        if len(self.rows) != len(self.cols) or len(self.crows) != len(self.ccols):
            raise ValueError("row and column index lists must pair up")
        if self.family in ("o", "aiii") and self.crows:
            raise ValueError(f"family {self.family!r} takes no conjugated factors")
        if self.family == "aiii" and self.dminus is None:
            raise ValueError("aiii moments need dminus")


def exact_moment(spec: MomentSpec) -> Fraction:
    if spec.family == "u":
        return moment_unitary(spec.rows, spec.cols, spec.crows, spec.ccols, spec.d)
    if spec.family == "o":
        return moment_orthogonal(spec.rows, spec.cols, spec.d)
    if spec.family == "coe":
        i = tuple(x for pair in zip(spec.rows, spec.cols) for x in pair)
        j = tuple(x for pair in zip(spec.crows, spec.ccols) for x in pair)
        return moment_coe(i, j, spec.d)
    return moment_aiii(spec.rows, spec.cols, spec.d, spec.dminus)
