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
``W_o(m,n)`` is ``W_o`` of ``m^-1 . n``.  Every term is a pair of perfect
matchings, outer and inner, held as plain mate tuples; one classifier,
:func:`~wgcalc.symcore.union_type`, serves all four families (see
:func:`_term_classes`).  Matchings are built from equal-value position
groups, and outer matchings with one multiset of inner-label pairs over
their blocks share one representative.  Wg is a class function, so
:func:`exact_moment` counts the terms of each class and looks each class up
once.  :class:`MomentSpec` is the one validator of a moment request.
"""

from __future__ import annotations

import itertools
from collections import Counter
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .exact import FAMILIES, wg_class
from .graphs import GraphKind
from .symcore import pairing_mates, trivial_mates, union_type

Indices = tuple[int, ...]
INDEX_FIELDS = ("rows", "cols", "crows", "ccols")


def _matchings(source: Sequence[int], target: Sequence[int]) -> Iterator[Indices]:
    """Mates of every sigma with ``source[sigma(r)] == target[r]`` as the
    bipartite matching of source slot ``sigma(r)`` with point ``k + r``,
    0-based: products of per-value bijections between position groups."""
    if sorted(source) != sorted(target):
        return
    k = len(source)
    src_groups: dict[int, list[int]] = {}
    tgt_groups: dict[int, list[int]] = {}
    for pos, v in enumerate(source):
        src_groups.setdefault(v, []).append(pos)
    for pos, v in enumerate(target, k):
        tgt_groups.setdefault(v, []).append(pos)
    values = sorted(src_groups)
    choices = [itertools.permutations(src_groups[v]) for v in values]
    for combo in itertools.product(*choices):
        mate = [0] * (2 * k)
        for v, assigned in zip(values, combo):
            for r, s in zip(tgt_groups[v], assigned):
                mate[r], mate[s] = s, r
        yield tuple(mate)


class IndexRangeError(ValueError):
    """An entry index outside ``1..d``; ``field`` names its index list."""

    def __init__(self, field: str, index: int, d: int):
        self.field = field
        self.reason = f"index {index} outside 1..{d}"
        super().__init__(f"{field} {self.reason}")


class _MomentFields(NamedTuple):
    family: str
    rows: Indices
    cols: Indices
    crows: Indices = ()
    ccols: Indices = ()
    d: int = 2
    dminus: int | None = None


class MomentSpec(_MomentFields):
    """One entry-monomial moment: which family, which indices, which dimensions.

    ``rows``/``cols`` hold the plain factors' indices, ``crows``/``ccols``
    the conjugated factors' where the family's record says ``conjugated``
    (unitary and COE).  Construction is the one place a moment is validated:
    the family needs a moment route, every index must lie in ``1..d``, ``d``
    must be positive, and only A III takes (and needs) ``dminus``.
    ``_make`` and ``_replace`` skip ``__new__``, and so these checks;
    nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        fam = FAMILIES.get(self.family)
        if fam is None or "moment" not in fam.commands:
            raise ValueError(f"unknown moment family {self.family!r}")
        for field in INDEX_FIELDS:
            for v in getattr(self, field):
                if not 1 <= v <= self.d:
                    raise IndexRangeError(field, v, self.d)
        # after the range check, which already refuses any index at d < 1
        if self.d < 1:
            raise ValueError(f"dimension must be positive, got {self.d}")
        if not fam.takes_dminus and self.dminus is not None:
            raise ValueError(f"family {self.family!r} takes no dminus")
        if len(self.rows) != len(self.cols) or len(self.crows) != len(self.ccols):
            raise ValueError("row and column index lists must pair up")
        if not fam.conjugated and self.crows:
            raise ValueError(f"family {self.family!r} takes no conjugated factors")
        if fam.takes_dminus and self.dminus is None:
            raise ValueError(f"{self.family} moments need dminus")
        return self


def _pairing(sigma: Indices) -> Indices:
    """Mates of the pairing ``sigma . e_k`` of a bipartite matching ``sigma``:
    point ``sigma(x)`` is matched with ``sigma(x^1)``, listed in point order."""
    images = sigma[len(sigma) // 2:]
    return tuple(images[x ^ 1] for x in sorted(range(len(images)), key=images.__getitem__))


def _term_classes(spec: MomentSpec) -> Iterator[tuple[tuple[int, ...], int]]:
    """``(class, number of terms)`` pairs that cover the nonzero terms of the
    spec's Weingarten sum; a class may recur.

    Each term is an outer and an inner perfect matching, in the class of
    their :func:`~wgcalc.symcore.union_type`.  The record's kind and
    ``conjugated`` flag name them:

    * u: outer ``_matchings(rows, crows)``, inner ``_matchings(cols, ccols)``;
    * o: outer the pairings that join equal ``rows``, inner equal ``cols``;
    * coe: outer the pairing ``sigma . e_k`` of each matching sigma of the
      interleaved indices, inner the trivial pairing;
    * aiii: outer ``_matchings(rows, cols)``, inner the identity matching.

    A permutation ``h`` of the points that keeps the inner labels (for u,
    ``cols`` and ``ccols`` kept apart) permutes the inner set, and
    ``union_type(h m, q) = union_type(m, h^-1 q)``, so outer matchings with
    one multiset of inner-label pairs over their blocks meet the same
    classes; with a single inner matching the key is the matching itself.

    >>> list(_term_classes(MomentSpec("u", (1, 1), (1, 1), (1, 1), (1, 1), d=3)))
    [((1, 1), 2), ((2,), 2)]
    """
    labels = None
    fam = FAMILIES[spec.family]
    if fam.kind is GraphKind.UNITARY:
        outer = _matchings(spec.rows, spec.crows)
        inner = list(_matchings(spec.cols, spec.ccols))
        labels = [(0, c) for c in spec.cols] + [(1, c) for c in spec.ccols]
    elif fam.pairing and not fam.conjugated:
        rows, labels = spec.rows, spec.cols
        inner = list(pairing_mates(labels))
        # labels with one equality pattern have the same pairings, in order
        same_pattern = [labels.index(c) for c in labels] == [rows.index(r) for r in rows]
        outer = inner if same_pattern else pairing_mates(rows)
    elif fam.pairing:
        i = tuple(x for pair in zip(spec.rows, spec.cols) for x in pair)
        j = tuple(x for pair in zip(spec.crows, spec.ccols) for x in pair)
        outer = map(_pairing, _matchings(i, j))
        inner = [trivial_mates(len(i) // 2)]
    else:
        k = len(spec.rows)
        outer = _matchings(spec.rows, spec.cols)
        inner = [tuple(range(k, 2 * k)) + tuple(range(k))]
    if labels is not None:
        label_pair = [[tuple(sorted((x, y))) for y in labels] for x in labels]
    # one [representative, number of outer matchings] per key; with no inner
    # matching (an unbalanced or odd monomial, zero by symmetry) the outer
    # set is not enumerated
    reps: dict = {}
    for m in outer if inner else ():
        key = m if labels is None else tuple(
            sorted([label_pair[a][b] for a, b in enumerate(m) if a < b]))
        reps.setdefault(key, [m, 0])[1] += 1
    for m, n in reps.values():
        for q in inner:
            yield union_type(m, q), n


def exact_moment(spec: MomentSpec) -> Fraction:
    """Exact mean of the spec's entry monomial.

    Wg is a class function, so the Weingarten sum is, over the classes of
    :func:`_term_classes`, the number of terms in each class times one
    :func:`wgcalc.exact.wg_class` lookup.  The terms are counted, not
    visited: one representative per key of the outer set pairs with the
    inner set, and its classes count once per outer member of that key.
    Lookup errors (a unitary ``d`` below the level, a singular system)
    propagate unchanged.

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
