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
``W_o(m,n)`` is ``W_o`` of ``m^-1 . n``.  Each factor is a tile whose two
ends carry its two indices, and every term is a perfect matching of the
tile ends that joins equal labels; with the tiles it closes into cycles,
whose lengths give the term's class (see :func:`_term_classes`).  Tiles
with equal ends are interchangeable, so the terms of each class are
counted over how many tiles of each type remain, and no matching is
visited.  Wg is a class function, so :func:`exact_moment` looks each class
up once.  :class:`MomentSpec` is the one validator of a moment request.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Iterable, NamedTuple

from .exact import FAMILIES, wg_class
from .graphs import GraphKind

Indices = tuple[int, ...]
INDEX_FIELDS = ("rows", "cols", "crows", "ccols")


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


def _tiles(spec: MomentSpec) -> tuple[list[tuple[int, int]], int, int]:
    """The tiles of :func:`_term_classes`, each a pair of ends ``4 * label +
    kind``; ``flip``, such that an end of kind ``s`` joins kind ``s ^ flip``;
    and ``w``, the tiles per unit of a class part."""
    fam = FAMILIES[spec.family]
    plain = [(4 * r, 4 * c) for r, c in zip(spec.rows, spec.cols)]
    conj = [(4 * r, 4 * c) for r, c in zip(spec.crows, spec.ccols)]
    if fam.kind is GraphKind.UNITARY:
        return [(r, c + 2) for r, c in plain] + [(r + 1, c + 3) for r, c in conj], 1, 2
    if not fam.pairing:
        return [(r, c + 1) for r, c in plain], 1, 1
    if fam.conjugated:
        return plain + [(r + 1, c + 1) for r, c in conj], 1, 2
    return [(r, c + 1) for r, c in plain], 0, 2


def _term_classes(spec: MomentSpec) -> Iterable[tuple[tuple[int, ...], int]]:
    """``(class, number of terms)`` for each class that the nonzero terms of
    the spec's Weingarten sum meet, each class once.

    Every factor is a tile whose two ends carry its two indices, and every
    term is a perfect matching of the tile ends in which each end joins an
    end of its partner kind with an equal label.  The record's kind and
    ``conjugated`` flag name them:

    * u: sigma joins the row end of a plain tile to that of a conjugated
      tile, tau the column ends;
    * o: ``m`` joins two row ends, ``n`` two column ends;
    * coe: sigma joins an end of a plain tile, ``(i[2t], i[2t+1])``, to an
      end of a conjugated one, ``(j[2t], j[2t+1])``; ``sigma . e_k`` pairs
      the two plain ends that meet one conjugated tile;
    * aiii: sigma joins the column end of tile ``r`` to the row end of
      tile ``sigma(r)``.

    With its tiles the matching closes into cycles, and a cycle of ``w * l``
    tiles is a part ``l`` of the term's class: ``w`` is one for aiii, and
    two where the cycles alternate two matchings or two sets of tiles.

    A cycle is built from the first remaining tile, left by its first end:
    each step joins the open end to the start tile's other end, closing the
    cycle, or to a fitting end of a remaining tile, whose other end is then
    open.  Tiles with equal ends are interchangeable, so the completions of
    a partial cycle depend only on how many tiles of each type remain: a
    step into one of ``c`` tiles counts ``c`` times (``2c`` when both its
    ends fit), and completions are memoized on those counts and the open
    cycle.  Equal labels cost polynomially many states, and no matching is
    visited.

    >>> list(_term_classes(MomentSpec("u", (1, 1), (1, 1), (1, 1), (1, 1), d=3)))
    [((1, 1), 2), ((2,), 2)]
    """
    tiles, flip, w = _tiles(spec)
    ends = Counter(end for tile in tiles for end in tile)
    # an end left without a partner (an unbalanced or odd monomial, zero by
    # symmetry) leaves no term, so nothing is counted
    if any(n != ends[end ^ flip] if flip else n % 2 for end, n in ends.items()):
        return ()
    types = sorted(Counter(tuple(sorted(t)) for t in tiles).items())
    # open end -> (type, its other end, its ends that fit) of each tile type
    # with an end of the partner kind and the same label
    fits: dict = {}
    for i, ((a, b), _) in enumerate(types):
        for end, other in ((a, b),) if a == b else ((a, b), (b, a)):
            fits.setdefault(end ^ flip, []).append((i, other, 2 if a == b else 1))
    cycles: dict = {}
    chains: dict = {}

    def rest(counts: tuple[int, ...]) -> dict:
        # classes of the matchings of the remaining tiles
        got = cycles.get(counts)
        if got is None:
            first = next((i for i, c in enumerate(counts) if c), None)
            if first is None:
                got = {(): 1}
            else:
                (a, b), _ = types[first]
                got = chain(counts[:first] + (counts[first] - 1,) + counts[first + 1:], b, a, 1)
            cycles[counts] = got
        return got

    def chain(counts: tuple[int, ...], close: int, end: int, length: int) -> dict:
        # classes of the completions of a cycle of `length` tiles whose open
        # end is `end` and whose start tile's free end is `close`
        key = counts, close, end, length
        got = chains.get(key)
        if got is None:
            got = {}
            if end ^ flip == close:
                for mu, n in rest(counts).items():
                    mu = tuple(sorted((*mu, length // w), reverse=True))
                    got[mu] = got.get(mu, 0) + n
            for i, other, ways in fits.get(end, ()):
                c = counts[i]
                if c:
                    left = counts[:i] + (c - 1,) + counts[i + 1:]
                    for mu, n in chain(left, close, other, length + 1).items():
                        got[mu] = got.get(mu, 0) + c * ways * n
            chains[key] = got
        return got

    # the count recurses once per tile and once per cycle, so a moment too
    # large for Python's stack is refused here, before any level is solved
    try:
        return rest(tuple(c for _, c in types)).items()
    except RecursionError:
        raise ValueError(f"moment of level {len(tiles) // w} is too large "
                         "to count its terms") from None


def exact_moment(spec: MomentSpec) -> Fraction:
    """Exact mean of the spec's entry monomial.

    Wg is a class function, so the Weingarten sum is, over the classes of
    :func:`_term_classes`, the number of terms in each class times one
    :func:`wgcalc.exact.wg_class` lookup.  The terms are counted, not
    visited.  Lookup errors (a unitary ``d`` below the level, a singular
    system) propagate unchanged; every class has the same level, so each
    lookup raises the same error.  A moment too large to count its terms
    on Python's stack raises :class:`ValueError` before any lookup.

    >>> exact_moment(MomentSpec("u", rows=(1,), cols=(1,), crows=(1,), ccols=(1,), d=3))
    Fraction(1, 3)
    """
    return sum((n * wg_class(spec.family, mu, spec.d, spec.dminus)
                for mu, n in _term_classes(spec)), Fraction(0))
