import random
import re

import pytest
from oracles import (
    all_permutations,
    as_permutation,
    identity,
    strong_admissible_sequence,
    transposition,
    union_type,
)

from wgcalc.graphs import (DASHED, EdgeStep, GraphKind, dashed_target, solid_neighbors,
                           squiggled_target)
from wgcalc.symcore import (
    PairPartition,
    Permutation,
    all_pair_partitions,
    class_representative,
    coset_representative,
    format_element,
    format_partition,
    parse_pair_partition,
    parse_partition,
    parse_permutation,
    partitions,
)


def test_partitions_order_and_count():
    assert list(partitions(0)) == [()]
    assert list(partitions(3)) == [(3,), (2, 1), (1, 1, 1)]
    assert len(list(partitions(6))) == 11
    with pytest.raises(ValueError):
        list(partitions(-1))


def _partitions_oracle(n, top):
    """Every partition of ``n`` with parts at most ``top``, by recursion."""
    if n == 0:
        return [()]
    return [(first, *rest) for first in range(min(n, top), 0, -1)
            for rest in _partitions_oracle(n - first, first)]


def test_partitions_are_antilexicographic_without_repeats():
    # the generator keeps no recursion; the oracle fixes the order it must keep
    for n in range(25):
        listed = list(partitions(n))
        assert listed == _partitions_oracle(n, n) == sorted(set(listed), reverse=True), n


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((1, 1))
    with pytest.raises(ValueError):
        Permutation((0, 1))
    assert Permutation(()).level == 0


def test_cycle_type_examples():
    assert identity(4).cycle_type() == (1, 1, 1, 1)
    assert Permutation((2, 1)).cycle_type() == (2,)
    assert Permutation((4, 1, 5, 3, 2)).cycle_type() == (5,)


def test_absolute_length_examples():
    assert identity(3).absolute_length() == 0
    assert Permutation((2, 1, 3)).absolute_length() == 1
    assert Permutation((4, 1, 5, 3, 2)).absolute_length() == 4


def test_restrict_down():
    # the dashed edge of the unitary graph drops a fixed top point
    u = GraphKind.UNITARY
    assert dashed_target(u, Permutation((1, 3, 2, 4))) == Permutation((1, 3, 2))
    assert dashed_target(u, Permutation((1,))) == Permutation(())
    assert dashed_target(u, Permutation((2, 1, 3))) == Permutation((2, 1))
    assert dashed_target(u, Permutation((2, 3, 1))) is None
    assert dashed_target(u, Permutation(())) is None


def test_flat_examples():
    a3 = GraphKind.AIII
    assert squiggled_target(a3, Permutation((4, 5, 1, 3, 2))) == Permutation((3, 1, 2))
    assert squiggled_target(a3, Permutation((2, 1))) == Permutation(())
    assert squiggled_target(a3, Permutation((1, 3, 2))) == Permutation((1,))
    # top fixed, or in a longer cycle: no 2-cycle through the top point
    assert squiggled_target(a3, Permutation((2, 1, 3))) is None
    assert squiggled_target(a3, Permutation((2, 3, 1))) is None


def test_act_examples():
    e2 = PairPartition.trivial(2)
    z = transposition(4, 2, 3)
    assert e2.apply(z) == PairPartition(((1, 3), (2, 4)))
    # self-loop source: (1 3) fixes {1,3}{2,4}
    m = PairPartition(((1, 3), (2, 4)))
    assert m.apply(transposition(4, 1, 3)) == m
    with pytest.raises(ValueError):
        m.apply(identity(2))


def test_coset_type_examples():
    assert PairPartition.trivial(3).coset_type() == (1, 1, 1)
    assert PairPartition(((1, 3), (2, 4))).coset_type() == (2,)
    assert PairPartition(((1, 3), (2, 6), (4, 5))).coset_type() == (3,)
    assert PairPartition(((1, 3), (2, 4))).absolute_length() == 1
    assert PairPartition.trivial(4).absolute_length() == 0


def test_pairing_down():
    # the dashed edge of the orthogonal graph drops a top block {2k-1, 2k}
    o = GraphKind.ORTHOGONAL
    m = PairPartition(((1, 2), (3, 4)))
    assert dashed_target(o, m) == PairPartition(((1, 2),))
    assert dashed_target(o, PairPartition(((1, 3), (2, 4)))) is None
    assert dashed_target(o, PairPartition(())) is None


def test_class_representative():
    assert class_representative((2, 1)) == Permutation((2, 1, 3))
    assert class_representative(()) == Permutation(())
    for n in range(6):
        for mu in partitions(n):
            assert class_representative(mu).cycle_type() == mu
    with pytest.raises(ValueError):
        class_representative((1, 2))


def test_coset_representative():
    assert coset_representative((1,)) == PairPartition(((1, 2),))
    assert coset_representative((2,)).coset_type() == (2,)
    for n in range(6):
        for mu in partitions(n):
            assert coset_representative(mu).coset_type() == mu


def test_strong_admissible_sequence():
    m = PairPartition(((1, 3), (2, 6), (4, 5)))
    assert strong_admissible_sequence(m) == (1, 2, 1, 3, 3, 2)
    assert strong_admissible_sequence(PairPartition.trivial(2)) == (1, 1, 2, 2)


def test_parse_format_round_trip():
    for text in ["4,1,5,3,2", "1", "∅"]:
        assert format_element(parse_permutation(text)) == text
    for text in ["1,3|2,4", "1,2", "∅"]:
        assert format_element(parse_pair_partition(text)) == text
    assert parse_permutation("") == Permutation(())
    assert parse_pair_partition("1,3|2,4") == PairPartition(((1, 3), (2, 4)))
    assert parse_partition("3+1+1") == (3, 1, 1)
    assert format_partition((3, 1, 1)) == "3+1+1"
    assert parse_partition("∅") == ()
    with pytest.raises(ValueError):
        parse_permutation("1,x")
    with pytest.raises(ValueError):
        parse_pair_partition("1,2,3|4")
    with pytest.raises(ValueError):
        parse_partition("1+2")


def test_absolute_length_conjugation_invariant():
    rng = random.Random(57)
    for k in range(1, 7):
        for _ in range(20):
            imgs = list(range(1, k + 1))
            rng.shuffle(imgs)
            sigma = Permutation(tuple(imgs))
            rng.shuffle(imgs)
            rho = Permutation(tuple(imgs))
            conj = rho * sigma * rho.inverse()
            assert conj.cycle_type() == sigma.cycle_type()
            assert conj.absolute_length() == sigma.absolute_length()


def test_transposition_changes_length_by_one():
    import itertools

    for k in range(2, 5):
        for imgs in itertools.permutations(range(1, k + 1)):
            sigma = Permutation(imgs)
            for a in range(1, k + 1):
                for b in range(a + 1, k + 1):
                    moved = sigma.swap_values(a, b)
                    assert abs(moved.absolute_length() - sigma.absolute_length()) == 1


def test_pairing_length_changes_by_at_most_one():
    for k in range(1, 4):
        for m in all_pair_partitions(k):
            for a in range(1, 2 * k + 1):
                for b in range(a + 1, 2 * k + 1):
                    moved = m.swap_points(a, b)
                    assert abs(moved.absolute_length() - m.absolute_length()) <= 1


def test_action_is_group_action():
    rng = random.Random(58)
    for k in (2, 3):
        ms = list(all_pair_partitions(k))
        for _ in range(25):
            m = rng.choice(ms)
            a = list(range(1, 2 * k + 1))
            rng.shuffle(a)
            za = Permutation(tuple(a))
            rng.shuffle(a)
            zb = Permutation(tuple(a))
            assert m.apply(zb).apply(za) == m.apply(za * zb)
        assert sum(1 for _ in all_pair_partitions(k)) == len(ms)


def _coset_type_bruteforce(m: PairPartition) -> tuple[int, ...]:
    # independent route: build the union multigraph edge list and strip cycles
    edges = [tuple(b) for b in m.blocks]
    edges += [(2 * i - 1, 2 * i) for i in range(1, m.level + 1)]
    parts = []
    while edges:
        a0, b0 = edges.pop(0)
        size = 1
        cur = b0
        while cur != a0:
            for idx, (x, y) in enumerate(edges):
                if x == cur or y == cur:
                    cur = y if x == cur else x
                    edges.pop(idx)
                    size += 1
                    break
            else:
                raise AssertionError("walk left the multigraph")
        parts.append(size // 2)
    return tuple(sorted(parts, reverse=True))


def test_coset_type_against_bruteforce_multigraph():
    rng = random.Random(59)
    for k in range(1, 6):
        e = PairPartition.trivial(k)
        for _ in range(15):
            a = list(range(1, 2 * k + 1))
            rng.shuffle(a)
            m = e.apply(Permutation(tuple(a)))
            assert m.coset_type() == _coset_type_bruteforce(m)


def test_union_type_is_the_coset_type_of_the_reduced_pairing():
    # W_o(m, n) is read at the coset type of m^-1 . n; the union of m and n
    # has the same halved cycle lengths
    for k in range(4):
        pairings = list(all_pair_partitions(k))
        for m in pairings:
            m_inverse = as_permutation(m).inverse()
            for n in pairings:
                assert n.apply(m_inverse).coset_type() == union_type(m.mates, n.mates)


def _bipartite(sigma: Permutation) -> tuple[int, ...]:
    # point sigma(r) - 1 of the first k joined to point k + r - 1 of the last k
    k = sigma.level
    mate = [0] * (2 * k)
    for r in range(1, k + 1):
        mate[sigma(r) - 1], mate[k + r - 1] = k + r - 1, sigma(r) - 1
    return tuple(mate)


def test_union_type_of_bipartite_matchings_is_a_cycle_type():
    perms = list(all_permutations(4))
    for sigma in perms:
        for tau in perms:
            assert (sigma * tau.inverse()).cycle_type() == union_type(_bipartite(sigma),
                                                                      _bipartite(tau))


def test_stat_preserving_drops():
    # restriction keeps cycle structure minus the fixed point; the dropped
    # top block never changes the pairing length
    assert dashed_target(GraphKind.UNITARY, Permutation((2, 1, 3))).cycle_type() == (2,)
    for k in range(1, 4):
        for m in all_pair_partitions(k):
            down = dashed_target(GraphKind.ORTHOGONAL, m)
            if down is not None:
                assert down.absolute_length() == m.absolute_length()


def test_as_permutation_recovers_pairing():
    for k in range(4):
        for m in all_pair_partitions(k):
            assert PairPartition.trivial(k).apply(as_permutation(m)) == m


def test_value_semantics_are_pinned():
    # repr, hash, equality, text and immutability of every element of level
    # <= 5 (permutations) or <= 4 (pairings) and of every solid step leaving
    # it: the hash is that of the field tuple, so set and dict orders follow it
    perms = [p for k in range(6) for p in all_permutations(k)]
    pairings = [m for k in range(5) for m in all_pair_partitions(k)]
    groups = [
        (perms, lambda p: (p.images,), lambda p: f"Permutation(images={p.images!r})",
         lambda p: ",".join(map(str, p.images)) or "∅", "images"),
        (pairings, lambda m: (m.blocks,), lambda m: f"PairPartition(blocks={m.blocks!r})",
         lambda m: "|".join(f"{a},{b}" for a, b in m.blocks) or "∅", "blocks"),
    ]
    for kind, elements in ((GraphKind.UNITARY, perms), (GraphKind.ORTHOGONAL, pairings)):
        steps = [s for e in elements for s in solid_neighbors(kind, e)]
        steps.append(EdgeStep(DASHED, None, elements[1]))
        groups.append((steps, lambda s: (s.kind, s.index, s.target, s.top),
                       lambda s: (f"EdgeStep(kind={s.kind!r}, index={s.index!r}, "
                                  f"target={s.target!r}, top={s.top!r})"),
                       None, "kind"))
    for items, fields, text, formatted, field in groups:
        keys = [fields(x) for x in items]
        for x, key in zip(items, keys):
            assert repr(x) == text(x)
            assert hash(x) == hash(key)
            assert x == type(x)(*key) and not x != type(x)(*key)
            if formatted is not None:
                assert format_element(x) == formatted(x)
            with pytest.raises(AttributeError):
                setattr(x, field, getattr(x, field))
        for x, kx in zip(items[::7], keys[::7]):
            for y, ky in zip(items, keys):
                assert (x == y, x != y) == (kx == ky, kx != ky)
        assert len(set(items)) == len(set(keys))
    assert Permutation([2.0, "1"]).images == (2, 1)
    assert PairPartition([[4, 3], [2, 1]]).blocks == ((1, 2), (3, 4))
    with pytest.raises(ValueError, match=re.escape("not a permutation of 1..2: (1, 1)")):
        Permutation((1, 1))
    with pytest.raises(ValueError, match=re.escape("blocks do not tile 1..2k: ((1, 3), (3, 4))")):
        PairPartition(((3, 4), (3, 1)))
