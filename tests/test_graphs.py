import itertools
import random
from collections import Counter

import pytest
from oracles import (
    MonotoneFactorization,
    all_permutations,
    class_node,
    enumerate_monotone_factorizations,
    factorization_to_path,
    identity,
    path_nodes,
    path_to_factorization,
    steps_of_kind,
)

from wgcalc import exact, graphs
from wgcalc.graphs import (
    DASHED,
    SOLID,
    SQUIGGLED,
    GraphKind,
    Path,
    count_class_paths,
    count_columns,
    count_paths,
    dashed_target,
    enumerate_paths,
    format_path,
    solid_neighbors,
    squiggled_target,
)
from wgcalc.symcore import (
    PairPartition,
    Permutation,
    all_pair_partitions,
    class_representative,
    coset_representative,
    partitions,
)

U = GraphKind.UNITARY
O = GraphKind.ORTHOGONAL
A3 = GraphKind.AIII

EXAMPLE_PERM = Permutation((4, 1, 5, 3, 2))
LOOPY = PairPartition(((1, 3), (2, 4)))


def test_solid_neighbors_unitary():
    steps = solid_neighbors(U, Permutation((2, 1)))
    assert [s.target for s in steps] == [Permutation((1, 2))]
    assert len(solid_neighbors(U, EXAMPLE_PERM)) == 4
    assert solid_neighbors(U, Permutation((1,))) == ()
    assert solid_neighbors(U, Permutation(())) == ()


def test_solid_neighbors_orthogonal_with_self_loop():
    steps = solid_neighbors(O, LOOPY)
    assert len(steps) == 2
    # index 1 is a genuine self-loop, index 2 exits to the trivial pairing
    assert steps[0].target == LOOPY
    assert steps[1].target == PairPartition.trivial(2)
    e2 = PairPartition.trivial(2)
    targets = [s.target for s in solid_neighbors(O, e2)]
    assert targets == [PairPartition(((1, 4), (2, 3))), LOOPY]
    assert solid_neighbors(O, PairPartition.trivial(1)) == ()


def test_dashed_targets():
    assert dashed_target(U, Permutation((2, 1, 3))) == Permutation((2, 1))
    assert dashed_target(U, Permutation((2, 1))) is None
    assert dashed_target(O, PairPartition.trivial(2)) == PairPartition.trivial(1)
    assert dashed_target(O, LOOPY) is None
    assert dashed_target(U, Permutation(())) is None


def test_squiggled_targets():
    assert squiggled_target(A3, Permutation((4, 5, 1, 3, 2))) == Permutation((3, 1, 2))
    assert squiggled_target(A3, Permutation((2, 3, 1))) is None
    with pytest.raises(ValueError):
        squiggled_target(U, Permutation((2, 1)))


def test_count_paths_unitary_small():
    s = Permutation((2, 1))
    assert [count_paths(U, s, l) for l in (1, 2, 3)] == [1, 0, 1]
    assert count_paths(U, identity(1), 0) == 1
    assert count_paths(U, EXAMPLE_PERM, 4) == 14


def test_count_paths_orthogonal_small():
    assert [count_paths(O, LOOPY, l) for l in (1, 2, 3)] == [1, 1, 3]
    e2 = PairPartition.trivial(2)
    assert [count_paths(O, e2, l) for l in (1, 2)] == [0, 2]


def test_loop_then_exit_is_the_unique_two_step_path():
    paths = enumerate_paths(O, LOOPY, 2)
    assert len(paths) == 1
    (p,) = paths
    assert path_nodes(p)[1] == LOOPY  # first step traverses the self-loop
    assert p.solid_transpositions() == ((1, 3), (2, 3))


def test_enumeration_matches_counts():
    rng = random.Random(60)
    perms = [Permutation(p) for p in itertools.permutations(range(1, 5))]
    for _ in range(12):
        s = rng.choice(perms)
        l = rng.randrange(0, 6)
        assert len(enumerate_paths(U, s, l)) == count_paths(U, s, l)
    for m in all_pair_partitions(2):
        for l in range(5):
            assert len(enumerate_paths(O, m, l)) == count_paths(O, m, l)
    for s in [Permutation((2, 1)), Permutation((2, 3, 1)), Permutation((1, 3, 2))]:
        for l in range(5):
            assert len(enumerate_paths(A3, s, l)) == count_paths(A3, s, l)


def test_one_walk_expands_each_vertex_once(monkeypatch):
    # the walk asks each distinct vertex for its solid edges at most once, and
    # every path holds the same step object for the same step from a vertex
    asked = Counter()
    solid_targets = graphs.solid_targets

    def counted(kind, elem):
        asked[elem] += 1
        return solid_targets(kind, elem)

    monkeypatch.setattr(graphs, "solid_targets", counted)
    for kind, elem, solid in ((U, Permutation((3, 2, 5, 1, 4)), 5), (U, Permutation((2, 1)), 301),
                              (O, PairPartition(((1, 2), (3, 6), (4, 5))), 4),
                              (A3, Permutation((2, 1, 4, 3)), 4)):
        asked.clear()
        paths = enumerate_paths(kind, elem, solid)
        assert len(paths) == count_paths(kind, elem, solid)
        assert asked and max(asked.values()) == 1, (kind, elem)
        objects = {}
        for p in paths:
            node = p.start
            for step in p.steps:
                objects.setdefault((node, step), set()).add(id(step))
                node = step.target
        assert all(len(ids) == 1 for ids in objects.values()), (kind, elem)


def _walk_counts(kind, elem, solid, memo):
    """Paths from ``elem`` with ``solid`` solid steps, by dashed-step count,
    walked element by element without the class graph."""
    key = (elem, solid)
    if key not in memo:
        out = Counter()
        if elem.level == 0:
            if solid == 0:
                out[0] = 1
        else:
            if solid > 0:
                for step in solid_neighbors(kind, elem):
                    out.update(_walk_counts(kind, step.target, solid - 1, memo))
            down = dashed_target(kind, elem)
            if down is not None:
                for dashed, n in _walk_counts(kind, down, solid, memo).items():
                    out[dashed + 1] += n
            flat = squiggled_target(kind, elem) if kind is A3 else None
            if flat is not None:
                out.update(_walk_counts(kind, flat, solid, memo))
        memo[key] = out
    return memo[key]


@pytest.mark.parametrize(
    "kind, elements, top",
    [(U, all_permutations, 5), (A3, all_permutations, 5), (O, all_pair_partitions, 4)],
)
def test_class_counts_match_element_level_counts_on_every_element(kind, elements, top):
    # the element walk is checked against full enumeration one level lower,
    # where enumerating every path stays cheap; a count row q holds the
    # paths with k - 2q dashed steps
    type_of = PairPartition.coset_type if kind is O else Permutation.cycle_type
    memo = {}
    for k in range(top + 1):
        index, columns = count_columns(kind, k, k + 4)
        columns = list(columns)
        for e in elements(k):
            rows = [[column[r] for column in columns] for r in index[type_of(e)]]
            for l in range(e.absolute_length() + 5):
                walked = _walk_counts(kind, e, l, memo)
                assert Counter({k - 2 * q: row[l] for q, row in enumerate(rows)}) == walked
                if k < top:
                    paths = enumerate_paths(kind, e, l)
                    assert Counter(steps_of_kind(p, DASHED) for p in paths) == walked


def test_class_nodes_are_well_formed():
    for kind, top in ((U, 6), (A3, 6), (O, 5)):
        for k in range(1, top + 1):
            for mu in partitions(k):
                node = class_node(kind, mu)
                assert sum(mult for _, mult in node.solid) == (2 * k - 2 if kind is O else k - 1)
                assert all(sum(target) == k for target, _ in node.solid)
                assert all(list(target) == sorted(target, reverse=True) for target, _ in node.solid)
                assert node.dashed is None or node.squiggled is None
                if kind is not A3:
                    assert node.squiggled is None


def _representative_node(kind, mu):
    """The node of ``mu`` read off its representative element by element:
    the classes of its solid targets with multiplicities, dashed, squiggled."""
    ortho = kind is O
    rep = coset_representative(mu) if ortho else class_representative(mu)
    type_of = PairPartition.coset_type if ortho else Permutation.cycle_type
    solid = Counter(type_of(step.target) for step in solid_neighbors(kind, rep))
    down = dashed_target(kind, rep)
    flat = squiggled_target(kind, rep) if kind is A3 else None
    return solid, None if down is None else type_of(down), None if flat is None else type_of(flat)


def test_class_nodes_match_representative_oracle():
    for kind, top in ((U, 8), (A3, 8), (O, 7)):
        for k in range(top + 1):
            for mu in partitions(k):
                node = class_node(kind, mu)
                solid, dashed, squiggled = _representative_node(kind, mu)
                assert len(node.solid) == len(solid) and Counter(dict(node.solid)) == solid
                assert (node.dashed, node.squiggled) == (dashed, squiggled)
    for kind in (U, A3, O):
        assert class_node(kind, ()) == ((), None, None)
    with pytest.raises(ValueError, match="weakly decreasing"):
        class_node(U, (1, 2))


def test_count_memo_is_bounded_by_classes():
    graphs.clear_caches()
    cycle = Permutation((2, 3, 4, 5, 6, 7, 8, 1))
    exact.series("u", cycle, 3)
    assert 0 < graphs.level_nodes.cache_info().currsize <= 8  # one per level 1..8
    graphs.clear_caches()
    assert graphs.level_nodes.cache_info().currsize == 0
    count_paths(A3, cycle, 7, 0)
    assert graphs.level_nodes.cache_info().currsize
    graphs.clear_caches()
    assert graphs.level_nodes.cache_info().currsize == 0


def test_node_memo_evicts_past_its_cap():
    memo, cap = graphs.level_nodes, graphs.NODE_LEVEL_CAP

    def probe():
        return class_node(U, (2, 1)), class_node(O, (3,))

    memo.cache_clear()
    fresh = probe()
    for kind in (U, A3, O):
        for j in range(4, 4 + cap // 3 + 1):
            memo(kind, j)
    assert memo.cache_info().currsize == cap
    misses = memo.cache_info().misses
    assert probe() == fresh
    assert memo.cache_info().misses > misses
    graphs.clear_caches()


def test_deep_counts_need_no_recursion():
    # orthogonal (2,) has a self-loop and an edge to (1, 1), which has two
    # edges back, so its counts are the Jacobsthal numbers; a unitary or
    # A III transposition ping-pongs on level 2 and leaves by two dashed
    # steps (odd length) or one squiggled step (even length)
    for s in [*range(60), 5001]:
        assert count_class_paths(O, (2,), s) == (2**s - (-1) ** s) // 3
    assert count_class_paths(U, (2,), 1999) == 1
    assert [count_class_paths(U, (2,), 1999, l1) for l1 in range(4)] == [0, 0, 1, 0]
    for s in [*range(60), 5000, 5001]:
        assert count_class_paths(A3, (2,), s) == 1
        dashed = (count_class_paths(A3, (2,), s, 0), count_class_paths(A3, (2,), s, 2))
        assert dashed == ((0, 1) if s % 2 else (1, 0))


def test_single_path_identity_level_one():
    paths = enumerate_paths(U, Permutation((1,)), 0)
    assert len(paths) == 1
    assert [s.kind for s in paths[0].steps] == [DASHED]


def test_a_dashed_count_lists_the_full_listing_filtered():
    # the walk with a dashed count enters only vertices on the row of the
    # squiggled steps left; it must keep exactly the paths of that count
    cases = [(kind, e) for kind in (U, A3) for k in range(5) for e in all_permutations(k)]
    cases += [(O, m) for k in range(4) for m in all_pair_partitions(k)]
    for kind, e in cases:
        for l in range(e.absolute_length() + 3):
            paths = enumerate_paths(kind, e, l)
            for dashed in range(-1, e.level + 2):
                kept = [p for p in paths if steps_of_kind(p, DASHED) == dashed]
                assert enumerate_paths(kind, e, l, dashed) == kept, (kind, e, l, dashed)


def test_parity_unitary():
    # solid steps change the absolute length by one, dashed keep it, so
    # every count at the wrong parity vanishes
    for k in range(1, 6):
        for imgs in itertools.permutations(range(1, k + 1)):
            s = Permutation(imgs)
            n = s.absolute_length()
            for l in range(n + 7):
                if (l - n) % 2 == 1:
                    assert count_paths(U, s, l) == 0


def test_count_column_rows_vanish_off_their_parity():
    # a solid step changes the number of cycles by one, a dashed step keeps
    # j - len(mu) and a squiggled step flips it, so a unitary row is nonzero
    # only at s = j - len(mu) and an A III row q only at s = j - len(mu) + q,
    # mod 2
    for kind in (U, A3):
        for k in range(7):
            index, columns = count_columns(kind, k, 9)
            columns = list(columns)
            for mu, numbers in index.items():
                for q, row in enumerate([column[r] for column in columns] for r in numbers):
                    parity = (sum(mu) - len(mu) + q) % 2
                    assert not any(row[1 - parity::2]), (kind, k, mu, q)
                    if kind is U:
                        assert row[sum(mu) - len(mu)] > 0, (k, mu)


def test_dashed_step_budget():
    for s in [EXAMPLE_PERM, Permutation((2, 1, 3))]:
        for p in enumerate_paths(U, s, s.absolute_length() + 2):
            assert steps_of_kind(p, DASHED) == s.level
    for m in all_pair_partitions(2):
        for l in range(4):
            for p in enumerate_paths(O, m, l):
                assert steps_of_kind(p, DASHED) == m.level
    for s in [Permutation((2, 1, 3)), Permutation((2, 3, 1)), Permutation((3, 2, 1))]:
        for l in range(5):
            for p in enumerate_paths(A3, s, l):
                assert steps_of_kind(p, DASHED) + 2 * steps_of_kind(p, SQUIGGLED) == s.level


def test_refined_counts_for_transposition():
    s = Permutation((2, 1))
    for l0 in range(6):
        for l1 in (0, 1, 2):
            expect = 0
            if l1 == 0 and l0 % 2 == 0:
                expect = 1  # even ping-pong then the squiggled exit
            if l1 == 2 and l0 % 2 == 1:
                expect = 1  # odd ping-pong then two dashed steps
            assert count_paths(A3, s, l0, l1) == expect


def test_length_profile_along_paths():
    for p in enumerate_paths(U, EXAMPLE_PERM, 6):
        nodes = path_nodes(p)
        for a, b, step in zip(nodes, nodes[1:], p.steps):
            if step.kind == SOLID:
                assert abs(b.absolute_length() - a.absolute_length()) == 1
            else:
                assert b.absolute_length() == a.absolute_length()
    for m in all_pair_partitions(3):
        for p in enumerate_paths(O, m, m.absolute_length() + 1):
            nodes = path_nodes(p)
            for a, b, step in zip(nodes, nodes[1:], p.steps):
                if step.kind == SOLID:
                    assert abs(b.absolute_length() - a.absolute_length()) <= 1


def test_known_factorization_of_five_cycle():
    f = MonotoneFactorization(U, 5, ((3, 5), (2, 5), (2, 4), (1, 2)))
    assert f.target() == EXAMPLE_PERM
    path = factorization_to_path(f)
    assert format_path(path) == (
        "4,1,5,3,2 -(3,5)-> 4,1,3,5,2 -(2,5)-> 4,1,3,2,5 => 4,1,3,2 "
        "-(2,4)-> 2,1,3,4 => 2,1,3 => 2,1 -(1,2)-> 1,2 => 1 => ∅"
    )
    assert path in enumerate_paths(U, EXAMPLE_PERM, 4)
    assert path_to_factorization(path) == f


def test_bijection_round_trip_unitary():
    perms = [Permutation(p) for p in itertools.permutations(range(1, 4))]
    for s in perms:
        for l in range(5):
            paths = enumerate_paths(U, s, l)
            facts = {path_to_factorization(p) for p in paths}
            assert len(facts) == len(paths)
            for f in facts:
                assert f.target() == s
                assert factorization_to_path(f) in paths
    # and the reverse count through brute force
    by_target = {}
    for l in range(5):
        for f in enumerate_monotone_factorizations(U, 3, l):
            by_target.setdefault((f.target(), l), set()).add(f)
    for s in perms:
        for l in range(5):
            assert len(by_target.get((s, l), set())) == count_paths(U, s, l)


def test_bijection_round_trip_orthogonal():
    for m in all_pair_partitions(2):
        for l in range(5):
            paths = enumerate_paths(O, m, l)
            facts = [path_to_factorization(p) for p in paths]
            assert len(set(facts)) == len(paths)
            for f, p in zip(facts, paths):
                assert f.target() == m
                assert factorization_to_path(f) == p
    by_target = {}
    for l in range(5):
        for f in enumerate_monotone_factorizations(O, 2, l):
            by_target.setdefault((f.target(), l), set()).add(f)
    for m in all_pair_partitions(2):
        for l in range(5):
            assert len(by_target.get((m, l), set())) == count_paths(O, m, l)


def test_factorization_validation():
    with pytest.raises(ValueError):
        MonotoneFactorization(U, 3, ((1, 2), (1, 3)))  # increasing tops
    with pytest.raises(ValueError):
        MonotoneFactorization(O, 2, ((1, 2),))  # even second component
    with pytest.raises(ValueError):
        MonotoneFactorization(A3, 3, ())
    with pytest.raises(ValueError):
        path_to_factorization(Path(A3, Permutation((1,)), ()))


def test_every_monotone_sequence_realizes_a_path():
    # factors only move points at or below their own top, so the rebuild
    # walk never gets stuck: each sequence is some path's annotation
    for l in range(4):
        for f in enumerate_monotone_factorizations(U, 3, l):
            p = factorization_to_path(f)
            assert p.start == f.target()
            assert path_to_factorization(p) == f


def test_orthogonal_duplicate_target_report():
    # whether distinct solid indices may share a non-loop target: record what
    # the small graphs actually do
    collisions = []
    for k in (2, 3):
        for m in all_pair_partitions(k):
            seen = {}
            for step in solid_neighbors(O, m):
                if step.target != m:
                    seen.setdefault(step.target, []).append(step.index)
            for target, idxs in seen.items():
                if len(idxs) > 1:
                    collisions.append((m, target, idxs))
    # observed on every level checked so far: non-loop targets are hit once
    assert collisions == []
