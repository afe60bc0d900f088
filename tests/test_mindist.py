from __future__ import annotations

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from girthforge.bounds import tanner_tree_bound
from girthforge.girth import girth_bfs_oracle
from girthforge.lifting import lift_circulant, lift_tailbiting
from girthforge.matrices import NO_EDGE, DegreeMatrix, SparseParityCheck
from girthforge.mindist import (Distance, min_distance_bruteforce, min_distance_md,
                                min_weight_codeword)
from girthforge import catalog, gf2, mindist

from conftest import reference_branch_and_bound, toggle_row


def code_for(name: str) -> SparseParityCheck:
    entry = catalog.BY_NAME[name]
    return lift_tailbiting(entry.degree_matrix(), entry.m)


@pytest.mark.parametrize("name,expected", [
    ("g06_k4", 6), ("g06_k5", 6), ("g08_k4", 6),
    ("g06_k6", 4), ("g06_k7", 4),
])
def test_md_matches_published_small(name, expected):
    assert min_distance_md(code_for(name), 26) == Distance(expected, True)


# min_weight_codeword(code, 26) as returned by the tuple-of-blocks branch and
# bound: (value, exact, witness support in tailbiting column indices)
WITNESS_PINS = {
    "g06_k4": (6, True, (0, 3, 6, 7, 9, 10)),
    "g06_k5": (6, True, (0, 4, 7, 9, 11, 12)),
    "g08_k4": (6, True, (0, 3, 12, 15, 24, 27)),
    "g08_k5": (10, True, (0, 2, 12, 14, 16, 18, 20, 21, 46, 48)),
    "g10_k4": (14, True, (0, 2, 53, 54, 73, 74, 76, 78, 94, 95, 105, 106, 128, 129)),
    "g12_k4": (24, True, (0, 2, 98, 99, 109, 110, 113, 115, 116, 118, 120, 123, 162,
                          163, 189, 191, 208, 209, 221, 222, 244, 245, 260, 263)),
}


@pytest.mark.parametrize("name", sorted(WITNESS_PINS))
def test_witness_pinned(name):
    dist, support = min_weight_codeword(code_for(name), 26)
    assert (dist.value, dist.exact, support) == WITNESS_PINS[name]


@pytest.mark.parametrize("name", ["g06_k4", "g08_k5", "g10_k4"])
def test_cap_boundary(name):
    # at cap d + 1 the last column meets a budget of one per block: a rule
    # that prunes a block as heavy as its budget loses the codeword
    d = WITNESS_PINS[name][0]
    assert min_distance_md(code_for(name), d + 1) == Distance(d, True)
    assert min_distance_md(code_for(name), d) == Distance(d, False)


@pytest.mark.parametrize("name", ["g06_k4_ld", "g08_k4_ld", "g10_k4_ld", "g12_k4"])
def test_lower_bound_pinned(name):
    assert min_distance_md(code_for(name), 12) == Distance(12, False)


def test_g08_k4_ld_distance_from_two_engines():
    # k = 31 is past the oracle's default max_dim; its three disjoint
    # information sets stop it at message weight 7.  Branch and bound at the
    # CLI's cap returns a witness, which must be a codeword of that weight
    h = code_for("g08_k4_ld")
    assert min_distance_bruteforce(h, max_dim=31) == 24
    dist, support = min_weight_codeword(h, 26)
    assert (dist.value, dist.exact, len(set(support))) == (24, True, 24)
    assert not (h.to_dense()[:, list(support)].sum(axis=1) % 2).any()


def test_md_and_bruteforce_agree_small():
    for name in ("g06_k4", "g06_k5", "g08_k4", "g06_k6"):
        h = code_for(name)
        md = min_distance_md(h, 26)
        assert md.exact
        assert md.value == min_distance_bruteforce(h)


def test_branch_and_bound_restores_recursion_limit():
    # a cap above the recursion limit raises it for the search only
    limit = sys.getrecursionlimit()
    assert min_distance_md(code_for("g06_k4"), limit + 100) == Distance(6, True)
    assert sys.getrecursionlimit() == limit


def test_branch_and_bound_leaves_recursion_limit_alone(monkeypatch):
    # the block engine has no recursion, so a cap far past the limit needs
    # no change to interpreter-global state
    def refuse(limit):
        raise AssertionError("sys.setrecursionlimit called")

    monkeypatch.setattr(sys, "setrecursionlimit", refuse)
    dist, support = min_weight_codeword(code_for("g06_k4"), sys.getrecursionlimit() + 100)
    assert (dist.value, dist.exact, support) == WITNESS_PINS["g06_k4"]


def block_engine(code, t):
    return mindist._branch_and_bound(code, t)[:2]


def random_degree_matrices(seed: int, count: int):
    """Small degree matrices with holes, some with a column of holes."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        cb, c, m = int(rng.integers(1, 4)), int(rng.integers(2, 6)), int(rng.integers(2, 14))
        entries = rng.integers(0, m, size=(cb, c))
        entries[rng.random((cb, c)) < 0.25] = NO_EDGE
        if rng.random() < 0.2:
            entries[:, rng.integers(c)] = NO_EDGE
        yield DegreeMatrix(entries, modulus=m), m


@pytest.mark.parametrize("name", sorted(WITNESS_PINS))
def test_block_engine_matches_recursion_on_pins(name):
    code = code_for(name)
    assert block_engine(code, 26) == reference_branch_and_bound(code, 26)


def test_block_engine_matches_recursion_on_catalog():
    entries = [e for e in catalog.CATALOG if e.m <= 200]
    assert len(entries) > 30
    for entry in entries:
        code = (entry.degree_matrix(), entry.m)
        for t in (4, 8):
            assert block_engine(code, t) == reference_branch_and_bound(code, t), entry.name


# blocks of one and seven nodes split each expansion into many pushed blocks,
# which exercises the pop order
@pytest.mark.parametrize("block,seed", [(1, 164), (7, 764), (7, 701), (2048, 204864)])
def test_block_engine_matches_recursion_on_random_matrices(block, seed, monkeypatch):
    monkeypatch.setattr(mindist, "_BNB_BLOCK", block)
    for w, m in random_degree_matrices(seed, 25):
        for t in range(2, 14):
            assert block_engine((w, m), t) == reference_branch_and_bound((w, m), t), \
                (w.entries.tolist(), m, t)


def test_block_engine_matches_recursion_across_words():
    # with M in 60..140 most blocks start or end inside a word and span two
    # or three, so one column's bits fall in different words; two holes a
    # matrix make columns of unequal weight, a row of holes leaves a block
    # untouched, and a column of holes is a weight-one codeword
    rng = np.random.default_rng(24)
    codes = []
    for _ in range(10):
        cb, c, m = int(rng.integers(2, 5)), int(rng.integers(3, 7)), int(rng.integers(60, 141))
        entries = rng.integers(0, m, size=(cb, c))
        entries[rng.integers(cb, size=2), rng.choice(c, 2, replace=False)] = NO_EDGE
        codes.append((entries, m))
    row_hole, col_hole = (rng.integers(0, 97, size=(4, 4)) for _ in range(2))
    row_hole[rng.integers(4)] = NO_EDGE
    col_hole[:, rng.integers(4)] = NO_EDGE
    codes += [(row_hole, 97), (col_hole, 97)]
    for entries, m in codes:
        code = (DegreeMatrix(entries, modulus=m), m)
        for t in range(2, 10):
            assert block_engine(code, t) == reference_branch_and_bound(code, t), \
                (entries.tolist(), m, t)


def test_large_m_memory_stays_linear():
    # g16_k5 (M=2562, 12x20) has 481 syndrome words a node; a dense table of
    # every column's syndrome would alone take 197 MB
    import tracemalloc

    code = code_for("g16_k5")
    tracemalloc.start()
    try:
        dist = min_distance_md(code, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dist == Distance(8, False)
    assert peak < 100 * 2**20


@pytest.mark.parametrize("t", [2, 8])
def test_edgeless_column_is_weight_one_codeword(t):
    w = DegreeMatrix([[0, NO_EDGE], [1, NO_EDGE]], modulus=3)
    dist, support = min_weight_codeword((w, 3), t)
    assert dist == Distance(1, True) and support == (1,)
    assert reference_branch_and_bound((w, 3), t) == (1, (1,))


def test_edgeless_matrix_has_distance_one():
    w = DegreeMatrix(np.full((2, 3), NO_EDGE), modulus=4)
    assert min_weight_codeword((w, 4), 5) == (Distance(1, True), (0,))
    assert reference_branch_and_bound((w, 4), 5) == (1, (0,))


def test_distance_counters_stay_out_of_equality():
    a, b = Distance(6, True, nodes=10, pruned=3), Distance(6, True)
    assert a == b and str(a) == str(b) == "6"
    assert str(Distance(12, False, nodes=5)) == ">= 12"


def test_distance_counters_shrink_with_the_cap():
    # a lower cap prunes from the first node on, so fewer nodes are expanded
    low, high = (min_distance_md(code_for("g10_k4"), t) for t in (15, 26))
    assert low == high == Distance(14, True)
    assert 0 < low.nodes < high.nodes
    assert low.pruned > 0 and high.pruned > 0


# a row-irregular base: base row 0 misses base column 4, so the table of
# the columns covering each check bit pads block 0's bits with -1, which an
# all-ones or triple-system base never does
PIN_CODES = {
    "irregular_m9": (DegreeMatrix([[6, 8, 5, 6, NO_EDGE, 2], [0, 2, 2, 7, 8, 0],
                                   [4, 7, 1, 7, 1, 4]], modulus=9), 9),
}


def pinned_code(name):
    """(W, M) of a pinned literal or of a catalog code."""
    if name in PIN_CODES:
        return PIN_CODES[name]
    entry = catalog.BY_NAME[name]
    return entry.degree_matrix(), entry.m


# (value, exact, nodes, pruned) of min_distance_md: the counters pin the
# tree the engine walks, not only its answer, so a change to how a node
# finds its path must expand and cut exactly the same nodes
TREE_PINS = {
    ("g10_k4", 26): (14, True, 193_579, 368_242),
    ("g12_k4", 26): (24, True, 202_073, 390_664),
    ("g12_k4", 12): (12, False, 161, 282),
    ("g10_k4_ld", 12): (12, False, 166, 292),
    ("irregular_m9", 14): (4, True, 57, 133),
}


@pytest.mark.parametrize("name,t", sorted(TREE_PINS))
def test_tree_counters_pinned(name, t):
    dist = min_distance_md(pinned_code(name), t)
    assert (dist.value, dist.exact, dist.nodes, dist.pruned) == TREE_PINS[name, t]


def test_answer_from_a_later_root():
    # base columns 2 and 3 are equal, and no shift of base column 0 or 1
    # equals a shift of another, so every weight-2 codeword is a pair of
    # columns t*c + 2, t*c + 3 and avoids base column 0: root 2 finds it
    w = DegreeMatrix([[0, 0, 0, 0], [0, 1, 2, 2], [0, 3, 1, 1]], modulus=7)
    value, support = block_engine((w, 7), 10)
    assert (value, support) == reference_branch_and_bound((w, 7), 10) == (2, (2, 3))
    assert all(col % w.n_cols >= 1 for col in support)
    assert min_distance_bruteforce(lift_tailbiting(w, 7)) == 2


def test_distances_meet_tanner_tree_bound():
    # the tree bound holds for any code of that girth and lightest column,
    # so no published d and no distance an engine pins may fall below it
    def floor(w: DegreeMatrix, girth: int) -> int:
        return tanner_tree_bound(int((w.entries != NO_EDGE).sum(axis=0).min()), girth)

    published = [e for e in catalog.CATALOG if e.d_min is not None]
    assert len(published) > 40
    for entry in published:
        assert entry.d_min >= floor(entry.degree_matrix(), entry.girth), entry.name
    exact = {name: d for name, (d, is_exact, _) in WITNESS_PINS.items() if is_exact}
    exact.update({name: d for (name, _), (d, is_exact, _, _) in TREE_PINS.items() if is_exact})
    for name, d in exact.items():
        w, m = pinned_code(name)
        assert d >= floor(w, girth_bfs_oracle(lift_tailbiting(w, m))), name


def test_toy_code_both_engines(toy_degrees):
    h = lift_tailbiting(toy_degrees, 2)
    md = min_distance_md(h, 10)
    assert md.exact
    assert md.value == min_distance_bruteforce(h)


def test_duplicate_columns_give_distance_two():
    w = DegreeMatrix(np.array([[1, 1], [0, 0], [2, 2]]), modulus=3)
    assert min_distance_md(lift_tailbiting(w, 3), 8) == Distance(2, True)


def test_md_accepts_circulant_layout():
    entry = catalog.BY_NAME["g06_k4"]
    for lift in (lift_circulant, lift_tailbiting):
        h = lift(entry.degree_matrix(), entry.m)
        assert min_distance_md(h, 26) == Distance(6, True)
        w, _ = h.lift
        assert w == entry.degree_matrix() and w.modulus == entry.m


def test_md_rejects_non_circulant_blocks():
    entry = catalog.BY_NAME["g06_k4"]
    for lift in (lift_circulant, lift_tailbiting):
        h = lift(entry.degree_matrix(), entry.m)
        # corrupt one row: no longer a stack of single circulants
        bad = toggle_row(h, 1, {0, 1})
        with pytest.raises(ValueError):
            min_distance_md(bad, 26)
    # a matrix built from a lift's ones carries no degree matrix at all
    plain = SparseParityCheck.from_dense(h.to_dense())
    with pytest.raises(ValueError):
        min_distance_md(plain, 26)


@pytest.mark.parametrize("engine", [min_distance_md, min_weight_codeword])
def test_pair_modulus_checked_like_a_lift(engine):
    # (W, M) goes through the same DegreeMatrix check as lift_tailbiting:
    # g06_k4 has degree 4, so M = 3 would wrap it, and M = 0 has no blocks
    entry = catalog.BY_NAME["g06_k4"]
    w = entry.degree_matrix()
    for m in (3, 0):
        with pytest.raises(ValueError):
            lift_tailbiting(w, m)
        with pytest.raises(ValueError):
            engine((w, m), 26)
    # one W lifts at several M: any M above every degree is a code
    m = entry.m + 1
    assert engine((w, m), 26) == engine(lift_tailbiting(w, m), 26)


def test_md_rejects_tiny_cap():
    with pytest.raises(ValueError):
        min_distance_md(code_for("g06_k4"), 1)


def test_md_lower_bound_contract():
    assert min_distance_md(code_for("g06_k4"), 4) == Distance(4, False)


def test_distance_invariant_under_layout(toy_degrees):
    tb = lift_tailbiting(toy_degrees, 2)
    ci = lift_circulant(toy_degrees, 2)
    assert min_distance_bruteforce(tb) == min_distance_bruteforce(ci)


def test_md_and_bruteforce_agree_irregular_columns():
    from girthforge.matrices import NO_EDGE

    w = DegreeMatrix(np.array([[0, 1, NO_EDGE, 2],
                               [1, NO_EDGE, 0, 3],
                               [2, 0, 1, 4]]), modulus=5)
    h = lift_tailbiting(w, 5)
    md = min_distance_md(h, 12)
    assert md.exact
    assert md.value == min_distance_bruteforce(h)


def test_md_certifies_bound():
    # d = 6 for g06_k4: caps below it certify only the cap as a lower bound
    assert min_distance_md(code_for("g06_k4"), 3) == Distance(3, False)
    assert min_distance_md(code_for("g06_k4"), 5) == Distance(5, False)


def test_monomial_distance_cap_holds():
    # (J+1)! = 24 bounds every monomial-only code; a cap of 26 always settles
    res = min_distance_md(code_for("g06_k4"), 26)
    assert res.exact and res.value <= 24


def test_bruteforce_rejects_large_dimension():
    entry = catalog.BY_NAME["g10_k4"]  # k = 39
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    with pytest.raises(ValueError):
        min_distance_bruteforce(h)


def test_bruteforce_single_zero_column():
    h = SparseParityCheck(1, np.zeros(2, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert min_distance_bruteforce(h) == 1


def reference_distance(h: SparseParityCheck) -> int:
    """d_min from all 2^k messages times a dense generator."""
    g = gf2.nullspace_basis(h.packed(), h.n_cols)
    assert not (h.to_dense().astype(np.int64) @ g.T % 2).any()
    k = g.shape[0]
    messages = (np.arange(1, 2 ** k)[:, None] >> np.arange(k)) & 1
    return int((messages @ g % 2).sum(axis=1).min())


def random_check_matrix(rng, n: int, k: int) -> SparseParityCheck:
    """A dense random (n-k) x n check matrix of full rank, so dimension k."""
    while True:
        dense = rng.integers(0, 2, size=(n - k, n), dtype=np.uint8)
        if gf2.rank(gf2.pack_rows(dense), n) == n - k:
            return SparseParityCheck.from_dense(dense)


# n - k > 64 spans two parity words; k = 1 and 2 leave the back half
# empty; odd and even k split differently
@pytest.mark.parametrize("n,k", [(80, 8), (140, 11), (30, 1), (30, 2), (40, 7),
                                 (40, 12), (20, 5), (64, 6)])
@pytest.mark.parametrize("block", [1 << 16, 1, 40])
def test_bruteforce_matches_generator_reference(n, k, block, monkeypatch):
    # small blocks walk many chunks and a ragged last one
    monkeypatch.setattr(mindist, "_ENUM_BLOCK", block)
    rng = np.random.default_rng(n * 100 + k)
    for _ in range(3):
        h = random_check_matrix(rng, n, k)
        assert min_distance_bruteforce(h) == reference_distance(h)


def planted_pair_check_matrix(rng, n: int, k: int) -> SparseParityCheck:
    """A random check matrix of dimension k whose two free columns i < j are
    made equal, so e_i + e_j is a codeword of message weight 2 and parity
    weight 0.  Column j was free, so it stays free and the rank holds."""
    dense = random_check_matrix(rng, n, k).to_dense()
    basis = gf2.nullspace_basis(gf2.pack_rows(dense), n)
    free = n - 1 - np.argmax(basis[:, ::-1], axis=1)
    i, j = np.sort(rng.choice(free, 2, replace=False))
    dense[:, j] = dense[:, i]
    return SparseParityCheck.from_dense(dense)


@pytest.mark.parametrize("block", [1 << 16, 1, 40])
def test_bruteforce_weight_cut_is_not_too_tight(block, monkeypatch):
    # these codes hold one information set (n < 2k), and high-rate codes
    # have many light codewords, so the best often drops to 3 at message
    # weight 1, before the planted pair is met at weight 2.  A stop one unit
    # early (s*(w + 1) < best - 1) then ends the walk and answers 3.  Blocks
    # of one and 40 elements split each weight's broadcast many ways
    monkeypatch.setattr(mindist, "_ENUM_BLOCK", block)
    for n, k in [(14, 9), (16, 10), (20, 12)]:
        rng = np.random.default_rng(n * 100 + k)
        for _ in range(40):
            h = planted_pair_check_matrix(rng, n, k)
            assert min_distance_bruteforce(h) == reference_distance(h) <= 2


def test_bruteforce_all_zero_column():
    rng = np.random.default_rng(7)
    dense = random_check_matrix(rng, 30, 6).to_dense()
    dense[:, 17] = 0
    h = SparseParityCheck.from_dense(dense)
    assert min_distance_bruteforce(h) == reference_distance(h) == 1


def spread_pair_check_matrix(rng, k: int, tail: int) -> SparseParityCheck:
    """Check matrix of the code of all (u, u P, u Q, u T): the identity and
    two random column permutations of it, three disjoint information sets,
    then a tail T of rank k - 2.  Rows 2.. of T are random, and rows 0 and 1
    both equal y times them, y of weight >= 2, so the u with u T = 0 are
    e0 + e1, e1 + y and e0 + y.  A codeword weighs 3 wt(u) + wt(u T), so
    e0 + e1 gives the only one of weight 6, with two ones on each set, and
    every other weighs 7 or more: a row of T weighs 4 or more, and one
    weighs exactly 4."""
    eye = np.eye(k, dtype=np.uint8)
    while True:
        rest = rng.integers(0, 2, size=(k - 2, tail), dtype=np.uint8)
        y = rng.integers(0, 2, size=k - 2, dtype=np.uint8)
        y[:2] = 1
        t = np.vstack([y @ rest % 2] * 2 + [rest]).astype(np.uint8)
        if (gf2.rank(gf2.pack_rows(rest), tail) == k - 2 and t.any(axis=0).all()
                and t.sum(axis=1).min() == 4):
            break
    g = np.hstack([eye, eye[:, rng.permutation(k)], eye[:, rng.permutation(k)], t])
    return SparseParityCheck.from_dense(gf2.nullspace_basis(gf2.pack_rows(g), g.shape[1]))


@pytest.mark.parametrize("k,tail", [(4, 6), (4, 8), (5, 8), (6, 8), (6, 10), (8, 10)])
def test_bruteforce_stop_rule_on_spread_pair(k, tail):
    # the three sets show every codeword with the same message weight, so
    # after weight 1 the best is 7 and 3 * (1 + 1) = 6 < 7 sends the walk on
    # to weight 2, where the pair lies: a stop one weight early answers 7.
    # The tail's >= k columns hold no fourth set.  A set allowed to reuse
    # columns would take the tail's k - 2 pivots and the first two columns,
    # where the pair still has two ones, and 4 * (1 + 1) >= 7 would stop
    # the walk after weight 1 at 7 as well
    rng = np.random.default_rng(k * 100 + tail)
    for _ in range(3):
        h = spread_pair_check_matrix(rng, k, tail)
        assert min_distance_bruteforce(h) == reference_distance(h) == 6


def test_bruteforce_dimension_limits(monkeypatch):
    with pytest.raises(ValueError):  # k = 0
        min_distance_bruteforce(SparseParityCheck.from_dense(np.eye(6, dtype=np.uint8)))
    # one row reduction gives both the dimension check and the basis, and
    # each information set tried takes one more: here five of full rank and
    # a sixth, on the last five columns, of rank 3.  A dimension over budget
    # raises before the dense basis is unpacked
    h = random_check_matrix(np.random.default_rng(3), 30, 5)
    expected = reference_distance(h)
    calls = {"row_echelon": 0, "unpack_rows": 0}

    def counted(name):
        original = getattr(gf2, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(gf2, name, counted(name))
    assert min_distance_bruteforce(h, max_dim=5) == expected
    assert calls == {"row_echelon": 1 + 6, "unpack_rows": 1 + 5}
    with pytest.raises(ValueError, match="exceeds 4"):
        min_distance_bruteforce(h, max_dim=4)
    assert calls == {"row_echelon": 7 + 1, "unpack_rows": 6}


# d_min of every catalog code with k <= 28 from the meet-in-the-middle
# enumeration that the systematic chunked one replaced.  They equal the
# published values; g06_k4_ld (k = 25) is exact only here, since branch and
# bound pins it as >= 12 at the acceptance cap.
ENUM_PINS = {"g06_k4": 6, "g06_k5": 6, "g06_k6": 4, "g06_k4_ld": 22, "g08_k4": 6,
             "g08_k5": 10}


def test_enumeration_pins_cover_catalog():
    assert sorted(e.name for e in catalog.CATALOG if e.dim <= 28) == sorted(ENUM_PINS)


@pytest.mark.parametrize("name", sorted(ENUM_PINS))
def test_bruteforce_pinned_on_catalog(name):
    expected = ENUM_PINS[name]
    assert min_distance_bruteforce(code_for(name)) == expected
    assert catalog.BY_NAME[name].d_min == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
def test_md_agrees_with_bruteforce_random(seed, m):
    rng = np.random.default_rng(seed)
    w = DegreeMatrix(rng.integers(0, m, size=(3, 4)), modulus=m)
    h = lift_tailbiting(w, m)
    md = min_distance_md(h, 26)
    bf = min_distance_bruteforce(h)
    assert md.exact and md.value == bf
