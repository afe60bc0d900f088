from __future__ import annotations

import itertools

import numpy as np
import pytest

from girthforge.bases import (CANONICAL_STS, SteinerTripleSystem, all_ones_base,
                              base_from_code, order_triples, parse_triples,
                              shorten_sts_base, sts_base, zero_voltage_mask)
from girthforge.lifting import lift_tailbiting
from girthforge.matrices import BaseMatrix
from girthforge import catalog

from conftest import STS9_BASE


def test_all_ones_shapes():
    b = all_ones_base(3, 4)
    assert b.entries.shape == (3, 4) and b.entries.all()
    assert b.regularity == (3, 4)
    assert all_ones_base(2, 2).entries.shape == (2, 2)
    b312 = all_ones_base(3, 12)
    assert b312.entries.sum(axis=1).tolist() == [12] * 3
    assert b312.entries.sum(axis=0).tolist() == [3] * 12
    with pytest.raises(ValueError):
        all_ones_base(1, 4)


def test_canonical_systems_are_valid():
    for order, sts in CANONICAL_STS.items():
        assert sts.order == order
        assert len(sts.triples) == order * (order - 1) // 6


def test_sts_validation_catches_bad_systems():
    with pytest.raises(ValueError):
        SteinerTripleSystem(7, ((0, 1, 2), (0, 1, 3), (2, 3, 4), (4, 5, 6),
                                (1, 4, 5), (2, 5, 6), (0, 3, 6)))
    with pytest.raises(ValueError):
        SteinerTripleSystem(8, ())


def test_sts_validation_names_the_fault():
    fano = ((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5))
    assert len(SteinerTripleSystem(7, fano).triples) == 7
    with pytest.raises(ValueError, match="wrong number of triples"):
        SteinerTripleSystem(7, fano[:-1])
    for bad in ((2, 4, 7), (2, 4, -1), (2, 4, 4)):
        with pytest.raises(ValueError, match="bad triple"):
            SteinerTripleSystem(7, fano[:-1] + (bad,))


def test_sts9_base_matches_golden():
    b = sts_base(CANONICAL_STS[9])
    assert np.array_equal(b.entries, STS9_BASE)
    assert b.entries.sum(axis=0).tolist() == [3] * 12
    assert b.entries.sum(axis=1).tolist() == [4] * 9


def test_shortened_sts9_matches_golden():
    b = shorten_sts_base(sts_base(CANONICAL_STS[9]), 4)
    assert np.array_equal(b.entries, STS9_BASE[:8, :8])
    assert b.entries.sum(axis=0).tolist() == [3] * 8
    assert b.entries.sum(axis=1).tolist() == [3] * 8


def test_shortened_sts13_shape():
    b = shorten_sts_base(sts_base(CANONICAL_STS[13]), 6)
    assert b.entries.shape == (12, 20)
    assert b.regularity == (3, 5)


def test_shorten_rejects_non_sts_layout():
    # sts9's last row has its 4 ones in the last 4 columns: any other k, or
    # those ones moved to the front, fails the layout check itself
    b = sts_base(CANONICAL_STS[9])
    for entries, k in ((b.entries, 3), (b.entries, 5), (b.entries[:, ::-1], 4)):
        with pytest.raises(ValueError, match="STS layout"):
            shorten_sts_base(BaseMatrix(entries), k)


def test_sts_pair_property():
    for order in (9, 13):
        b = sts_base(CANONICAL_STS[order])
        e = b.entries.astype(int)
        overlaps = e @ e.T
        np.fill_diagonal(overlaps, 0)
        assert overlaps.max() <= 1


@pytest.mark.parametrize("j,k", [(1, 2), (2, 2), (3, 4), (3, 13), (4, 5), (6, 13)])
def test_zero_voltage_mask_all_ones(j, k):
    # on an all-ones base the general rule gives the whole first column and
    # last row
    from girthforge.matrices import BaseMatrix

    mask = zero_voltage_mask(BaseMatrix(np.ones((j, k), dtype=np.uint8)))
    assert mask == {(i, 0) for i in range(j)} | {(j - 1, c) for c in range(k)}
    if (j, k) == (3, 4):
        assert mask == {(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (2, 3)}


def test_zero_voltage_mask_sts9_bold_entries():
    bold = {(0, 1), (1, 0), (2, 0), (3, 1), (4, 0), (5, 1),
            (6, 2), (6, 3), (6, 4), (7, 5), (7, 6), (7, 7),
            (8, 8), (8, 9), (8, 10), (8, 11)}
    assert zero_voltage_mask(sts_base(CANONICAL_STS[9])) == bold


def test_zero_voltage_mask_spans_forest():
    # the masked edges must be cycle-free, otherwise the shift argument breaks
    for base in (sts_base(CANONICAL_STS[9]), all_ones_base(3, 6)):
        mask = zero_voltage_mask(base)
        parent: dict[object, object] = {}

        def find(x):
            while parent.get(x, x) != x:
                parent[x] = parent.get(parent[x], parent[x])
                x = parent[x]
            return x

        for (i, j) in mask:
            a, b = find(("r", i)), find(("c", j))
            assert a != b, "mask contains a cycle"
            parent[a] = b


def test_order_triples_concentrates_zeros():
    shuffled = tuple(sorted(CANONICAL_STS[9].triples))
    ordered = order_triples(SteinerTripleSystem(9, shuffled))
    # columns are grouped by their maximum point, ascending left to right,
    # which stacks the zeros into the lower-left corner (canonical layout)
    maxima = [max(t) for t in ordered.triples]
    assert maxima == sorted(maxima)
    assert set(ordered.triples) == set(shuffled)
    # the canonical systems satisfy the same structure
    for order in (9, 13, 25):
        canon_maxima = [max(t) for t in CANONICAL_STS[order].triples]
        assert canon_maxima == sorted(canon_maxima)
    # and the reordered base still supports the shortening step
    shorten_sts_base(sts_base(ordered), 4)


def test_parse_triples_round_trip():
    text = "\n".join(" ".join(map(str, t)) for t in CANONICAL_STS[9].triples)
    sts = parse_triples(text)
    assert sts.triples == CANONICAL_STS[9].triples


@pytest.mark.parametrize("line", ["3 4", "3 4 5 6"])
def test_parse_triples_rejects_lines_without_three_integers(line):
    with pytest.raises(ValueError, match="three integers per line"):
        parse_triples(f"0 1 2\n{line}\n")


def test_base_from_code_preserves_entries():
    from girthforge.matrices import SparseParityCheck

    entry = catalog.BY_NAME["g08_k4"]
    h = lift_tailbiting(entry.degree_matrix(), entry.m)
    b = base_from_code(h)
    assert b.entries.shape == (27, 36)
    assert b.entries.sum(axis=0).tolist() == [3] * 36
    assert b.entries.sum(axis=1).tolist() == [4] * 27
    eye = SparseParityCheck.from_dense(np.eye(2, dtype=np.uint8))
    assert np.array_equal(base_from_code(eye).entries, np.eye(2, dtype=np.uint8))
