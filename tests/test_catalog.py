from __future__ import annotations

import json

import numpy as np
import pytest

from girthforge.catalog import CORPUS_DIR
from girthforge.lifting import lift_tailbiting
from girthforge.matrices import emit_degree_matrix, gf2_rank
from girthforge.mindist import min_weight_codeword
from girthforge import catalog, gf2


def test_block_length_arithmetic():
    # c is the base's column count
    for e in catalog.CATALOG:
        assert e.n == e.m * e.degree_matrix().n_cols, e.name


def test_dimension_never_below_row_count_floor():
    # c - b is the base's row count
    for e in catalog.CATALOG:
        assert e.dim >= e.n - e.m * e.degree_matrix().n_rows, e.name


def test_dimensions_match_rank_small():
    # the two rank engines agree: QC rank of the degree matrix and dense
    # elimination of the lift
    for e in catalog.CATALOG:
        if e.n > 7000:
            continue
        h = lift_tailbiting(e.degree_matrix(), e.m)
        assert h.n_cols == e.n, e.name
        dense = gf2.rank(h.packed(), h.n_cols)
        assert gf2.qc_rank(e.degree_matrix().entries, e.m) == dense, e.name
        assert h.n_cols - dense == e.dim, e.name


def test_every_dimension_machine_checked():
    # the codes past the dense cross-check above, through gf2_rank on the
    # lift; the two with n > 200000 are ranked from their degree matrices,
    # since lifting them (and checking the lift's blocks) costs more
    # than the rank itself
    for e in catalog.CATALOG:
        if e.n <= 7000:
            continue
        if e.n > 200000:
            assert e.n - gf2.qc_rank(e.degree_matrix().entries, e.m) == e.dim, e.name
            continue
        h = lift_tailbiting(e.degree_matrix(), e.m)
        assert h.n_cols - gf2_rank(h) == e.dim, e.name


@pytest.mark.parametrize("name,d", [
    ("g06_k11", 6),   # source prints 4; no four columns sum to zero
    ("g06_k12", 4),   # source prints 6; witness below
    ("g08_k11", 6),   # source prints 8; witness below
])
def test_corrected_distances_have_witnesses(name, d):
    e = catalog.BY_NAME[name]
    h = lift_tailbiting(e.degree_matrix(), e.m)
    dist, support = min_weight_codeword(h, d + 3)
    assert dist.exact and dist.value == d == e.d_min
    dense = h.to_dense()
    assert not (dense[:, list(support)].sum(axis=1) % 2).any()
    assert len(support) == d


def test_g06_k11_has_no_weight_four_codeword():
    # complete scan: no two column pairs share a syndrome
    e = catalog.BY_NAME["g06_k11"]
    dense = lift_tailbiting(e.degree_matrix(), e.m).to_dense()
    cols = [int.from_bytes(np.packbits(dense[:, j], bitorder="little").tobytes(),
                           "little") for j in range(dense.shape[1])]
    seen: dict[int, tuple[int, int]] = {}
    for i in range(len(cols)):
        for j in range(i + 1, len(cols)):
            s = cols[i] ^ cols[j]
            if s in seen and len({*seen[s], i, j}) == 4:
                pytest.fail(f"weight-4 codeword via columns {seen[s]} and {(i, j)}")
            seen.setdefault(s, (i, j))


def test_every_catalog_girth_certifies():
    from girthforge.girth import certified_girth
    from girthforge.lifting import lift_tailbiting

    for e in catalog.CATALOG:
        h = lift_tailbiting(e.degree_matrix(), e.m)
        assert certified_girth(h, cap=e.girth + 2) == e.girth, e.name


def test_every_catalog_code_passes_sorted_checker_at_its_girth_only():
    # the level walker at the published M, with no inequality system: each
    # code passes at its girth and repeats a path voltage at girth + 2
    from girthforge.girth import check_assignment_sorted
    from girthforge.search import degree_matrix_to_assignment

    assert len(catalog.CATALOG) == 57
    for e in catalog.CATALOG:
        w = e.degree_matrix()
        values = degree_matrix_to_assignment(w)
        assert check_assignment_sorted(w.base(), e.girth, values, e.m), e.name
        assert not check_assignment_sorted(w.base(), e.girth + 2, values, e.m), e.name


def test_short_table_distances():
    expected = {"g06_k4": 6, "g06_k5": 6, "g06_k6": 4, "g06_k7": 4, "g06_k8": 4,
                "g06_k9": 4, "g06_k10": 6, "g08_k4": 6, "g08_k5": 10,
                "g08_k6": 10, "g08_k7": 10, "g08_k8": 8, "g08_k9": 8,
                "g08_k10": 8, "g08_k12": 8}
    from girthforge.mindist import min_distance_md
    for name, d in expected.items():
        e = catalog.BY_NAME[name]
        assert e.d_min == d, name
        res = min_distance_md(lift_tailbiting(e.degree_matrix(), e.m), d + 3)
        assert res.exact and res.value == d, name


def test_catalog_loads_the_corpus_in_index_order():
    # the corpus is the one copy: index.json and one canonical .wm per entry
    index = json.loads((CORPUS_DIR / "index.json").read_text(encoding="utf-8"))
    names = [e.name for e in catalog.CATALOG]
    assert names == list(index) and len(names) == 57
    assert sorted(p.name for p in CORPUS_DIR.iterdir()) == sorted(
        [f"{name}.wm" for name in names] + ["index.json"])
    for e in catalog.CATALOG:
        meta = index[e.name]
        assert meta["file"] == f"{e.name}.wm", e.name
        assert {key: meta[key] for key in ("girth", "k", "m", "n", "dim", "d_min")} == {
            "girth": e.girth, "k": e.k, "m": e.m, "n": e.n, "dim": e.dim,
            "d_min": e.d_min}, e.name
        text = emit_degree_matrix(e.degree_matrix()).encode("ascii")
        assert (CORPUS_DIR / meta["file"]).read_bytes() == text, e.name
