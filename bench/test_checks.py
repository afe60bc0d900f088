"""The benchmark's checks accept right answers and reject planted wrong ones.

Run with ``python3 -m pytest bench``; the checks do not import the program.
"""

from __future__ import annotations

from itertools import combinations

import checks
from expected import ARTIFACT_NT, COMPLEXITY_TABLE, CORPUS, RANK_MAX_N

# Published (3,4) codes: girth 6 at M=5 (d_min 6) and girth 8 at M=9.
G06_K4 = ((0, 1, 2, 4), (0, 3, 1, 2), (0, 0, 0, 0))
G08_K4 = ((0, 1, 4, 6), (0, 5, 2, 3), (0, 0, 0, 0))


def lightest_codeword(entries, m, weight):
    """A zero-syndrome column set of the given weight, found by brute force."""
    n = m * len(entries[0])
    for support in combinations(range(n), weight):
        if checks.syndrome_weight(entries, m, support) == 0:
            return support
    return None


def test_own_bfs_finds_published_girth():
    assert checks.lifted_girth(G06_K4, 5, cap=32) == 6
    assert checks.lifted_girth(G08_K4, 9, cap=32) == 8
    assert checks.lifted_girth(G08_K4, 9, cap=6) is None


def test_search_check_accepts_published_code():
    assert checks.check_search_result(8, G08_K4, 9, 8, 8) == []


def test_search_check_rejects_girth_below_target():
    all_zero = ((0, 0, 0, 0),) * 3  # every base 4-cycle lifts to a 4-cycle
    bad = checks.check_search_result(8, all_zero, 9, 8, None)
    assert any("cycle of length 4" in msg for msg in bad)


def test_search_check_rejects_m_below_known_minimum():
    assert any("known minimum" in msg
               for msg in checks.check_search_result(8, G08_K4, 8, 8, None))


def test_search_check_rejects_oracle_verdict_below_target():
    assert checks.check_search_result(8, G08_K4, 9, 8, 6)


def test_complexity_check_accepts_paper_table():
    counts = dict(COMPLEXITY_TABLE)
    assert checks.check_complexity(counts) == []
    counts.update({cell: (today, counts[cell][1])
                   for cell, (_, today) in ARTIFACT_NT.items()})
    assert checks.check_complexity(counts) == []


def test_complexity_check_rejects_perturbed_n_l():
    counts = dict(COMPLEXITY_TABLE)
    nt, nl = counts[(7, 10)]
    counts[(7, 10)] = (nt, nl + 1)
    assert checks.check_complexity(counts) == [
        f"complexity cell (7, 10): N_L {nl + 1} != {nl}"]


def test_complexity_check_rejects_unlisted_artifact_n_t():
    counts = dict(COMPLEXITY_TABLE)
    nt, nl = counts[(12, 12)]
    counts[(12, 12)] = (nt + 1, nl)
    assert len(checks.check_complexity(counts)) == 1


def test_corpus_check_rejects_wrong_girth_and_dimension():
    results = {name: (g, n, dim if n <= RANK_MAX_N else None)
               for name, (g, n, dim) in CORPUS.items()}
    assert checks.check_corpus(results) == []
    results["g10_k4"] = (8, 148, 39)
    results["g12_k9"] = (12, 12384, 8257)
    assert len(checks.check_corpus(results)) == 2


def test_distance_check_accepts_true_witness():
    assert lightest_codeword(G06_K4, 5, 5) is None
    support = lightest_codeword(G06_K4, 5, 6)
    assert support is not None
    entries = {"g06_k4": (G06_K4, 5)}
    assert checks.check_distance(entries, {"g06_k4": (6, True, support)},
                                 {}, {"g06_k4": 6}) == []


def test_distance_check_rejects_off_by_one_distance():
    support = lightest_codeword(G06_K4, 5, 6)
    entries = {"g06_k4": (G06_K4, 5)}
    assert checks.check_distance(entries, {"g06_k4": (7, True, support)}, {}, {})
    assert checks.check_distance(entries, {}, {}, {"g06_k4": 5})
    assert checks.check_distance(entries, {}, {"g06_k4_ld": (12, 11, True)}, {})


def test_distance_check_rejects_witness_with_nonzero_syndrome():
    entries = {"g06_k4": (G06_K4, 5)}
    bad = checks.check_distance(entries, {"g06_k4": (6, True, (0, 1, 2, 3, 4, 5))},
                                {}, {})
    assert bad == ["g06_k4: witness has a nonzero syndrome"]


def test_distance_check_accepts_capped_certificate():
    assert checks.check_distance({}, {}, {"g12_k4": (12, 12, False)}, {}) == []
    assert checks.check_distance({}, {}, {"g12_k4": (26, 24, True)}, {}) == []
