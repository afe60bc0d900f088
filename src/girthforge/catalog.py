"""Bundled catalog of known (J=3,K)-regular QC LDPC degree matrices with
certified girth, as reproduced from the published tables.

All-ones entries list the two free rows of the degree matrix (first column
and last row are zero).  Triple-system entries list, for every base column
after the first, the degrees of its first two nonzero entries top to bottom
(the last nonzero entry of each column and the whole first column are zero).

Every entry's girth is re-certified by the BFS oracle in the test suite.
Block lengths, all 57 dimensions, and small minimum distances are verified
against our own GF(2) rank and branch-and-bound engines; six published values
failed that audit and are corrected here (marked ``corrected`` inline): one n
inconsistent with its own M, two dimensions, and three minimum distances
(the g=6 K=11/K=12 pair appears swapped in the source, and explicit
low-weight codewords disprove the other).  Dimensions come from the
quasi-cyclic rank engine, cross-checked by dense elimination up to n = 7000;
the codes with n > 12384 (g12_k10-12, g14_k6, g16_k5, g16_k6, g18_k4,
g18_k5) are checked by the quasi-cyclic engine alone and match as published.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bases import CANONICAL_STS, shorten_sts_base, sts_base
from .matrices import NO_EDGE, BaseMatrix, DegreeMatrix


@dataclass(frozen=True)
class CatalogEntry:
    name: str
    family: str  # all_ones | sts9 | sts13 | s_sts13
    girth: int
    k: int       # row weight K
    m: int       # tailbiting length
    n: int
    dim: int
    d_min: int | None
    rows: tuple[tuple[int, ...], ...]

    def base(self) -> BaseMatrix:
        if self.family == "all_ones":
            from .bases import all_ones_base
            return all_ones_base(3, self.k)
        if self.family == "sts9":
            return sts_base(CANONICAL_STS[9])
        if self.family == "sts13":
            return sts_base(CANONICAL_STS[13])
        if self.family == "s_sts13":
            return shorten_sts_base(sts_base(CANONICAL_STS[13]), 6)
        raise ValueError(self.family)

    def degree_matrix(self) -> DegreeMatrix:
        if self.family == "all_ones":
            first, second = self.rows
            entries = np.zeros((3, self.k), dtype=np.int64)
            entries[0, 1:] = first
            entries[1, 1:] = second
            return DegreeMatrix(entries, modulus=self.m)
        base = self.base()
        first, second = self.rows
        entries = np.full(base.entries.shape, NO_EDGE, dtype=np.int64)
        for j in range(base.n_cols):
            rows = np.nonzero(base.entries[:, j])[0]
            if j == 0:
                entries[rows, 0] = 0
                continue
            entries[rows[0], j] = first[j - 1]
            entries[rows[1], j] = second[j - 1]
            entries[rows[2], j] = 0
        return DegreeMatrix(entries, modulus=self.m)


def _e(name, family, girth, k, m, n, dim, d_min, first, second):
    return CatalogEntry(name, family, girth, k, m, n, dim, d_min,
                        (tuple(first), tuple(second)))


CATALOG: list[CatalogEntry] = [
    # ---- girth 6, short codes -------------------------------------------
    _e("g06_k4", "all_ones", 6, 4, 5, 20, 7, 6, (1, 2, 4), (3, 1, 2)),
    _e("g06_k5", "all_ones", 6, 5, 5, 25, 12, 6, (1, 2, 3, 4), (3, 1, 4, 2)),
    _e("g06_k6", "all_ones", 6, 6, 7, 42, 23, 4, (1, 2, 3, 4, 6), (3, 5, 2, 1, 4)),
    _e("g06_k7", "all_ones", 6, 7, 7, 49, 30, 4,
       (1, 2, 3, 4, 5, 6), (3, 5, 2, 1, 6, 4)),
    _e("g06_k8", "all_ones", 6, 8, 9, 72, 47, 4,
       (1, 2, 3, 4, 5, 7, 8), (3, 6, 2, 1, 8, 5, 4)),
    _e("g06_k9", "all_ones", 6, 9, 9, 81, 56, 4,
       (1, 2, 3, 4, 5, 6, 7, 8), (3, 6, 2, 1, 8, 7, 5, 4)),
    _e("g06_k10", "all_ones", 6, 10, 11, 110, 79, 6,
       (1, 2, 3, 4, 5, 6, 8, 9, 10), (3, 1, 7, 2, 10, 9, 4, 6, 5)),
    # corrected: source lists d_min 4/6 for K=11/12, the codes have 6/4
    _e("g06_k11", "all_ones", 6, 11, 11, 121, 90, 6,
       (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), (3, 1, 7, 2, 10, 9, 8, 4, 6, 5)),
    _e("g06_k12", "all_ones", 6, 12, 13, 156, 119, 4,
       (1, 2, 3, 4, 5, 6, 7, 8, 10, 11, 12), (3, 1, 8, 2, 9, 12, 4, 11, 5, 7, 6)),
    # ---- girth 6, large-distance codes ----------------------------------
    _e("g06_k4_ld", "all_ones", 6, 4, 23, 92, 25, 22, (1, 2, 4), (5, 3, 12)),
    _e("g06_k5_ld", "all_ones", 6, 5, 49, 245, 100, 22,
       (1, 3, 10, 14), (40, 31, 33, 30)),
    _e("g06_k6_ld", "all_ones", 6, 6, 69, 414, 209, 22,
       (3, 4, 21, 26, 67), (34, 15, 64, 33, 44)),
    _e("g06_k7_ld", "all_ones", 6, 7, 109, 763, 438, 22,
       (1, 3, 11, 15, 45, 93), (101, 34, 18, 9, 1, 4)),
    _e("g06_k8_ld", "all_ones", 6, 8, 153, 1224, 767, 22,
       (2, 10, 26, 57, 89, 4, 49), (22, 19, 5, 23, 61, 90, 123)),
    # ---- girth 8, short codes -------------------------------------------
    # corrected: rank is 23, so k = 13 (source prints (36, 11))
    _e("g08_k4", "all_ones", 8, 4, 9, 36, 13, 6, (1, 4, 6), (5, 2, 3)),
    _e("g08_k5", "all_ones", 8, 5, 13, 65, 28, 10, (1, 3, 7, 11), (10, 4, 5, 6)),
    _e("g08_k6", "all_ones", 8, 6, 18, 108, 56, 10,
       (2, 3, 5, 7, 9), (4, 6, 13, 1, 16)),
    _e("g08_k7", "all_ones", 8, 7, 21, 147, 86, 10,
       (2, 3, 8, 15, 17, 20), (4, 6, 7, 9, 12, 13)),
    _e("g08_k8", "all_ones", 8, 8, 25, 200, 127, 8,
       (1, 3, 4, 10, 14, 15, 19), (5, 6, 11, 24, 2, 9, 12)),
    _e("g08_k9", "all_ones", 8, 9, 30, 270, 182, 8,
       (1, 3, 10, 16, 23, 25, 26, 28), (2, 6, 5, 9, 8, 12, 14, 22)),
    _e("g08_k10", "all_ones", 8, 10, 35, 350, 247, 8,
       (2, 6, 7, 18, 19, 26, 29, 31, 34), (4, 5, 3, 13, 10, 16, 12, 11, 23)),
    # corrected: columns (1,8,28,32,353,361) sum to zero, d_min = 6 (source prints 8)
    _e("g08_k11", "all_ones", 8, 11, 41, 451, 330, 6,
       (1, 4, 8, 20, 27, 28, 29, 33, 39, 40),
       (5, 7, 6, 9, 10, 19, 13, 21, 14, 35)),
    _e("g08_k12", "all_ones", 8, 12, 47, 564, 425, 8,
       (3, 7, 8, 22, 24, 27, 29, 35, 40, 41, 43),
       (6, 2, 4, 5, 14, 16, 1, 21, 28, 9, 34)),
    # ---- girth 8, large-distance codes ----------------------------------
    _e("g08_k4_ld", "all_ones", 8, 4, 29, 116, 31, 24, (3, 14, 21), (7, 1, 17)),
    _e("g08_k5_ld", "all_ones", 8, 5, 45, 225, 92, 24,
       (1, 3, 10, 14), (40, 31, 33, 30)),
    # corrected: n = M*c = 432 (source prints 431; k = 218 verifies)
    _e("g08_k6_ld", "all_ones", 8, 6, 72, 432, 218, 24,
       (3, 4, 21, 26, 67), (34, 15, 64, 33, 44)),
    _e("g08_k7_ld", "all_ones", 8, 7, 111, 777, 446, 24,
       (3, 11, 15, 45, 93, 110), (34, 18, 9, 1, 4, 101)),
    _e("g08_k8_ld", "all_ones", 8, 8, 160, 1280, 802, 24,
       (2, 4, 10, 26, 49, 57, 89), (22, 90, 19, 5, 123, 23, 61)),
    _e("g08_k9_ld", "all_ones", 8, 9, 154, 1386, 926, 20,
       (6, 9, 26, 65, 79, 99, 124, 153), (24, 16, 14, 1, 46, 62, 137, 84)),
    # ---- girth 10, short codes ------------------------------------------
    _e("g10_k4", "all_ones", 10, 4, 37, 148, 39, 14, (1, 14, 17), (11, 6, 2)),
    _e("g10_k5", "all_ones", 10, 5, 61, 305, 124, 24,
       (2, 20, 54, 60), (26, 16, 31, 48)),
    _e("g10_k6", "all_ones", 10, 6, 101, 606, 305, 24,
       (2, 24, 25, 54, 85), (21, 15, 11, 8, 59)),
    _e("g10_k7", "all_ones", 10, 7, 159, 1113, 638, 24,
       (2, 14, 27, 67, 97, 130), (21, 24, 1, 6, 75, 58)),
    _e("g10_k8", "all_ones", 10, 8, 219, 1752, 1097, 24,
       (3, 14, 26, 63, 96, 128, 183), (24, 6, 19, 46, 4, 77, 107)),
    _e("g10_k9", "all_ones", 10, 9, 319, 2871, 1916, 24,
       (6, 9, 26, 65, 99, 153, 233, 278), (24, 16, 14, 1, 62, 84, 200, 137)),
    # corrected: k = 3012 (source prints 2912, below the n - M(c-b) floor)
    _e("g10_k10", "all_ones", 10, 10, 430, 4300, 3012, 24,
       (9, 11, 26, 67, 101, 161, 233, 302, 395),
       (23, 5, 1, 54, 33, 96, 120, 104, 244)),
    _e("g10_k11", "all_ones", 10, 11, 560, 6160, 4482, 24,
       (2, 11, 25, 62, 101, 162, 225, 268, 421, 492),
       (24, 21, 5, 55, 6, 59, 178, 132, 204, 311)),
    _e("g10_k12", "all_ones", 10, 12, 737, 8844, 6635, None,
       (2, 22, 23, 63, 101, 147, 219, 322, 412, 569, 601),
       (16, 9, 6, 58, 34, 91, 126, 155, 185, 298, 232)),
    # ---- girth 10, large-distance codes ---------------------------------
    _e("g10_k4_ld", "all_ones", 10, 4, 44, 176, 46, 24, (1, 14, 17), (11, 6, 2)),
    # ---- girth 12, short codes ------------------------------------------
    _e("g12_k4", "all_ones", 12, 4, 73, 292, 75, 24, (2, 25, 33), (18, 6, 5)),
    _e("g12_k5", "all_ones", 12, 5, 163, 815, 328, 24,
       (5, 33, 42, 117), (36, 35, 25, 57)),
    _e("g12_k6", "all_ones", 12, 6, 310, 1860, 932, 24,
       (1, 24, 38, 145, 246), (16, 36, 5, 82, 110)),
    _e("g12_k6_alt", "all_ones", 12, 6, 306, 1836, 920, 24,
       (9, 36, 38, 154, 204), (33, 1, 13, 54, 123)),
    _e("g12_k7", "all_ones", 12, 7, 566, 3962, 2266, None,
       (3, 10, 33, 147, 297, 442), (31, 22, 4, 93, 133, 219)),
    _e("g12_k8", "all_ones", 12, 8, 848, 6784, 4242, None,
       (4, 24, 31, 143, 303, 498, 652), (32, 9, 6, 70, 130, 193, 222)),
    _e("g12_k9", "all_ones", 12, 9, 1376, 12384, 8258, None,
       (4, 20, 32, 160, 284, 569, 794, 1133),
       (30, 7, 1, 92, 169, 350, 437, 645)),
    _e("g12_k10", "all_ones", 12, 10, 2103, 21030, 14723, None,
       (6, 13, 28, 150, 291, 565, 678, 1258, 1600),
       (30, 16, 5, 64, 225, 207, 491, 838, 746)),
    _e("g12_k11", "all_ones", 12, 11, 3137, 34507, 25098, None,
       (9, 11, 24, 150, 306, 508, 666, 1279, 1765, 1958),
       (31, 28, 1, 83, 131, 160, 429, 550, 956, 1391)),
    _e("g12_k12", "all_ones", 12, 12, 4730, 56760, 42572, None,
       (3, 15, 22, 140, 286, 537, 811, 1113, 1878, 2524, 3349),
       (31, 26, 1, 66, 95, 210, 373, 729, 878, 1365, 1644)),
    # ---- girth 14 to 18, triple-system bases ----------------------------
    _e("g14_k4", "sts9", 14, 4, 151, 1812, 453, None,
       (0, 123, 36, 3, 2, 79, 4, 7, 52, 4, 1),
       (0, 96, 23, 11, 1, 37, 12, 2, 61, 1, 4)),
    _e("g14_k5", "s_sts13", 14, 5, 486, 9720, 3888, None,
       (423, 0, 437, 5, 237, 235, 170, 333, 260, 109, 241, 2, 114, 5, 2, 428,
        92, 228, 299),
       (0, 0, 0, 445, 465, 51, 440, 22, 111, 307, 433, 4, 285, 2, 1, 4, 113,
        282, 5)),
    _e("g14_k6", "sts13", 14, 6, 1153, 29978, 14989, None,
       (1037, 0, 1051, 1105, 933, 1027, 962, 1000, 665, 805, 646, 2, 906, 5,
        2, 1095, 788, 633, 913, 264, 51, 772, 672, 686, 737),
       (0, 0, 0, 1112, 1132, 51, 1107, 22, 807, 921, 1100, 4, 952, 2, 1, 4,
        905, 949, 5, 0, 1111, 922, 620, 351, 140)),
    _e("g16_k4", "sts9", 16, 4, 665, 7980, 1995, None,
       (0, 468, 99, 3, 2, 305, 43, 9, 251, 3, 2),
       (0, 351, 41, 6, 8, 215, 18, 1, 79, 1, 8)),
    _e("g16_k5", "s_sts13", 16, 5, 2562, 51240, 20496, None,
       (937, 0, 1551, 1264, 1670, 2119, 1973, 1960, 1848, 1223, 1806, 15,
        1761, 1, 2, 2175, 1169, 1768, 548),
       (0, 0, 0, 2367, 2491, 126, 2296, 66, 1197, 582, 2200, 9, 1836, 2, 1,
        0, 1757, 1833, 4)),
    _e("g16_k6", "sts13", 16, 6, 8732, 227032, 113516, None,
       (8328, 0, 8393, 8106, 7840, 8289, 8143, 8130, 6821, 7393, 6779, 15,
        7931, 1, 2, 8345, 7339, 6741, 7390, 1557, 498, 6357, 5666, 5001,
        1684),
       (0, 0, 0, 8537, 8661, 126, 8466, 66, 7367, 7424, 8370, 9, 8006, 2, 1,
        0, 7927, 8003, 4, 0, 8412, 5799, 4553, 2142, 6293)),
    _e("g18_k4", "sts9", 18, 4, 2723, 32676, 8169, None,
       (0, 853, 217, 6, 2, 1108, 75, 20, 586, 1, 5),
       (0, 1797, 97, 3, 4, 485, 33, 37, 246, 1, 5)),
    _e("g18_k5", "s_sts13", 18, 5, 13588, 271760, 108704, None,
       (10484, 0, 12275, 10611, 9703, 10786, 10227, 11122, 3263, 7933, 3129,
        21, 9554, 1, 2, 12183, 7837, 3084, 8297),
       (0, 0, 0, 12012, 13041, 498, 12534, 223, 7947, 8356, 12213, 13, 10701,
        2, 1, 0, 9550, 10698, 4)),
]

BY_NAME = {entry.name: entry for entry in CATALOG}


def entries(girth: int | None = None, max_m: int | None = None) -> list[CatalogEntry]:
    out = CATALOG
    if girth is not None:
        out = [e for e in out if e.girth == girth]
    if max_m is not None:
        out = [e for e in out if e.m <= max_m]
    return list(out)
