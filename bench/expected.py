"""Reference values the benchmark checks the program against.

They are kept here, apart from the program, so that a change to the
program's own tables cannot move the expectation with it.

* ``COMPLEXITY_TABLE``: the paper's table of reduced-tree node totals N_T and
  unique inequality counts N_L for the (3,K) all-ones bases.
* ``ARTIFACT_NT``: the three cells whose published N_T no deterministic
  enumeration has reproduced; both the published and today's value pass.
* ``KNOWN_MIN_M``: the shortest tailbiting length of a (3,4) all-ones code per
  girth (the paper; Tasdighi, Banihashemi and Sadeghi, IEEE Trans. IT, 2016).
* ``CORPUS``: published girth, block length n and dimension of each bundled
  code, keyed by corpus file stem.
* ``DISTANCE``: published minimum distances of the codes the distance
  workload certifies.
"""

COMPLEXITY_TABLE = {
    (4, 8): (53, 42), (4, 10): (150, 231), (4, 12): (269, 519),
    (5, 8): (93, 90), (5, 10): (286, 645), (5, 12): (581, 1905),
    (6, 8): (142, 165), (6, 10): (485, 1470), (6, 12): (1060, 5430),
    (7, 8): (200, 273), (7, 10): (759, 2919), (7, 12): (1742, 12999),
    (8, 8): (267, 420), (8, 10): (1120, 5250), (8, 12): (2663, 27426),
    (9, 8): (343, 612), (9, 10): (1580, 8766), (9, 12): (3859, 52614),
    (10, 8): (428, 855), (10, 10): (2151, 13815), (10, 12): (5358, 93735),
    (11, 8): (522, 1155), (11, 10): (2845, 20790), (11, 12): (7210, 157410),
    (12, 8): (625, 1518), (12, 10): (3674, 30129), (12, 12): (9446, 251889),
}

# (published N_T, N_T of the current first-witness enumeration)
ARTIFACT_NT = {(10, 12): (5358, 5366), (11, 12): (7210, 7220),
               (12, 12): (9446, 9457)}

KNOWN_MIN_M = {8: 9, 10: 37, 12: 73}

# name: (girth, n, dimension)
CORPUS = {
    "g06_k4": (6, 20, 7),
    "g06_k5": (6, 25, 12),
    "g06_k6": (6, 42, 23),
    "g06_k7": (6, 49, 30),
    "g06_k8": (6, 72, 47),
    "g06_k9": (6, 81, 56),
    "g06_k10": (6, 110, 79),
    "g06_k11": (6, 121, 90),
    "g06_k12": (6, 156, 119),
    "g06_k4_ld": (6, 92, 25),
    "g06_k5_ld": (6, 245, 100),
    "g06_k6_ld": (6, 414, 209),
    "g06_k7_ld": (6, 763, 438),
    "g06_k8_ld": (6, 1224, 767),
    "g08_k4": (8, 36, 13),
    "g08_k5": (8, 65, 28),
    "g08_k6": (8, 108, 56),
    "g08_k7": (8, 147, 86),
    "g08_k8": (8, 200, 127),
    "g08_k9": (8, 270, 182),
    "g08_k10": (8, 350, 247),
    "g08_k11": (8, 451, 330),
    "g08_k12": (8, 564, 425),
    "g08_k4_ld": (8, 116, 31),
    "g08_k5_ld": (8, 225, 92),
    "g08_k6_ld": (8, 432, 218),
    "g08_k7_ld": (8, 777, 446),
    "g08_k8_ld": (8, 1280, 802),
    "g08_k9_ld": (8, 1386, 926),
    "g10_k4": (10, 148, 39),
    "g10_k5": (10, 305, 124),
    "g10_k6": (10, 606, 305),
    "g10_k7": (10, 1113, 638),
    "g10_k8": (10, 1752, 1097),
    "g10_k9": (10, 2871, 1916),
    "g10_k10": (10, 4300, 3012),
    "g10_k11": (10, 6160, 4482),
    "g10_k12": (10, 8844, 6635),
    "g10_k4_ld": (10, 176, 46),
    "g12_k4": (12, 292, 75),
    "g12_k5": (12, 815, 328),
    "g12_k6": (12, 1860, 932),
    "g12_k6_alt": (12, 1836, 920),
    "g12_k7": (12, 3962, 2266),
    "g12_k8": (12, 6784, 4242),
    "g12_k9": (12, 12384, 8258),
    "g12_k10": (12, 21030, 14723),
    "g12_k11": (12, 34507, 25098),
    "g12_k12": (12, 56760, 42572),
    "g14_k4": (14, 1812, 453),
    "g14_k5": (14, 9720, 3888),
    "g14_k6": (14, 29978, 14989),
    "g16_k4": (16, 7980, 1995),
    "g16_k5": (16, 51240, 20496),
    "g16_k6": (16, 227032, 113516),
    "g18_k4": (18, 32676, 8169),
    "g18_k5": (18, 271760, 108704),
}

# The corpus workload computes the dimension of every code with n up to this.
RANK_MAX_N = 12384

DISTANCE = {"g06_k4": 6, "g06_k5": 6, "g08_k4": 6, "g08_k5": 10,
            "g10_k4": 14, "g12_k4": 24, "g06_k4_ld": 22, "g08_k4_ld": 24,
            "g10_k4_ld": 24}
