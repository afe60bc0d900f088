"""The four workloads: their inputs, the job's operations, and the checks of
their outcomes.

Each workload builds its inputs in ``__init__`` (counted in ``setup_s``) and
returns its job as a list of ``(label, operation)`` pairs.  An operation calls
the program through module attributes looked up at call time, so the traced
run sees every call.  ``check`` runs after the job window and returns failure
messages.

Only search_34 draws inputs from the seed (the seeds of its searches).  The
other three run fixed sets in a fixed order: the paper's table, the bundled
corpus and the codes of the distance certificates.  Their order moves peak
memory (by up to 18% for the corpus), so it stays fixed.
"""

from __future__ import annotations

import random

import numpy as np

import checks
from expected import COMPLEXITY_TABLE, CORPUS, RANK_MAX_N

# The searches of one search_34 round: (girth, number of seeds, m_max).  The
# m_max values sit far above the M any seed reaches, and the time budget
# never binds, so a search always ends at its first certified M.
SEARCH_PLAN = ((8, 10, 24), (10, 3, 96), (12, 2, 192))
SEARCH_BUDGET_S = 600.0
EXHAUSTIVE_M_MAX = 16

# distance_certify: exact distances below cap 26 with a witness, the
# lower-bound certificates at cap 12, and enumeration where k <= 28.
EXACT_CAP, EXACT_CODES = 26, ("g06_k4", "g06_k5", "g08_k4", "g08_k5",
                              "g10_k4", "g12_k4")
BOUND_CAP, BOUND_CODES = 12, ("g06_k4_ld", "g08_k4_ld", "g10_k4_ld", "g12_k4")
ENUM_MAX_DIM = 28

BFS_CAP = 32


def _rows(w) -> list[list[int]]:
    return w.entries.tolist()


class ComplexityTable:
    """complexity_counts on all 27 cells, (3,K) all-ones, K=4..12, g=8/10/12."""

    def __init__(self, prog, seed: int, root) -> None:
        self.prog = prog
        self.bases = {k: prog.bases.all_ones_base(3, k) for k in range(4, 13)}
        self.cells = sorted(COMPLEXITY_TABLE)

    def operations(self):
        return [(cell, lambda cell=cell: self._counts(*cell)) for cell in self.cells]

    def _counts(self, k: int, g: int):
        return tuple(self.prog.girth.complexity_counts(self.bases[k], g))

    def check(self, outcomes: dict) -> list[str]:
        return checks.check_complexity(outcomes)


class Search34:
    """Seeded random searches on the (3,4) all-ones base plus the exhaustive
    scan at g=8."""

    def __init__(self, prog, seed: int, root) -> None:
        self.prog = prog
        rng = random.Random(seed)
        cfg = prog.search.SearchConfig
        self.configs = [
            cfg(base={"kind": "all_ones", "j": 3, "k": 4}, girth=g, m_max=m_max,
                seed=rng.randrange(1, 2**31), budget_secs=SEARCH_BUDGET_S, jobs=1)
            for g, count, m_max in SEARCH_PLAN for _ in range(count)]

    def operations(self):
        ops = [(("search", c.girth, c.seed), lambda c=c: self._search(c))
               for c in self.configs]
        ops.append((("exhaustive", 8), self._exhaustive))
        return ops

    @staticmethod
    def _outcome(result):
        return (tuple(map(tuple, _rows(result.degree))), result.m, result.girth,
                result.attempts)

    def _search(self, cfg):
        return self._outcome(self.prog.search.search(cfg))

    def _exhaustive(self):
        result = self.prog.search.exhaustive_34(8, EXHAUSTIVE_M_MAX)
        return None if result is None else self._outcome(result)

    def m_sum(self, outcomes: dict) -> int:
        """Sum of M reached by the seeded (random) searches."""
        return sum(out[1] for label, out in outcomes.items() if label[0] == "search")

    def check(self, outcomes: dict) -> list[str]:
        bad = []
        exhaustive = outcomes.get(("exhaustive", 8))
        if exhaustive is None or exhaustive[1] != 9:
            bad.append(f"exhaustive_34(g=8) gave {exhaustive}, expected M=9")
        for label, out in outcomes.items():
            if out is None:
                continue
            entries, m, girth, _ = out
            target = label[1]
            w = self.prog.matrices.DegreeMatrix(np.array(entries), modulus=m)
            oracle = self.prog.girth.certified_girth(
                self.prog.lifting.lift_tailbiting(w, m), cap=BFS_CAP)
            bad += checks.check_search_result(target, entries, m, girth, oracle)
        return bad


class CorpusCertify:
    """Lift and BFS-certify all 57 bundled corpus codes; GF(2) dimension of
    every code with n <= 12384."""

    def __init__(self, prog, seed: int, root) -> None:
        self.prog = prog
        paths = sorted((root / "src" / "girthforge" / "corpus").glob("*.wm"))
        if sorted(p.stem for p in paths) != sorted(CORPUS):
            raise ValueError("corpus files differ from the published table")
        parse = prog.matrices.parse_degree_matrix
        self.codes = [(p.stem, parse(p.read_text(encoding="ascii"))) for p in paths]

    def operations(self):
        return [(name, lambda w=w: self._certify(w)) for name, w in self.codes]

    def _certify(self, w):
        h = self.prog.lifting.lift_tailbiting(w, w.modulus)
        girth = self.prog.girth.certified_girth(h, cap=BFS_CAP)
        dim = None
        if h.n_cols <= RANK_MAX_N:
            dim = h.n_cols - self.prog.matrices.gf2_rank(h)
        return girth, h.n_cols, dim

    def check(self, outcomes: dict) -> list[str]:
        return checks.check_corpus(outcomes)


class DistanceCertify:
    """Branch-and-bound distances with witnesses, capped lower-bound
    certificates, and the enumeration oracle on every code with k <= 28."""

    def __init__(self, prog, seed: int, root) -> None:
        self.prog = prog
        names = sorted(set(EXACT_CODES) | set(BOUND_CODES))
        self.codes = {}
        for name in names:
            entry = prog.catalog.BY_NAME[name]
            self.codes[name] = (entry.degree_matrix(), entry.m)
        self.labels = ([("exact", n) for n in EXACT_CODES]
                       + [("bound", n) for n in BOUND_CODES]
                       + [("enum", n) for n in names if CORPUS[n][2] <= ENUM_MAX_DIM])

    def operations(self):
        run = {"exact": self._exact, "bound": self._bound, "enum": self._enum}
        return [(label, lambda label=label: run[label[0]](self.codes[label[1]]))
                for label in self.labels]

    def _exact(self, code):
        dist, support = self.prog.mindist.min_weight_codeword(code, EXACT_CAP)
        return dist.value, dist.exact, support

    def _bound(self, code):
        dist = self.prog.mindist.min_distance_md(code, BOUND_CAP)
        return BOUND_CAP, dist.value, dist.exact

    def _enum(self, code):
        w, m = code
        return self.prog.mindist.min_distance_bruteforce(
            self.prog.lifting.lift_tailbiting(w, m), max_dim=ENUM_MAX_DIM)

    def check(self, outcomes: dict) -> list[str]:
        by_kind = {"exact": {}, "bound": {}, "enum": {}}
        for (kind, name), out in outcomes.items():
            by_kind[kind][name] = out
        entries = {name: (_rows(w), m) for name, (w, m) in self.codes.items()}
        return checks.check_distance(entries, by_kind["exact"], by_kind["bound"],
                                     by_kind["enum"])


WORKLOADS = {
    "complexity_table": ComplexityTable,
    "search_34": Search34,
    "corpus_certify": CorpusCertify,
    "distance_certify": DistanceCertify,
}
