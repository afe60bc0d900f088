"""Correctness checks that do not rely on the program.

Every check takes plain values (tuples, lists, ints) and returns a list of
failure messages; an empty list means the outputs are correct.  The lifted
graphs used here are built from the degree entries by this module itself,
so a fault in the program's lifting or BFS oracle cannot hide in them.
"""

from __future__ import annotations

from expected import (ARTIFACT_NT, COMPLEXITY_TABLE, CORPUS, DISTANCE,
                      KNOWN_MIN_M, RANK_MAX_N)


def tailbiting_rows(entries, m: int) -> list[list[int]]:
    """Column indices of every row of the tailbiting lift of a degree matrix.

    Edge (i, j) of degree w puts a one at row ((t + w) mod M) * cb + i,
    column t * c + j for every block column t; a negative entry is no edge.
    """
    cb, c = len(entries), len(entries[0])
    rows: list[list[int]] = [[] for _ in range(m * cb)]
    for t in range(m):
        for i, row in enumerate(entries):
            for j, w in enumerate(row):
                if w >= 0:
                    rows[((t + w) % m) * cb + i].append(t * c + j)
    return rows


def lifted_girth(entries, m: int, cap: int) -> int | None:
    """Length of the shortest cycle of the lifted Tanner graph, or None when
    every cycle is longer than ``cap``.

    Shifting all block columns by one maps the tailbiting lift onto itself,
    so every cycle has a copy through a vertex of block 0, and BFS starts
    there only.
    """
    rows = tailbiting_rows(entries, m)
    n_rows = len(rows)
    cb, c = len(entries), len(entries[0])
    adj: list[list[int]] = [[] for _ in range(n_rows + m * c)]
    for r, cols in enumerate(rows):
        for col in cols:
            adj[r].append(n_rows + col)
            adj[n_rows + col].append(r)
    best = cap + 1
    for start in [*range(cb), *(n_rows + j for j in range(c))]:
        dist = {start: 0}
        parent = {start: -1}
        frontier = [start]
        depth = 0
        while frontier and 2 * depth + 1 < best:
            nxt = []
            for u in frontier:
                for x in adj[u]:
                    if x == parent[u]:
                        continue
                    if x in dist:
                        best = min(best, dist[u] + dist[x] + 1)
                    else:
                        dist[x] = depth + 1
                        parent[x] = u
                        nxt.append(x)
            frontier = nxt
            depth += 1
    return best if best <= cap else None


def syndrome_weight(entries, m: int, support) -> int:
    """Number of parity checks of the tailbiting lift that ``support`` fails."""
    cols = set(support)
    return sum(len(cols.intersection(row)) % 2 for row in tailbiting_rows(entries, m))


def check_complexity(counts: dict) -> list[str]:
    """``counts`` maps cells (K, g) of the table to (N_T, N_L)."""
    bad = []
    for cell, (nt, nl) in counts.items():
        nt_want, nl_want = COMPLEXITY_TABLE[cell]
        if nl != nl_want:
            bad.append(f"complexity cell {cell}: N_L {nl} != {nl_want}")
        allowed = ARTIFACT_NT.get(cell, (nt_want,))
        if nt not in allowed:
            bad.append(f"complexity cell {cell}: N_T {nt} not in {allowed}")
    return bad


def check_corpus(results: dict) -> list[str]:
    """``results`` maps each corpus code to (girth, n, dimension or None)."""
    bad = []
    for name, (girth, n, dim) in results.items():
        if name not in CORPUS:
            bad.append(f"corpus code {name} is not in the published table")
            continue
        girth_want, n_want, dim_want = CORPUS[name]
        if girth != girth_want:
            bad.append(f"{name}: girth {girth} != {girth_want}")
        if n != n_want:
            bad.append(f"{name}: n {n} != {n_want}")
        expected_dim = dim_want if n_want <= RANK_MAX_N else None
        if dim != expected_dim:
            bad.append(f"{name}: dimension {dim} != {expected_dim}")
    return bad


def check_search_result(target: int, entries, m: int, girth: int,
                        oracle_girth: int | None) -> list[str]:
    """One search result: degrees in range, M not below the known minimum,
    and girth at least the target by the reported value, by the program's
    oracle (``None`` meaning no cycle within its cap) and by this module's
    own BFS."""
    label = f"g={target} M={m}"
    bad = []
    if any(not 0 <= w < m for row in entries for w in row):
        bad.append(f"{label}: degree outside [0, M)")
        return bad
    if m < KNOWN_MIN_M[target]:
        bad.append(f"{label}: M below the known minimum {KNOWN_MIN_M[target]}")
    if girth < target:
        bad.append(f"{label}: reported girth {girth}")
    if oracle_girth is not None and oracle_girth < target:
        bad.append(f"{label}: program oracle girth {oracle_girth}")
    own = lifted_girth(entries, m, cap=target - 2)
    if own is not None:
        bad.append(f"{label}: cycle of length {own} in the lifted graph")
    return bad


def check_distance(entries: dict, exact: dict, bounds: dict,
                   enumerated: dict) -> list[str]:
    """Distance certificates.

    ``entries`` maps a code name to (degree rows, M); ``exact`` maps it to
    (value, exact flag, witness support), ``bounds`` to (cap, value, exact
    flag) of a capped run, ``enumerated`` to the enumeration oracle's d_min.
    """
    bad = []
    for name, (value, is_exact, support) in exact.items():
        want = DISTANCE[name]
        if not is_exact or value != want:
            bad.append(f"{name}: distance {value} (exact={is_exact}) != {want}")
        if support is None or len(set(support)) != value:
            bad.append(f"{name}: witness weight != {value}")
        else:
            rows, m = entries[name]
            if syndrome_weight(rows, m, support):
                bad.append(f"{name}: witness has a nonzero syndrome")
    for name, (cap, value, is_exact) in bounds.items():
        want = (DISTANCE[name], True) if DISTANCE[name] < cap else (cap, False)
        if (value, is_exact) != want:
            bad.append(f"{name}: cap {cap} gives ({value}, exact={is_exact}), "
                       f"expected {want}")
    for name, value in enumerated.items():
        if value != DISTANCE[name]:
            bad.append(f"{name}: enumeration gives {value} != {DISTANCE[name]}")
        if name in exact and exact[name][0] != value:
            bad.append(f"{name}: branch and bound {exact[name][0]} != enumeration {value}")
    return bad
