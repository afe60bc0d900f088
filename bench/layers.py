"""Where the traced run hooks into each layer of the program, and how the
spans and counters become per-layer metrics.

Layers are the package modules: ``girth`` in three parts (tree and
inequality engine, assignment checkers, BFS oracle), ``search``,
``lifting``, ``matrices`` with ``gf2``, and ``mindist``.  Every function is
wrapped at each attribute its callers look up: ``search`` imports
``certified_girth`` and ``lift_tailbiting`` by name, so those are wrapped on
the ``search`` module as well as on their own.
"""

from __future__ import annotations

import numpy as np

from tracer import BOOKKEEPING, Tracer

SPAN_LAYER = {
    "girth.grow_trees": "girth_engine",
    "girth.collect_inequalities": "girth_engine",
    "girth.reduce_trees": "girth_engine",
    "girth.complexity_counts": "girth_engine",
    "girth.system_build": "girth_engine",
    "girth.check_batch": "girth_checkers",
    "girth.check": "girth_checkers",
    "girth.certified_girth": "girth_oracle",
    "girth.bfs": "girth_oracle",
    "search.search": "search",
    "search.exhaustive_34": "search",
    "search.sample": "search",
    "lifting.lift_tailbiting": "lifting",
    "matrices.packed": "matrices_gf2",
    "gf2.rank": "matrices_gf2",
    "gf2.nullspace": "matrices_gf2",
    "mindist.min_distance_md": "mindist",
    "mindist.min_weight_codeword": "mindist",
    "mindist.min_distance_bruteforce": "mindist",
}
LAYERS = tuple(dict.fromkeys(SPAN_LAYER.values()))


def _node_pairs(tree) -> int:
    """Same-depth, same-label node pairs of one path tree (depth >= 2)."""
    total = 0
    for lo, hi in tree.levels[2:]:
        _, sizes = np.unique(tree.number[lo:hi], return_counts=True)
        total += int((sizes * (sizes - 1) // 2).sum())
    return total


def _count_trees(tr, args, kwargs, trees):
    tr.counts["girth.tree_nodes"] += sum(t.n_nodes for t in trees)
    tr.counts["girth.node_pairs"] += sum(_node_pairs(t) for t in trees)


def _count_inequalities(tr, args, kwargs, ineqs):
    tr.counts["girth.inequalities"] += len(ineqs)


def _count_reduced(tr, args, kwargs, trees_min):
    tr.counts["girth.reduced_nodes"] += sum(t.kept_count() for t in trees_min)


def _count_batch(tr, args, kwargs, ok):
    tr.counts["girth.check_batch_assignments"] += int(ok.size)
    tr.counts["girth.check_accepted"] += int(ok.sum())


def _count_check(tr, args, kwargs, ok):
    tr.counts["girth.check_calls"] += 1
    tr.counts["girth.check_accepted"] += int(bool(ok))


def _count_search(tr, args, kwargs, result):
    if result is not None:
        tr.counts["search.attempts"] += result.attempts


def _count_bfs(tr, args, kwargs, result):
    h = args[0]
    starts = kwargs.get("start_vertices", args[2] if len(args) > 2 else None)
    tr.counts["girth.bfs_calls"] += 1
    tr.counts["girth.bfs_vertices"] += h.n_rows + h.n_cols
    tr.counts["girth.bfs_starts"] += (h.n_rows + h.n_cols if starts is None
                                      else len(starts))


def _count_lift(tr, args, kwargs, h):
    w, m = args[0], args[1]
    tr.counts["lifting.lift_calls"] += 1
    tr.counts["lifting.ones"] += int((w.entries >= 0).sum()) * m


def _count_rank(tr, args, kwargs, result):
    tr.counts["gf2.rank_columns"] += args[1]


def _count_nullspace(tr, args, kwargs, basis):
    if tr.current() == "mindist.min_distance_bruteforce":
        tr.counts["mindist.enum_codewords"] += 2 ** basis.shape[0]


def _count_bnb(tr, args, kwargs, result):
    tr.counts["mindist.bnb_calls"] += 1


def instrument(tracer: Tracer, prog) -> None:
    """Wrap the public functions of every layer; undo with ``tracer.restore``."""
    girth, search = prog.girth, prog.search
    wrap = tracer.wrap
    wrap(girth, "grow_trees", "girth.grow_trees", _count_trees)
    wrap(girth, "collect_inequalities", "girth.collect_inequalities", _count_inequalities)
    wrap(girth, "reduce_trees", "girth.reduce_trees", _count_reduced)
    wrap(girth, "complexity_counts", "girth.complexity_counts")
    wrap(girth.GirthSystem, "__init__", "girth.system_build")
    wrap(girth.GirthSystem, "check_batch", "girth.check_batch", _count_batch)
    wrap(girth.GirthSystem, "check", "girth.check", _count_check)
    wrap(girth, "girth_bfs_oracle", "girth.bfs", _count_bfs)
    for module in (girth, search):
        wrap(module, "certified_girth", "girth.certified_girth")
    for module in (prog.lifting, search):
        wrap(module, "lift_tailbiting", "lifting.lift_tailbiting", _count_lift)
    wrap(search, "search", "search.search", _count_search)
    wrap(search, "exhaustive_34", "search.exhaustive_34", _count_search)
    wrap(search, "sample_assignment", "search.sample")
    wrap(prog.matrices.SparseParityCheck, "packed", "matrices.packed")
    wrap(prog.gf2, "rank", "gf2.rank", _count_rank)
    wrap(prog.gf2, "nullspace_basis", "gf2.nullspace", _count_nullspace)
    for name in ("min_distance_md", "min_weight_codeword"):
        wrap(prog.mindist, name, f"mindist.{name}", _count_bnb)
    wrap(prog.mindist, "min_distance_bruteforce", "mindist.min_distance_bruteforce")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-round layer metrics as name -> (value, unit); times are self
    times unless the name says otherwise."""
    spans = tracer.summary()

    def self_s(*names: str, key: str = "self_s") -> float:
        return sum(spans[n][key] for n in names if n in spans) / rounds

    def count(name: str) -> float:
        return tracer.counts[name] / rounds

    check_batch_s = self_s("girth.check_batch")
    checked = count("girth.check_batch_assignments") + count("girth.check_calls")
    out = {
        "girth.grow_trees_s": (self_s("girth.grow_trees"), "s"),
        "girth.collect_inequalities_s": (self_s("girth.collect_inequalities"), "s"),
        "girth.reduce_trees_s": (self_s("girth.reduce_trees"), "s"),
        "girth.system_build_s": (self_s("girth.system_build", key="total_s"), "s"),
        "girth.tree_nodes": (count("girth.tree_nodes"), "count"),
        "girth.node_pairs": (count("girth.node_pairs"), "count"),
        "girth.inequalities": (count("girth.inequalities"), "count"),
        "girth.reduced_nodes": (count("girth.reduced_nodes"), "count"),
        "girth.dedup_ratio": (_ratio(count("girth.inequalities"),
                                     count("girth.node_pairs")), "ratio"),
        "girth.check_batch_s": (check_batch_s, "s"),
        "girth.check_batch_assignments": (count("girth.check_batch_assignments"), "count"),
        "girth.check_batch_rate": (_ratio(count("girth.check_batch_assignments"),
                                          check_batch_s), "1/s"),
        "girth.check_accept_ratio": (_ratio(count("girth.check_accepted"), checked), "ratio"),
        "girth.check_s": (self_s("girth.check"), "s"),
        "girth.check_calls": (count("girth.check_calls"), "count"),
        "search.sample_s": (self_s("search.sample"), "s"),
        "search.attempts": (count("search.attempts"), "count"),
        "girth.bfs_s": (self_s("girth.bfs", "girth.certified_girth"), "s"),
        "girth.bfs_calls": (count("girth.bfs_calls"), "count"),
        "girth.bfs_starts": (count("girth.bfs_starts"), "count"),
        "girth.bfs_vertices": (count("girth.bfs_vertices"), "count"),
        "lifting.lift_s": (self_s("lifting.lift_tailbiting"), "s"),
        "lifting.lift_calls": (count("lifting.lift_calls"), "count"),
        "lifting.ones": (count("lifting.ones"), "count"),
        "matrices.packed_s": (self_s("matrices.packed"), "s"),
        "gf2.rank_s": (self_s("gf2.rank"), "s"),
        "gf2.rank_columns": (count("gf2.rank_columns"), "count"),
        "gf2.nullspace_s": (self_s("gf2.nullspace"), "s"),
        "mindist.bnb_s": (self_s("mindist.min_distance_md",
                                 "mindist.min_weight_codeword"), "s"),
        "mindist.bnb_calls": (count("mindist.bnb_calls"), "count"),
        "mindist.enum_s": (self_s("mindist.min_distance_bruteforce"), "s"),
        "mindist.enum_codewords": (count("mindist.enum_codewords"), "count"),
    }
    for layer in LAYERS:
        names = [n for n, lay in SPAN_LAYER.items() if lay == layer]
        out[f"layer.{layer}_s"] = (self_s(*names), "s")
    out["trace.bookkeeping_s"] = (self_s(BOOKKEEPING), "s")
    return out
