from __future__ import annotations

import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from girthforge.catalog import CORPUS_DIR
from girthforge.cli import main
from girthforge.matrices import emit_degree_matrix, parse_alist, parse_degree_matrix
from girthforge import catalog

from conftest import TOY_TB, TOY_CIRC


@pytest.fixture
def toy_file(tmp_path, toy_degrees) -> str:
    path = tmp_path / "toy.wm"
    path.write_text(emit_degree_matrix(toy_degrees), encoding="ascii")
    return str(path)


def corpus_file(name: str) -> str:
    return str(CORPUS_DIR / f"{name}.wm")


def test_verify_girth_pass(capsys):
    assert main(["verify-girth", corpus_file("g12_k4"), "--girth", "12"]) == 0
    assert "girth 12" in capsys.readouterr().out


def test_verify_girth_fail(toy_file, capsys):
    assert main(["verify-girth", toy_file, "--girth", "6"]) == 4
    assert "girth 4" in capsys.readouterr().out


def test_verify_girth_without_target(toy_file, capsys):
    assert main(["verify-girth", toy_file]) == 0
    assert "girth 4" in capsys.readouterr().out


def test_verify_girth_parse_failure(tmp_path):
    bad = tmp_path / "bad.wm"
    bad.write_text("M=5\n0 -2\n", encoding="ascii")
    with pytest.raises(SystemExit) as exc:
        main(["verify-girth", str(bad)])
    assert exc.value.code == 1


@pytest.mark.parametrize("content", [b"M=5\n0 \xe9\n", b"M=0\n- -\n", b"M=5\n"],
                         ids=["non_ascii", "modulus_zero", "modulus_only"])
def test_verify_girth_malformed_file(tmp_path, capsys, content):
    bad = tmp_path / "bad.wm"
    bad.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["verify-girth", str(bad)])
    assert exc.value.code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_girth_without_modulus(tmp_path, capsys):
    path = tmp_path / "bare.wm"
    path.write_text("0 1\n1 0\n", encoding="ascii")
    with pytest.raises(SystemExit) as exc:
        main(["verify-girth", str(path)])
    assert exc.value.code == 1
    assert "no M= line" in capsys.readouterr().err


def test_min_distance_oracle_unavailable(capsys):
    # g08_k4_ld has dimension 31, past the enumeration oracle's default
    assert main(["min-distance", corpus_file("g08_k4_ld"), "--cap", "8", "--oracle"]) == 1
    out = capsys.readouterr()
    assert out.out.splitlines() == ["d_min >= 8"]
    assert out.err.startswith("error: oracle unavailable: ")


def test_min_distance_with_oracle(capsys):
    assert main(["min-distance", corpus_file("g06_k4"), "--oracle"]) == 0
    out = capsys.readouterr().out
    assert "d_min 6" in out and "agrees" in out


@pytest.mark.parametrize("cap,printed,err", [
    (26, "d_min 6", "error: oracle disagrees: 3 != 6"),
    (5, "d_min >= 5", "error: oracle disagrees: 3 < 5")],
    ids=["exact", "bound"])
def test_min_distance_oracle_disagreement(capsys, monkeypatch, cap, printed, err):
    monkeypatch.setattr("girthforge.cli.min_distance_bruteforce", lambda h: 3)
    assert main(["min-distance", corpus_file("g06_k4"), "--cap", str(cap), "--oracle"]) == 1
    out = capsys.readouterr()
    assert printed in out.out and "oracle d_min" not in out.out
    assert out.err.strip() == err


def test_min_distance_oracle_above_bound(capsys, monkeypatch):
    # an oracle value at or above a lower bound confirms it
    monkeypatch.setattr("girthforge.cli.min_distance_bruteforce", lambda h: 6)
    assert main(["min-distance", corpus_file("g06_k4"), "--cap", "5", "--oracle"]) == 0
    assert capsys.readouterr().out.splitlines() == ["d_min >= 5", "oracle d_min 6"]


def test_min_distance_cap(capsys):
    assert main(["min-distance", corpus_file("g06_k4"), "--cap", "4"]) == 0
    assert "d_min >= 4" in capsys.readouterr().out


def test_min_distance_65_28(capsys):
    assert main(["min-distance", corpus_file("g08_k5")]) == 0
    assert "d_min 10" in capsys.readouterr().out


def test_export_tb_matches_golden(toy_file, tmp_path, capsys):
    out = tmp_path / "h.txt"
    assert main(["export", toy_file, "--format", "tb", "-o", str(out)]) == 0
    dense = np.array([[int(v) for v in line.split()]
                      for line in out.read_text().splitlines()])
    assert np.array_equal(dense, TOY_TB)


def test_export_circulant_matches_golden(toy_file, tmp_path):
    out = tmp_path / "h.txt"
    assert main(["export", toy_file, "--format", "circulant", "-o", str(out)]) == 0
    dense = np.array([[int(v) for v in line.split()]
                      for line in out.read_text().splitlines()])
    assert np.array_equal(dense, TOY_CIRC)


def test_export_alist_round_trips(toy_file, tmp_path):
    out = tmp_path / "h.alist"
    assert main(["export", toy_file, "--format", "alist", "-o", str(out)]) == 0
    h = parse_alist(out.read_text())
    assert np.array_equal(h.to_dense(), TOY_TB)


def test_search_command_writes_results(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "base": {"kind": "all_ones", "j": 3, "k": 4},
        "girth": 8, "m_max": 16, "seed": 1, "budget_secs": 60,
    }))
    outdir = tmp_path / "out"
    assert main(["search", str(cfg), "-o", str(outdir)]) == 0
    sidecar = json.loads((outdir / "result.json").read_text())
    assert sidecar["certified_girth"] >= 8
    assert sidecar["m"] <= 12
    w = parse_degree_matrix((outdir / "result.wm").read_text())
    assert w.modulus == sidecar["m"]


def test_search_command_env_seed(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "base": {"kind": "all_ones", "j": 3, "k": 4},
        "girth": 8, "m_max": 16, "seed": 1, "budget_secs": 60,
    }))
    monkeypatch.setenv("GIRTHFORGE_SEED", "77")
    outdir = tmp_path / "out"
    assert main(["search", str(cfg), "-o", str(outdir)]) == 0
    first = (outdir / "result.wm").read_text()
    sidecar = json.loads((outdir / "result.json").read_text())
    assert sidecar["seed"] == 77
    outdir2 = tmp_path / "out2"
    assert main(["search", str(cfg), "-o", str(outdir2)]) == 0
    assert (outdir2 / "result.wm").read_text() == first


def test_search_command_bad_env_seed(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"base": {"kind": "all_ones", "j": 3, "k": 4},
                               "girth": 8, "m_max": 16, "seed": 1}))
    monkeypatch.setenv("GIRTHFORGE_SEED", "abc")
    assert main(["search", str(cfg), "-o", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_search_infeasible_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "base": {"kind": "all_ones", "j": 3, "k": 4},
        "girth": 14, "m_max": 16,
    }))
    assert main(["search", str(cfg), "-o", str(tmp_path / "o")]) == 3


def test_search_budget_exit_code(tmp_path):
    # M = 43..60 lies between the Moore floor and the known minimum of 73
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "base": {"kind": "all_ones", "j": 3, "k": 4},
        "girth": 12, "m_max": 60, "budget_secs": 0.5,
    }))
    assert main(["search", str(cfg), "-o", str(tmp_path / "o")]) == 2


def test_search_below_the_floor_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "base": {"kind": "all_ones", "j": 3, "k": 4},
        "girth": 12, "m_max": 20, "budget_secs": 600,
    }))
    assert main(["search", str(cfg), "-o", str(tmp_path / "o")]) == 3
    assert "M >= 43" in capsys.readouterr().err


def test_search_malformed_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert main(["search", str(cfg), "-o", str(tmp_path / "o")]) == 1


_GOOD_SEARCH = {"base": {"kind": "all_ones", "j": 3, "k": 4}, "girth": 8, "m_max": 16}


@pytest.mark.parametrize("change,flags", [
    ({"girth": 7}, []),
    ({"girth": 2}, []),
    ({"girth": True}, []),
    ({"base": "x"}, []),
    ({"base": {"kind": "sts", "order": 7}}, []),
    ({"base": {"kind": "shortened_sts"}}, []),
    ({"base": {"kind": "bogus"}}, []),
    ({"base": {"kind": "all_ones"}}, []),
    ({"base": {"kind": "all_ones", "k": "x"}}, []),
    ({"base": {"kind": "code"}}, []),
    ({"base": {"kind": "code", "path": 3}}, []),
    ({"m_max": "10"}, []),
    ({"m_max": 0}, []),
    ({"m_min": 20}, []),
    ({"attempts_per_m": 0}, []),
    ({"jobs": 0}, []),
    ({}, ["--jobs", "0"]),
    ({"budget_secs": 0}, []),
    ({"seed": -1}, []),
    ({"integer_mode": "false"}, []),
    ({"integer_mode": 0}, []),
    ({"integer_mode": True}, []),
    ({"integer_mode": False}, []),
    ({"restrictions": {"zero_mask": "false"}}, []),
    ({"restrictions": {"first_row_ascending": 1}}, []),
], ids=["odd_girth", "girth_2", "bool_girth", "base_not_object", "sts_order_7",
        "sts_no_order", "unknown_kind", "all_ones_no_k", "all_ones_string_k",
        "code_no_path", "code_int_path", "string_m_max", "m_max_0", "m_min_above_m_max",
        "no_attempts", "jobs_0", "jobs_flag_0", "budget_0", "negative_seed",
        "string_integer_mode", "int_integer_mode", "true_integer_mode",
        "false_integer_mode", "string_zero_mask",
        "int_first_row_ascending"])
def test_search_bad_config(tmp_path, capsys, change, flags):
    # each is refused at the boundary, at once, rather than with a traceback
    # or a search that spins until its budget runs out
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_GOOD_SEARCH, **change}))
    t0 = time.monotonic()
    assert main(["search", str(cfg), "-o", str(tmp_path / "o"), *flags]) == 1
    assert time.monotonic() - t0 < 1.0
    assert capsys.readouterr().err.startswith("error: bad config: ")


def test_unwritable_output_paths(tmp_path, toy_file, capsys, monkeypatch):
    # an output path that cannot be written is refused before any search
    monkeypatch.setattr("girthforge.cli.search", lambda cfg: pytest.fail("search started"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_GOOD_SEARCH))
    assert main(["search", str(cfg), "-o", toy_file]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert main(["export", toy_file, "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_failed_result_write_keeps_result(tmp_path, capsys):
    # a write that fails after the search prints the found matrix to stdout
    # and exits 1 with an error line, instead of losing it in a traceback
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"base": {"kind": "all_ones", "j": 3, "k": 4},
                               "girth": 6, "m_max": 8, "seed": 1}))
    (tmp_path / "o" / "result.wm").mkdir(parents=True)
    assert main(["search", str(cfg), "-o", str(tmp_path / "o")]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    w = parse_degree_matrix(captured.out)
    assert w.entries.shape == (3, 4) and w.modulus <= 8


def test_verify_corpus_small(capsys, tmp_path):
    # restrict to a tiny corpus copy to keep the unit test fast
    small = tmp_path / "corpus"
    small.mkdir()
    index = json.loads((CORPUS_DIR / "index.json").read_text())
    subset = {k: v for k, v in index.items() if v["m"] <= 40}
    for meta in subset.values():
        (small / meta["file"]).write_text((CORPUS_DIR / meta["file"]).read_text())
    (small / "index.json").write_text(json.dumps(subset))
    assert main(["verify-corpus", "--dir", str(small), "--max-m", "40"]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_corpus_wrong_girth_fails(capsys, tmp_path):
    # an index that gives g06_k4 girth 8 fails that entry with exit code 4
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    index = json.loads((CORPUS_DIR / "index.json").read_text())
    subset = {k: index[k] for k in ("g06_k4", "g08_k4")}
    for meta in subset.values():
        (corpus / meta["file"]).write_text((CORPUS_DIR / meta["file"]).read_text())
    subset["g06_k4"] = {**subset["g06_k4"], "girth": 8}
    (corpus / "index.json").write_text(json.dumps(subset))
    assert main(["verify-corpus", "--dir", str(corpus)]) == 4
    out = capsys.readouterr().out
    assert "FAIL g06_k4: girth 6 (expected 8" in out
    assert "PASS g08_k4" in out
    assert "1/2 corpus entries verified" in out


def test_verify_corpus_checking_nothing_fails(capsys):
    # a bound below every corpus M leaves nothing to verify, which is no success
    assert main(["verify-corpus", "--max-m", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: no corpus entry has m <= MAX_M\n"
    assert "verified" not in captured.out


def test_verify_corpus_bad_file(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    (corpus / "ok.wm").write_text("M=5\n0 1 2 4\n0 3 1 2\n0 0 0 0\n")
    good = {"file": "ok.wm", "girth": 6, "k": 4, "m": 5, "n": 20, "dim": 7, "d_min": 6}
    (corpus / "index.json").write_text(json.dumps({"x": good}))
    assert main(["verify-corpus", "--dir", str(corpus)]) == 0
    assert "1/1 corpus entries verified" in capsys.readouterr().out
    (corpus / "bad.wm").write_text("M=0\n- -\n")
    (corpus / "index.json").write_text(json.dumps({"bad": {**good, "file": "bad.wm"}}))
    assert main(["verify-corpus", "--dir", str(corpus)]) == 1
    assert "error: bad.wm" in capsys.readouterr().err
    (corpus / "index.json").write_text(json.dumps({"gone": {**good, "file": "missing.wm"}}))
    assert main(["verify-corpus", "--dir", str(corpus)]) == 1
    assert "error: missing.wm" in capsys.readouterr().err
    assert main(["verify-corpus", "--dir", str(tmp_path / "nowhere")]) == 1
    assert "error:" in capsys.readouterr().err
    (corpus / "no_m.wm").write_text("0 1 2 4\n0 3 1 2\n0 0 0 0\n")
    broken = [["ok.wm"], {"x": {"file": "ok.wm"}}, {"x": "ok.wm"}, {"x": None}]
    broken += [{"x": {k: v for k, v in good.items() if k != key}} for key in good]
    broken += [{"x": {**good, "m": "5"}}, {"x": {**good, "file": 3}},
               {"x": {**good, "dim": True}}, {"x": {**good, "d_min": "6"}}]
    # the index must agree with the file's M= line and column count
    broken += [{"x": {**good, "m": 7, "n": 28}}, {"x": {**good, "n": 25}},
               {"x": {**good, "file": "no_m.wm"}}]
    for index in broken:
        (corpus / "index.json").write_text(json.dumps(index))
        assert main(["verify-corpus", "--dir", str(corpus)]) == 1
        assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("body", [b"M=5\n0 1 \xe9\n", b"0 1\n0 1\n", None],
                         ids=["non_ascii", "no_modulus", "missing"])
def test_search_bad_code_base(capsys, tmp_path, body):
    # a non-ASCII byte, a missing M= line, a missing file
    base = tmp_path / "base.wm"
    if body is not None:
        base.write_bytes(body)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"base": {"kind": "code", "path": str(base)},
                               "girth": 8, "m_max": 16, "seed": 1, "budget_secs": 5}))
    assert main(["search", str(cfg), "-o", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_complexity_command(capsys):
    assert main(["complexity", "--k-min", "4", "--k-max", "4", "--girths", "8"]) == 0
    assert "53 42" in capsys.readouterr().out


@pytest.mark.parametrize("args", [
    ["min-distance", "G06_K4", "--cap", "1"],
    ["complexity", "--girths", "7"],
    ["complexity", "--girths", "x"],
    ["complexity", "--girths", "8,,10"],
    ["complexity", "--k-min", "1"],
    ["complexity", "--k-min", "9", "--k-max", "5"],
    ["verify-girth", "G06_K4", "--cap", "-4"],
    ["verify-girth", "G06_K4", "--cap", "3"],
    ["verify-girth", "G06_K4", "--girth", "7"],
    ["verify-girth", "G06_K4", "--girth", "-2"],
    ["no-such-command"],
], ids=["distance_cap_1", "odd_girth", "girth_not_int", "empty_girth", "k_min_1",
        "k_min_above_k_max", "negative_girth_cap", "girth_cap_3", "odd_target_girth",
        "negative_target_girth", "unknown_command"])
def test_bad_arguments_rejected(capsys, args):
    args = [corpus_file("g06_k4") if a == "G06_K4" else a for a in args]
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and captured.out == ""
