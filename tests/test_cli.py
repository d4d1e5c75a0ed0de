import shutil
import subprocess
import sys

import numpy as np
import pytest

from tokensieve import oracle
from tokensieve.cli import main
from tokensieve.rng import gaussian_matrix
from tokensieve.tensor_io import read_matrix, read_selection, write_matrix


@pytest.fixture
def toks(tmp_path):
    p = tmp_path / "toks.emb1"
    write_matrix(gaussian_matrix(11, 9, 5), p)
    return str(p)


@pytest.fixture
def query(tmp_path):
    p = tmp_path / "q.emb1"
    write_matrix(gaussian_matrix(12, 2, 5), p)
    return str(p)


def test_prune_keep_all_identity(toks, tmp_path):
    out = str(tmp_path / "sel.json")
    assert main(["prune", "--tokens", toks, "--keep", "9", "--out", out]) == 0
    sel = read_selection(out)
    assert sorted(sel.kept) == list(range(9))


def test_prune_ratio_table_anchor(tmp_path):
    p = tmp_path / "big.emb1"
    write_matrix(gaussian_matrix(1, 576, 4), p)
    out = str(tmp_path / "sel.json")
    assert main(["prune", "--tokens", str(p), "--ratio", "0.889",
                 "--out", out]) == 0
    assert read_selection(out).budget == 64


def test_prune_flag_conflict_exits_2(toks, tmp_path, capsys):
    out = str(tmp_path / "x.json")
    code = main(["prune", "--tokens", toks, "--keep", "3", "--ratio", "0.5",
                 "--out", out])
    capsys.readouterr()
    assert code == 2


def test_prune_needs_budget_flag(toks, tmp_path, capsys):
    code = main(["prune", "--tokens", toks, "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


def test_prune_missing_file_exits_1(tmp_path, capsys):
    code = main(["prune", "--tokens", str(tmp_path / "none.emb1"),
                 "--keep", "2", "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 1


def test_prune_budget_out_of_range(toks, tmp_path, capsys):
    code = main(["prune", "--tokens", toks, "--keep", "10",
                 "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


def test_prune_modes_and_tags(toks, query, tmp_path):
    for mode, tag in (("script", None), ("gsp", "gsp-only"),
                      ("qcsp", "qcsp-only"), ("random", "baseline"),
                      ("topk", "baseline"), ("diversity", "baseline")):
        out = str(tmp_path / f"{mode}.json")
        assert main(["prune", "--tokens", toks, "--query", query,
                     "--keep", "4", "--mode", mode, "--out", out]) == 0
        sel = read_selection(out)
        assert len(sel.kept) == 4
        if tag:
            assert sel.stage_tags == [tag] * 4


def test_prune_qcsp_without_query_is_diversity_only(toks, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["prune", "--tokens", toks, "--keep", "4", "--mode", "qcsp",
                 "--out", a]) == 0
    assert main(["prune", "--tokens", toks, "--keep", "4",
                 "--mode", "diversity", "--out", b]) == 0
    assert read_selection(a).kept == read_selection(b).kept


def test_prune_query_width_mismatch_exits_1(toks, tmp_path, capsys):
    q = tmp_path / "wide.emb1"
    write_matrix(gaussian_matrix(12, 2, 6), q)
    code = main(["prune", "--tokens", toks, "--query", str(q), "--keep", "3",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "width" in capsys.readouterr().err


def test_gram_size_limit_exits_1_where_a_gram_is_built(toks, query, tmp_path,
                                                      monkeypatch, capsys):
    from tokensieve import similarity
    monkeypatch.setattr(similarity, "MAX_GRAM_BYTES", 8 * 9 * 9 - 1)  # toks: n = 9
    out = str(tmp_path / "x.json")
    for mode in ("script", "qcsp", "diversity"):
        assert main(["prune", "--tokens", toks, "--query", query, "--keep", "3",
                     "--mode", mode, "--out", out]) == 1, mode
        assert "9 tokens" in capsys.readouterr().err
    for mode in ("gsp", "topk", "random"):
        assert main(["prune", "--tokens", toks, "--query", query, "--keep", "3",
                     "--mode", mode, "--out", out]) == 0, mode
    assert main(["score", "--tokens", toks, "--query", query,
                 "--out", str(tmp_path / "s.csv")]) == 0


def test_prune_topk_requires_query(toks, tmp_path, capsys):
    code = main(["prune", "--tokens", toks, "--keep", "2", "--mode", "topk",
                 "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


def test_prune_deterministic(toks, query, tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        assert main(["prune", "--tokens", toks, "--query", query,
                     "--keep", "3", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_score_columns_and_fallback(tmp_path, capsys):
    p = tmp_path / "two.emb1"
    write_matrix(np.array([[1.0, 0.0], [1.0, 0.0]], dtype=np.float32), p)
    assert main(["score", "--tokens", str(p)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == ("index,redundancy_score,degree,mean_sim,"
                        "used_fallback,relevance_raw,relevance_norm")
    assert len(lines) == 3
    for row in lines[1:]:
        cells = row.split(",")
        assert cells[2] == "1"      # identical pair sits above tau
        assert cells[5] == cells[6] == ""


def test_score_with_query(toks, query, tmp_path):
    out = tmp_path / "s.csv"
    assert main(["score", "--tokens", toks, "--query", query,
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 10
    norms = [float(r.split(",")[6]) for r in lines[1:]]
    assert max(norms) == 1.0 and min(norms) >= 1e-6


def test_verify_small_run_passes(capsys):
    assert main(["verify", "--instances", "1"]) == 0
    out = capsys.readouterr().out
    assert "negative-correlation-witness" in out
    assert "FAIL" not in out


def test_verify_needs_an_instance(capsys):
    # 0 divided by zero and a negative count ran checks on no instance
    for count in ("0", "-3"):
        assert main(["verify", "--instances", count]) == 2
    assert "instances must be >= 1" in capsys.readouterr().err


def test_verify_detects_corrupted_greedy(monkeypatch, capsys):
    from tokensieve import qcsp
    orig = qcsp.GreedyState._steps

    def corrupted(self, t_start, t_stop):
        done, exhausted = orig(self, t_start, t_stop)
        for t in range(t_start, done):
            self.gains[t] *= 1.01
        return done, exhausted

    monkeypatch.setattr(qcsp.GreedyState, "_steps", corrupted)
    code = main(["verify", "--instances", "5"])
    out = capsys.readouterr().out
    assert code == 1
    assert "FAIL marginal-gain" in out


def test_bench_reports_median(capsys):
    assert main(["bench", "--n", "32", "--d", "8", "--keep", "4",
                 "--repeats", "1"]) == 0
    out = capsys.readouterr().out
    assert "median=" in out and "min=" in out


def test_bench_degenerate_single_token(capsys):
    assert main(["bench", "--n", "1", "--d", "4", "--keep", "1",
                 "--repeats", "1"]) == 0
    capsys.readouterr()


def test_bench_invalid_sizes(capsys):
    assert main(["bench", "--n", "0", "--d", "4", "--keep", "1"]) == 2
    assert main(["bench", "--n", "4", "--d", "4", "--keep", "9"]) == 2
    assert main(["bench", "--n", "4", "--d", "4", "--keep", "1",
                 "--repeats", "0"]) == 2
    assert "repeats=0" in capsys.readouterr().err


def test_synth_equicorrelated_gram(tmp_path, capsys):
    out = tmp_path / "eq.emb1"
    assert main(["synth", "--pattern", "equicorrelated", "--n", "4",
                 "--d", "8", "--rho", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    m = read_matrix(out).astype(np.float64)
    np.testing.assert_allclose(m @ m.T, oracle.equicorrelation_matrix(4, 0.5),
                               atol=1e-6)


def test_synth_duplicate_blocks(tmp_path, capsys):
    out = tmp_path / "blk.emb1"
    assert main(["synth", "--pattern", "duplicate-blocks", "--n", "12",
                 "--d", "6", "--block", "4", "--out", str(out)]) == 0
    capsys.readouterr()
    m = read_matrix(out)
    assert len({r.tobytes() for r in m}) == 3


def test_synth_seed_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.emb1", tmp_path / "b.emb1"
    for out in (a, b):
        assert main(["synth", "--pattern", "random", "--n", "6", "--d", "4",
                     "--seed", "9", "--out", str(out)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_synth_two_region_grid_size(tmp_path, capsys):
    out = tmp_path / "g.emb1"
    assert main(["synth", "--pattern", "two-region-grid", "--grid-h", "3",
                 "--grid-w", "4", "--d", "5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert read_matrix(out).shape == (12, 5)


def test_synth_parameter_errors(tmp_path, capsys):
    out = str(tmp_path / "x.emb1")
    assert main(["synth", "--pattern", "equicorrelated", "--n", "4",
                 "--d", "8", "--out", out]) == 2      # missing --rho
    assert main(["synth", "--pattern", "equicorrelated", "--n", "4",
                 "--d", "8", "--rho", "-0.5", "--out", out]) == 2
    assert main(["synth", "--pattern", "duplicate-blocks", "--n", "9",
                 "--d", "4", "--block", "2", "--out", out]) == 2
    capsys.readouterr()


def test_analyze_outputs(toks, tmp_path, capsys):
    ent = tmp_path / "e.csv"
    prof = tmp_path / "p.csv"
    assert main(["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3",
                 "--entropy-out", str(ent), "--profile-out", str(prof)]) == 0
    capsys.readouterr()
    assert len(ent.read_text().strip().splitlines()) == 10
    assert prof.read_text().startswith("distance,mean_similarity")


def test_analyze_stdout_default(toks, capsys):
    assert main(["analyze", "--tokens", toks, "--grid-h", "3",
                 "--grid-w", "3"]) == 0
    out = capsys.readouterr().out
    assert "index,entropy" in out and "distance,mean_similarity" in out


def test_analyze_max_dist_below_one_exits_2(toks, capsys):
    # 0 is a value, not "unset": it must not fall back to the default
    for dist in ("0", "-1"):
        assert main(["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3",
                     "--max-dist", dist]) == 2
    capsys.readouterr()


def test_analyze_one_cell_grid_defaults_max_dist_to_one(tmp_path, capsys):
    p = tmp_path / "one.emb1"
    write_matrix(gaussian_matrix(3, 1, 5), p)
    assert main(["analyze", "--tokens", str(p), "--grid-h", "1", "--grid-w", "1"]) == 0
    out = capsys.readouterr().out
    assert out.rstrip().endswith("distance,mean_similarity\n1,nan")


def test_prune_undecodable_csv_exits_1_naming_the_file(tmp_path, capsys):
    p = tmp_path / "bin.csv"
    p.write_bytes(b"\xff\xfe\x00garbage")
    code = main(["prune", "--tokens", str(p), "--keep", "1",
                 "--out", str(tmp_path / "x.json")])
    assert code == 1
    assert "bin.csv" in capsys.readouterr().err


def test_console_script_help():
    exe = shutil.which("tokensieve")
    if exe is None:
        pytest.skip("console script not on PATH")
    r = subprocess.run([exe, "--help"], capture_output=True, text=True)
    assert r.returncode == 0
    assert "prune" in r.stdout


def test_module_entry_point():
    r = subprocess.run([sys.executable, "-m", "tokensieve", "--help"],
                       capture_output=True, text=True)
    assert r.returncode == 0
