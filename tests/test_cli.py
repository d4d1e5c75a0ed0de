import importlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hooks import skew_gains

from tokensieve import analysis, fusion, oracle
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


def test_prune_names_the_file_of_a_non_finite_entry(tmp_path, capsys):
    p = tmp_path / "inf.csv"
    p.write_text("1,inf\n")
    code = main(["prune", "--tokens", str(p), "--keep", "1",
                 "--out", str(tmp_path / "o.json")])
    assert capsys.readouterr().err == f"error: {p}: non-finite entry at row 0, col 1\n"
    assert code == 1


def test_prune_budget_out_of_range(toks, tmp_path, capsys):
    code = main(["prune", "--tokens", toks, "--keep", "10",
                 "--out", str(tmp_path / "x.json")])
    capsys.readouterr()
    assert code == 2


@pytest.mark.parametrize("ratio", ["1.0", "-0.1"])
def test_prune_ratio_outside_zero_to_one_exits_2(toks, tmp_path, capsys, ratio):
    code = main(["prune", "--tokens", toks, "--ratio", ratio,
                 "--out", str(tmp_path / "x.json")])
    assert "--ratio must lie in [0, 1)" in capsys.readouterr().err
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


@pytest.mark.parametrize("mode, extra, tag", [
    ("script", {"tau": 0.3, "gamma": 5.0, "gsp_keep": 8, "eps": 1e-6}, None),
    ("gsp", {"tau": 0.3, "gamma": 5.0}, "gsp-only"),
    ("qcsp", {"eps": 1e-6}, "qcsp-only"),
    ("random", {"seed": 7}, "baseline"),
    ("topk", {}, "baseline"),
    ("diversity", {"eps": 1e-6}, "baseline"),
])
def test_prune_records_what_each_mode_reads(toks, query, tmp_path, mode, extra, tag):
    # params hold the mode, m and only the inputs the mode reads, and the
    # written document is the one fusion.select builds
    out = str(tmp_path / "sel.json")
    assert main(["prune", "--tokens", toks, "--query", query, "--keep", "4",
                 "--mode", mode, "--seed", "7", "--out", out]) == 0
    sel = read_selection(out)
    assert sel.params == {"mode": mode, "m": 4, **extra}
    if tag:
        assert sel.stage_tags == [tag] * 4
    assert sel == fusion.select(mode, read_matrix(toks), read_matrix(query), 4, seed=7)


def test_prune_qcsp_without_query_is_diversity_only(toks, tmp_path):
    a = str(tmp_path / "a.json")
    b = str(tmp_path / "b.json")
    assert main(["prune", "--tokens", toks, "--keep", "4", "--mode", "qcsp",
                 "--out", a]) == 0
    assert main(["prune", "--tokens", toks, "--keep", "4",
                 "--mode", "diversity", "--out", b]) == 0
    assert read_selection(a).kept == read_selection(b).kept


def test_prune_query_width_mismatch_exits_1(toks, tmp_path, capsys):
    # every mode checks the query, also those that never read it
    q = tmp_path / "wide.emb1"
    write_matrix(gaussian_matrix(12, 2, 6), q)
    for mode in fusion.MODES:
        code = main(["prune", "--tokens", toks, "--query", str(q), "--keep", "3",
                     "--mode", mode, "--out", str(tmp_path / "x.json")])
        assert code == 1, mode
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
    # analyze's distance profile reads the full Gram too, when the profile is
    # written (to stdout with no path, or to --profile-out); a refused run
    # writes no file, and the entropy table alone builds no Gram
    analyze = ["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3"]
    ent, prof = tmp_path / "e.csv", tmp_path / "p.csv"
    for paths in ([], ["--profile-out", str(prof)],
                  ["--entropy-out", str(ent), "--profile-out", str(prof)]):
        assert main(analyze + paths) == 1, paths
        assert "9 tokens" in capsys.readouterr().err
        assert not ent.exists() and not prof.exists()
    assert main(analyze + ["--entropy-out", str(ent)]) == 0
    limited = ent.read_text()
    assert len(limited.splitlines()) == 10
    for mode in ("gsp", "topk", "random"):
        assert main(["prune", "--tokens", toks, "--query", query, "--keep", "3",
                     "--mode", mode, "--out", out]) == 0, mode
    assert main(["score", "--tokens", toks, "--query", query,
                 "--out", str(tmp_path / "s.csv")]) == 0
    monkeypatch.undo()
    assert main(analyze + ["--entropy-out", str(ent)]) == 0
    assert ent.read_text() == limited


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
    skew_gains(monkeypatch, lambda gains: gains * 1.01)
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
    assert "repeats must be >= 1, got 0" in capsys.readouterr().err


@pytest.mark.parametrize("sizes, message", [
    (["--n", "0", "--d", "4", "--keep", "1"], "n must be >= 1, got 0"),
    (["--n", "4", "--d", "0", "--keep", "1"], "d must be >= 1, got 0"),
    (["--n", "4", "--d", "4", "--keep", "9"], "budget must lie in [1, 4], got 9"),
    (["--n", "4", "--d", "4", "--keep", "1", "--repeats", "0"], "repeats must be >= 1, got 0"),
])
def test_bench_names_a_refused_size_and_prints_nothing(sizes, message, capsys):
    # each size is checked by the library call that reads it
    assert main(["bench", *sizes]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


# each command with the number of streams it derives from its seed
@pytest.mark.parametrize("command, streams", [
    (["bench", "--n", "4", "--d", "4", "--keep", "1", "--repeats", "1"], 2),
    (["verify", "--instances", "1"], 20),
    (["synth", "--pattern", "two-region-grid", "--grid-h", "2", "--grid-w", "4",
      "--d", "3"], 2),
], ids=["bench", "verify", "synth"])
def test_a_seed_is_bounded_by_the_streams_derived_from_it(command, streams, tmp_path,
                                                          capsys):
    if command[0] == "synth":
        command = [*command, "--out", str(tmp_path / "g.emb1")]
    top = 2**64 - streams
    assert main([*command, "--seed", str(top)]) == 0
    capsys.readouterr()
    assert main([*command, "--seed", str(top + 1)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: seed must lie in [0, {top}], got {top + 1}\n"


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


@pytest.mark.parametrize("pattern, flags, missing", [
    ("random", [], ["--n"]),
    ("duplicate-blocks", [], ["--n", "--block"]),
    ("two-region-grid", ["--grid-w", "4"], ["--grid-h"]),
    ("equicorrelated", [], ["--n", "--rho"]),
])
def test_synth_missing_flags_exit_2_naming_each(pattern, flags, missing, tmp_path,
                                                capsys):
    out = tmp_path / "x.emb1"
    assert main(["synth", "--pattern", pattern, "--d", "8", *flags,
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{pattern} needs {' and '.join(missing)}" in err
    assert not out.exists()


def test_score_with_a_gamma_that_can_overflow_exits_2(toks, capsys):
    assert main(["score", "--tokens", toks, "--gamma", "2000"]) == 2
    assert "overflow" in capsys.readouterr().err


def test_analyze_outputs(toks, tmp_path, capsys):
    ent = tmp_path / "e.csv"
    prof = tmp_path / "p.csv"
    assert main(["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3",
                 "--entropy-out", str(ent), "--profile-out", str(prof)]) == 0
    capsys.readouterr()
    assert len(ent.read_text().strip().splitlines()) == 10
    assert prof.read_text().startswith("distance,mean_similarity")


def test_analyze_stdout_default(toks, tmp_path, capsys):
    # with no path, stdout is the entropy file, one blank line, the profile file
    analyze = ["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3"]
    ent, prof = tmp_path / "e.csv", tmp_path / "p.csv"
    assert main(analyze + ["--entropy-out", str(ent), "--profile-out", str(prof)]) == 0
    assert capsys.readouterr().out == ""
    assert main(analyze) == 0
    assert capsys.readouterr().out == ent.read_text() + "\n" + prof.read_text()


def test_analyze_profile_out_alone_runs_no_entropy_map(toks, tmp_path, monkeypatch,
                                                      capsys):
    analyze = ["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3"]
    both = tmp_path / "both.csv"
    assert main(analyze + ["--entropy-out", str(tmp_path / "e.csv"),
                           "--profile-out", str(both)]) == 0

    def refuse(*args):
        raise AssertionError("the entropy map ran for the profile alone")

    monkeypatch.setattr(analysis, "local_entropy_map", refuse)
    alone = tmp_path / "p.csv"
    assert main(analyze + ["--profile-out", str(alone)]) == 0
    assert alone.read_bytes() == both.read_bytes()
    assert capsys.readouterr().out == ""


def test_analyze_max_dist_below_one_exits_2(toks, capsys):
    # 0 is a value, not "unset": it must not fall back to the default; past
    # the 3x3 grid's largest distance, h + w - 2 = 4, is refused as well
    for dist in ("0", "-1", "5"):
        assert main(["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3",
                     "--max-dist", dist]) == 2
        assert "max_dist must lie in [1, 4]" in capsys.readouterr().err
    assert main(["analyze", "--tokens", toks, "--grid-h", "3", "--grid-w", "3",
                 "--max-dist", "4"]) == 0
    assert capsys.readouterr().out.rstrip().splitlines()[-1].startswith("4,")


def test_analyze_checks_max_dist_before_it_reads_the_tokens(tmp_path, capsys):
    # a missing file would exit 1; the reach is refused first
    assert main(["analyze", "--tokens", str(tmp_path / "missing.emb1"), "--grid-h", "3",
                 "--grid-w", "3", "--max-dist", "5"]) == 2
    assert capsys.readouterr().err == "error: max_dist must lie in [1, 4], got 5\n"


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


def test_console_script_entry_resolves_to_a_working_main(capsys):
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as f:
        target = tomllib.load(f)["project"]["scripts"]["tokensieve"]
    module, _, attr = target.partition(":")
    entry = getattr(importlib.import_module(module), attr)
    assert entry(["--help"]) == 0
    assert "prune" in capsys.readouterr().out


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    r = subprocess.run([sys.executable, "-m", "tokensieve", "--help"],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
