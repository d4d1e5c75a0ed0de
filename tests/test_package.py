import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import tokensieve
from tokensieve.rng import gaussian_matrix


def test_every_export_resolves():
    missing = [name for name in tokensieve.__all__ if not hasattr(tokensieve, name)]
    assert missing == []


def test_readme_library_block_runs():
    # deletions that leave an export or the documented usage behind fail here
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library entry points", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope = {"h_v": gaussian_matrix(1, 40, 8), "h_q": gaussian_matrix(2, 3, 8), "m": 6}
    exec(block, scope)
    assert len(scope["picked"]) == len(scope["order"]) == 6
    assert scope["sel"].params["mode"] == "qcsp"
    assert scope["g"] == sorted(scope["g"]) and len(scope["g"]) == 12


def package_lines_matching(pattern, owner):
    """A "file:line: text" entry for each line that pattern matches in the
    package's modules other than owner."""
    src = Path(tokensieve.__file__).resolve().parent
    return [f"{path.name}:{lineno}: {line.strip()}"
            for path in sorted(src.glob("*.py")) if path.name != owner
            for lineno, line in enumerate(path.read_text().splitlines(), start=1)
            if re.search(pattern, line)]


def test_only_rng_adds_to_a_seed():
    # a caller drawing several streams takes them from rng.derived_seeds,
    # which bounds the seed by its last stream
    assert package_lines_matching(r"seed\s*\+\s*\d|base_seed\s*\+", "rng.py") == []


def test_only_similarity_reads_unit_rows():
    # cosines are raw-row products times inverse norms everywhere; the unit
    # rows are there for tests and the benchmark's tracer
    assert package_lines_matching(r"\.unit\b", "similarity.py") == []


def test_only_hooks_patch_the_walk_or_load_files():
    # tests reach into the greedy walk, load repo scripts by path and trace
    # memory through tests/hooks.py, so a refactor of the walk finds them there
    here = Path(__file__).resolve()
    reach = re.compile(r"spec_from_file_location|tracemalloc\.start"
                       r"|setattr\(\s*(qcsp|GreedyState|[\"']tokensieve\.qcsp)\b")
    found = [f"{path.name}:{lineno}: {line.strip()}"
             for path in sorted(here.parent.glob("test_*.py")) if path != here
             for lineno, line in enumerate(path.read_text().splitlines(), start=1)
             if reach.search(line)]
    assert found == []


@pytest.mark.parametrize("script", ["scripts/pool_digest.py", "scripts/bench_walk.py"])
def test_evidence_scripts_refuse_a_package_from_elsewhere(script, tmp_path):
    # a --src that holds no package falls through to PYTHONPATH; the run must
    # not score that checkout in its place
    root = Path(__file__).resolve().parents[1]
    missing = tmp_path / "no-such-src"
    done = subprocess.run([sys.executable, str(root / script), "--src", str(missing)],
                          env=dict(os.environ, PYTHONPATH=str(root / "src")),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert done.stdout == ""
    assert f"--src {missing} holds no tokensieve" in done.stderr
    assert str(root / "src" / "tokensieve") in done.stderr
