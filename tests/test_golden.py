"""Golden fixtures: fixed script-mode selections pinned by hash.

Each case records the sha256 of the selection's `kept` indices and
`stage_tags`, and the length, flush count and catch-up count of the greedy
walk that produced them.  A change that moves any kept token, any tag, the
walk's stopping point or its number of panel flushes or catch-ups fails
here, however small the numerical change behind it.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hooks import load_file, record_walks

from tokensieve import fusion
from tokensieve.rng import gaussian_matrix


def _desk_scale():
    # the instance of `tokensieve bench --n 2880 --d 1024 --keep 320 --seed 0`
    return gaussian_matrix(0, 2880, 1024), gaussian_matrix(1, 8, 1024), 320


def _grid576():
    # 24 directions, each repeated in 12 noisy copies (cosine ~0.8, so the
    # redundancy degree branch runs), followed by 288 independent rows
    # (every one falls back to its mean similarity)
    base = gaussian_matrix(2, 24, 1024)
    h_v = np.vstack([np.repeat(base, 12, axis=0), gaussian_matrix(3, 288, 1024)])
    h_v[:288] += 0.5 * gaussian_matrix(4, 288, 1024)
    h_q = base[0] + gaussian_matrix(5, 8, 1024)
    return h_v, h_q, 64


def _clip12x196():
    # 12 frames of 196 tokens, each the previous frame plus 0.15 noise, so
    # most tokens have near-copies in the other frames: a walk of 1259 steps
    # with 9 panel flushes, far past the kernel's rank d=256
    frames = [gaussian_matrix(6, 196, 256)]
    for f in range(1, 12):
        frames.append(frames[-1] + 0.15 * gaussian_matrix(6 + f, 196, 256))
    return np.vstack(frames), gaussian_matrix(18, 8, 256), 264


def _clip24x196():
    # 24 frames built as in _clip12x196, n = 4704: a walk of 2319 steps
    # with 18 panel flushes.  Its hash was taken while selections above
    # n = 4096 ran a separate unflushed walk, so the dense walk must match it
    frames = [gaussian_matrix(30, 196, 256)]
    for f in range(1, 24):
        frames.append(frames[-1] + 0.15 * gaussian_matrix(30 + f, 196, 256))
    return np.vstack(frames), gaussian_matrix(54, 8, 256), 528


def _frame196():
    # one 14x14 video frame: 6 directions, each repeated in 12 noisy copies
    # (cosine ~0.8), followed by 124 independent rows; a walk of 95 steps
    # in one extend call that never fills the panel
    base = gaussian_matrix(20, 6, 1024)
    h_v = np.vstack([np.repeat(base, 12, axis=0), gaussian_matrix(21, 124, 1024)])
    h_v[:72] += 0.5 * gaussian_matrix(22, 72, 1024)
    h_q = base[1] + gaussian_matrix(23, 8, 1024)
    return h_v, h_q, 22


# name: (instance, sha256 of [kept, stage_tags] as JSON, greedy walk length,
# panel flushes and catch-ups of the walk)
GOLDEN = {
    "clip2352": (_clip12x196,
                 "d74568cb599e9a12e0a4980de8d8618d086a01e9dbeadebbf3939e53903ee786", 1259, 9,
                 14),
    "clip4704": (_clip24x196,
                 "9ab046ad23ca507a719166f699fd3bbdc0cb19663563744256ce5bd38f0bfa31", 2319, 18,
                 21),
    "desk2880": (_desk_scale,
                 "5ec01e927bbcdcbe88fd1a4c229f8717efe30340e29597ba90c4ea62298ee7a4", 1375, 10,
                 11),
    "frame196": (_frame196,
                 "ee742e2fc9e1deb7ecd023910dc007012b5efc5ac56327a4a40aa5bd235ff329", 95, 0, 0),
    "grid576": (_grid576,
                "792b0d0b7233e94888543ab38b0ec716f865b424d640b2636ce1595acf0c3d92", 209, 0, 0),
}


def selection_digest(kept, tags) -> str:
    return hashlib.sha256(json.dumps([list(kept), list(tags)]).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_selection(name, monkeypatch):
    make, digest, walk, flushes, catch_ups = GOLDEN[name]
    h_v, h_q, m = make()
    walks = record_walks(monkeypatch)
    sel = fusion.script_select(h_v, h_q, m)
    walked = [counts for _, *counts in walks]  # each count only grows
    assert ((selection_digest(sel.kept, sel.stage_tags), *max(walked))
            == (digest, walk, flushes, catch_ups))


def test_golden_selections_hold_with_two_blas_threads():
    # the flushing cases, rerun in a child process whose BLAS uses two
    # threads; naming the parametrized node ids keeps the child from
    # running this test again
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="2",
               PYTHONPATH=str(root / "src"))
    ids = [f"tests/test_golden.py::test_golden_selection[{name}]"
           for name in ("clip2352", "clip4704", "desk2880")]
    done = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *ids],
                          cwd=root, env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr


def test_benchmark_seed0_pool_digest():
    # the selections of the benchmark's seed-0 pool: 4 inputs per workload,
    # 136 frames, digested by scripts/pool_digest.py as for all ten seeds
    env = dict(os.environ)
    script = load_file("scripts/pool_digest.py", "pool_digest")
    assert dict(os.environ) == env  # importing it pins no BLAS threads
    assert script.pool_digest(range(1)) == (
        "fda05402ac647cafdbb2eb77d214cac01439becd7d73ca2a706d7ce9957e9ecc")
