"""Golden fixtures: fixed script-mode selections pinned by hash.

Each case records the sha256 of the selection's `kept` indices and
`stage_tags` and the length of the greedy walk that produced them.  A
change that moves any kept token, any tag or the walk's stopping point
fails here, however small the numerical change behind it.
"""

import hashlib
import json

import numpy as np
import pytest

from tokensieve import fusion, qcsp
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


# name: (instance, sha256 of [kept, stage_tags] as JSON, greedy walk length)
GOLDEN = {
    "desk2880": (_desk_scale,
                 "5ec01e927bbcdcbe88fd1a4c229f8717efe30340e29597ba90c4ea62298ee7a4", 1375),
    "grid576": (_grid576,
                "792b0d0b7233e94888543ab38b0ec716f865b424d640b2636ce1595acf0c3d92", 209),
}


def selection_digest(kept, tags) -> str:
    return hashlib.sha256(json.dumps([list(kept), list(tags)]).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_selection(name, monkeypatch):
    make, digest, walk = GOLDEN[name]
    h_v, h_q, m = make()
    lengths = []
    extend = qcsp.GreedyState.extend

    def recording(state, k):
        extend(state, k)
        lengths.append(state.t)

    monkeypatch.setattr(qcsp.GreedyState, "extend", recording)
    sel = fusion.script_select(h_v, h_q, m)
    assert (selection_digest(sel.kept, sel.stage_tags), max(lengths)) == (digest, walk)
