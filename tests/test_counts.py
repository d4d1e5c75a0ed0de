"""Every public count goes through similarity._integer: a bool, a float
equal to an integer, a negative value and a value past the count's upper
bound (2^64 - 1 for a seed, less one for each further stream its caller
derives from it) raise ValueError naming the count."""

import re

import numpy as np
import pytest

from tokensieve import synth, verify
from tokensieve.analysis import (GridShape, ModelProfile, flops_estimate,
                                 similarity_by_distance_profile)
from tokensieve.fusion import select
from tokensieve.gsp import gsp_select
from tokensieve.qcsp import GreedyState
from tokensieve.rng import SplitMix64, gaussian_matrix, normal_stream, uniform_stream
from tokensieve.similarity import prepare

N = 6
H, Q = gaussian_matrix(3, N, 4), gaussian_matrix(4, 2, 4)
PROFILE = ModelProfile(2, 16, 64)
SEED_MAX = 2**64 - 1


def extend(k):
    GreedyState(prepare(H), np.ones(N)).extend(k)


# label, call of the count, the name its errors give, its upper bound or None
COUNTS = [
    ("SplitMix64-seed", lambda v: SplitMix64(v), "seed", SEED_MAX),
    ("next_below-n", lambda v: SplitMix64(0).next_below(v), "n", None),
    ("sample-n", lambda v: SplitMix64(0).sample_without_replacement(v, 0), "n", None),
    ("sample-m", lambda v: SplitMix64(0).sample_without_replacement(5, v), "m", 5),
    ("uniform_stream-seed", lambda v: uniform_stream(v, 2), "seed", SEED_MAX),
    ("uniform_stream-count", lambda v: uniform_stream(0, v), "count", None),
    ("uniform_stream-offset", lambda v: uniform_stream(0, 2, offset=v), "offset", None),
    ("normal_stream-seed", lambda v: normal_stream(v, 2), "seed", SEED_MAX),
    ("normal_stream-count", lambda v: normal_stream(0, v), "count", None),
    ("gaussian_matrix-seed", lambda v: gaussian_matrix(v, 2, 3), "seed", SEED_MAX),
    ("gaussian_matrix-rows", lambda v: gaussian_matrix(0, v, 3), "rows", None),
    ("gaussian_matrix-cols", lambda v: gaussian_matrix(0, 2, v), "cols", None),
    ("random_tokens-n", lambda v: synth.random_tokens(v, 3, 0), "n", None),
    ("random_tokens-d", lambda v: synth.random_tokens(4, v, 0), "d", None),
    ("random_tokens-seed", lambda v: synth.random_tokens(4, 3, v), "seed", SEED_MAX),
    ("duplicate_blocks-n", lambda v: synth.duplicate_blocks(v, 3, 2, 0), "n", None),
    ("duplicate_blocks-d", lambda v: synth.duplicate_blocks(4, v, 2, 0), "d", None),
    ("duplicate_blocks-block", lambda v: synth.duplicate_blocks(4, 3, v, 0), "block", None),
    ("duplicate_blocks-seed", lambda v: synth.duplicate_blocks(4, 3, 2, v), "seed", SEED_MAX),
    ("two_region_grid-grid_h", lambda v: synth.two_region_grid(v, 4, 3, 0), "grid_h", None),
    ("two_region_grid-grid_w", lambda v: synth.two_region_grid(2, v, 3, 0), "grid_w", None),
    ("two_region_grid-d", lambda v: synth.two_region_grid(2, 4, v, 0), "d", None),
    # a caller drawing k + 1 streams from seed, seed + 1, ... refuses a
    # seed past SEED_MAX - k (rng.derived_seeds)
    ("two_region_grid-seed", lambda v: synth.two_region_grid(2, 4, 3, v), "seed", SEED_MAX - 1),
    ("constant_region_mask-grid_h", lambda v: synth.constant_region_mask(v, 6), "grid_h", None),
    ("constant_region_mask-grid_w", lambda v: synth.constant_region_mask(4, v), "grid_w", None),
    ("equicorrelated-n", lambda v: synth.equicorrelated_tokens(v, 6, 0.5), "n", None),
    ("equicorrelated-d", lambda v: synth.equicorrelated_tokens(4, v, 0.5), "d", None),
    ("GridShape-height", lambda v: GridShape(v, 3), "height", None),
    ("GridShape-width", lambda v: GridShape(3, v), "width", None),
    ("ModelProfile-layers", lambda v: ModelProfile(v, 16, 64), "layers", None),
    ("ModelProfile-hidden_dim", lambda v: ModelProfile(2, v, 64), "hidden_dim", None),
    ("ModelProfile-ffn_dim", lambda v: ModelProfile(2, 16, v), "ffn_dim", None),
    ("flops_estimate-n_tokens", lambda v: flops_estimate(v, PROFILE), "token count", None),
    ("profile-max_dist", lambda v: similarity_by_distance_profile(H, GridShape(2, 3), v),
     "max_dist", 3),
    # select names m "budget" when it checks m against the token count
    ("select-m", lambda v: select("script", H, Q, v), "m|budget", N),
    ("select-gsp_keep", lambda v: select("script", H, Q, 2, gsp_keep=v), "gsp_keep", N),
    ("select-seed", lambda v: select("random", H, None, 2, seed=v), "seed", SEED_MAX),
    ("gsp_select-keep", lambda v: gsp_select(prepare(H), keep=v), "keep", N),
    ("extend-k", extend, "k", N),
    ("run_all-instances", lambda v: verify.run_all(instances=v), "instances", None),
    ("run_all-seed", lambda v: verify.run_all(seed=v, instances=1), "seed", SEED_MAX - 19),
    ("entropy-base_seed", lambda v: verify.check_entropy_direction(2, v), "seed", SEED_MAX - 2),
    ("refined_tightness-grid_points", verify.check_refined_tightness, "grid_points", None),
    ("refined_monotonic-grid_points", verify.check_refined_monotonic, "grid_points", None),
    ("bipartite_count-size", lambda v: verify.check_bipartite_count(sizes=(v,)), "size", None),
]

CASES = [pytest.param(call, name, bad, id=f"{label}-{kind}")
         for label, call, name, hi in COUNTS
         for kind, bad in [("bool", True), ("float", 2.0), ("negative", -1)]
         + ([] if hi is None else [("past-bound", hi + 1)])]


@pytest.mark.parametrize("call, name, bad", CASES)
def test_a_bad_count_raises_a_value_error_naming_it(call, name, bad):
    with pytest.raises(ValueError, match=f"^({name}) must "):
        call(bad)


@pytest.mark.parametrize("bad", [True, np.True_, "0.5", None])
def test_rho_refuses_a_bool_or_a_non_real(bad):
    # similarity._real, as build_graph's tau and gamma
    with pytest.raises(ValueError, match=re.escape(f"rho must be a real number, got {bad!r}")):
        synth.equicorrelated_tokens(4, 6, bad)
