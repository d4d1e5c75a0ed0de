import numpy as np
import pytest

from tokensieve import oracle, synth
from tokensieve.rng import (SplitMix64, gaussian_matrix, normal_stream,
                            uniform_stream)

MASK = (1 << 64) - 1


def reference_output(seed, i):
    """Straight transcription of the documented stream formula."""
    z = (seed + (i + 1) * 0x9E3779B97F4A7C15) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def test_scalar_matches_documented_formula():
    for seed in (0, 1, 42, MASK):
        rng = SplitMix64(seed)
        for i in range(20):
            assert rng.next_u64() == reference_output(seed, i)


def test_vector_stream_matches_scalar():
    u = uniform_stream(7, 64)
    rng = SplitMix64(7)
    for i in range(64):
        bits = rng.next_u64()
        assert u[i] == ((bits >> 11) + 1) * 2.0 ** -53


def test_uniform_stream_bounds():
    u = uniform_stream(3, 10_000)
    assert (u > 0).all() and (u <= 1).all()


def test_next_below_range_and_determinism():
    rng = SplitMix64(9)
    vals = [rng.next_below(13) for _ in range(2000)]
    assert min(vals) == 0 and max(vals) == 12
    rng2 = SplitMix64(9)
    assert vals == [rng2.next_below(13) for _ in range(2000)]


def test_sample_without_replacement():
    rng = SplitMix64(4)
    s = rng.sample_without_replacement(50, 20)
    assert len(s) == 20 and len(set(s)) == 20
    assert all(0 <= i < 50 for i in s)


def test_sample_without_replacement_rejects_more_than_n():
    with pytest.raises(ValueError, match=r"^m must lie in \[0, 5\], got 6"):
        SplitMix64(4).sample_without_replacement(5, 6)


def test_normal_stream_moments():
    x = normal_stream(11, 200_000)
    assert abs(x.mean()) < 0.01
    assert abs(x.std() - 1.0) < 0.01


def test_gaussian_matrix_deterministic():
    a = gaussian_matrix(5, 8, 6)
    b = gaussian_matrix(5, 8, 6)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (8, 6)
    assert not np.array_equal(a, gaussian_matrix(6, 8, 6))


def test_random_tokens_shape():
    m = synth.random_tokens(10, 4, 0)
    assert m.shape == (10, 4)


def test_duplicate_blocks_distinct_rows():
    m = synth.duplicate_blocks(12, 6, 3, 2)
    assert m.shape == (12, 6)
    assert len({row.tobytes() for row in m}) == 4
    # rows inside a block are identical
    np.testing.assert_array_equal(m[0], m[2])


def test_two_region_grid_structure():
    m = synth.two_region_grid(4, 6, 8, 3)
    mask = synth.constant_region_mask(4, 6)
    const = m[mask]
    assert np.ptp(const, axis=0).max() == 0.0
    noise = m[~mask]
    assert len({row.tobytes() for row in noise}) == len(noise)


@pytest.mark.parametrize("n", [1, 2, 8, 64])
@pytest.mark.parametrize("rho", ["lowest", 0.0, 0.5, 1.0])
def test_equicorrelated_tokens_square_to_the_target_gram(n, rho):
    # the one check of the closed-form factor: its square is the target Gram;
    # the lowest rho is -1/(n - 1), and a single row takes any rho
    rho = -1.0 / max(n - 1, 1) if rho == "lowest" else rho
    m = synth.equicorrelated_tokens(n, n + 3, rho)
    np.testing.assert_allclose(m @ m.T, oracle.equicorrelation_matrix(n, rho),
                               rtol=0, atol=1e-12)


def test_synth_seed_determinism():
    for maker in (lambda s: synth.random_tokens(9, 5, s),
                  lambda s: synth.duplicate_blocks(9, 5, 3, s),
                  lambda s: synth.two_region_grid(3, 4, 5, s)):
        np.testing.assert_array_equal(maker(7), maker(7))


@pytest.mark.parametrize("call, match", [
    (lambda: synth.random_tokens(0, 4, 0), "^n must be >= 1, got 0"),
    (lambda: synth.random_tokens(4, 0, 0), "^d must be >= 1, got 0"),
    (lambda: synth.duplicate_blocks(4, 0, 2, 0), "^d must be >= 1, got 0"),
    (lambda: synth.two_region_grid(0, 2, 4, 0), "^grid_h must be >= 1, got 0"),
    (lambda: synth.two_region_grid(2, 1, 4, 0), "^grid_w must be >= 2, got 1"),
    (lambda: synth.two_region_grid(2, 2, 0, 0), "^d must be >= 1, got 0"),
    (lambda: synth.equicorrelated_tokens(3, 2, 0.5), "^d must be >= 3, got 2"),
])
def test_synth_guards_name_their_parameter(call, match):
    with pytest.raises(ValueError, match=match):
        call()


def test_equicorrelated_single_token_is_a_unit_row():
    # with one token there is no pair, so rho is ignored
    np.testing.assert_array_equal(synth.equicorrelated_tokens(1, 3, 0.7), [[1.0, 0.0, 0.0]])


def test_numpy_integer_counts_give_the_python_integer_streams():
    assert SplitMix64(np.uint64(42)).next_u64() == reference_output(42, 0)
    assert (SplitMix64(np.int64(4)).sample_without_replacement(np.int32(50), np.int64(20))
            == SplitMix64(4).sample_without_replacement(50, 20))
    np.testing.assert_array_equal(gaussian_matrix(np.int64(5), np.int32(8), np.int64(6)),
                                  gaussian_matrix(5, 8, 6))
    np.testing.assert_array_equal(synth.duplicate_blocks(np.int64(12), 6, np.int32(3), 2),
                                  synth.duplicate_blocks(12, 6, 3, 2))
