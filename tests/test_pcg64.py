"""The pure-Python PCG64 and SeedSequence against numpy.random, their oracle."""

import numpy as np
import pytest

from vifkit import numkit
from vifkit.losscore import derive_seed
from vifkit.numkit import lissa_solve
from vifkit.pcg64 import PCG64, generate_state

SEEDS = [0, 1, 42, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**100 + 12345, 0xBA7C4 << 70]
# 3 * 2**30 rejects a quarter of its draws in Lemire's loop
BOUNDS = [1, 2, 3, 7, 100, 1000, 2**31 + 11, 3 * 2**30, 2**32 - 1, 2**32]


@pytest.mark.parametrize("seed", SEEDS)
def test_integers_match_default_rng(seed):
    for n in BOUNDS:
        ours, theirs = PCG64(seed), np.random.default_rng(seed)
        assert [ours.integers(n) for _ in range(40)] == [int(theirs.integers(n)) for _ in range(40)]


def test_mixed_bounds_share_the_buffered_half_word():
    rng = np.random.default_rng(7)
    bounds = rng.integers(1, 2**32 + 1, size=300).tolist() + [1, 2**32] * 20
    ours, theirs = PCG64(7), np.random.default_rng(7)
    assert [ours.integers(n) for n in bounds] == [int(theirs.integers(n)) for n in bounds]


def test_rejection_loop_is_reached():
    n, rng = 3 * 2**30, PCG64(0)
    threshold = (2**32 - n) % n
    assert any(rng.next_uint32() * n & 0xFFFFFFFF < threshold for _ in range(50))


@pytest.mark.parametrize("n", [0, -1, 2**32 + 1])
def test_bounds_outside_the_32_bit_path_are_refused(n):
    with pytest.raises(ValueError):
        PCG64(0).integers(n)


@pytest.mark.parametrize("entropy", [
    [0], [42, 0], [42, 0xBA7C4], [7, 199], [2**32, 3], [2**64 - 1, 2**40, 5],
    [1, 2, 3, 4, 5, 6], [2**100 + 1, 9, 2**33], [3, 0, 0, 0, 0, 0, 0, 0, 1],
])
def test_generate_state_matches_seed_sequence(entropy):
    want = np.random.SeedSequence(entropy).generate_state(7)
    assert generate_state(entropy, 7) == want.tolist()
    old = int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])
    assert derive_seed(*entropy) == old


def test_derive_seed_matches_seed_sequence_on_random_keys():
    rng = np.random.default_rng(3)
    for _ in range(200):
        keys = [int(k) for k in rng.integers(0, 2**63, size=rng.integers(1, 8))]
        old = np.random.SeedSequence(keys).generate_state(1, dtype=np.uint64)[0]
        assert derive_seed(*keys) == int(old)


@pytest.mark.parametrize("entropy", [[-1], [5, -3], [2**40, 0, -(2**40)]])
def test_negative_entropy_word_is_refused(entropy):
    with pytest.raises(ValueError):
        np.random.SeedSequence(entropy)
    with pytest.raises(ValueError, match="non-negative"):
        generate_state(entropy, 2)
    with pytest.raises(ValueError, match="non-negative"):
        derive_seed(*entropy)


def lissa_with_numpy_stream(sample_hvp, num_steps, scale, damping, rhs, rng_seed, n_terms, width):
    """The per-term LiSSA loop as it was, with its index stream from numpy.random
    (its divergence check left out: it changes no value)."""
    out = np.zeros_like(rhs)
    for start in range(0, rhs.shape[1], width):
        chunk = rhs[:, start : start + width]
        rng = np.random.default_rng(rng_seed)
        r = chunk.copy()
        for _ in range(num_steps):
            j = int(rng.integers(n_terms)) if n_terms > 1 else 0
            hv = np.asarray(sample_hvp(j, r), dtype=np.float64)
            r = chunk + r - (hv + damping * r) / scale
        out[:, start : start + width] = r / scale
    return out


@pytest.mark.parametrize("n_terms, seed", [(6, 3), (200, 2**64 - 1), (1, 0)])
def test_per_term_lissa_is_bit_identical_to_the_numpy_stream(monkeypatch, n_terms, seed):
    rng = np.random.default_rng(13)
    terms = rng.standard_normal((n_terms, 5, 5)) * 0.3
    terms = terms @ terms.transpose(0, 2, 1) + np.eye(5)
    rhs = rng.standard_normal((5, 7))
    # chunks of 3 columns, so the stream is replayed over 3 chunks
    monkeypatch.setattr(numkit, "BLOCK_ENTRIES", 15)
    args = dict(num_steps=60, scale=12.0, damping=0.1, rhs=rhs, rng_seed=seed, n_terms=n_terms)
    got = lissa_solve(lambda j, v: terms[j] @ v, **args)
    want = lissa_with_numpy_stream(lambda j, v: terms[j] @ v, width=3, **args)
    np.testing.assert_array_equal(got, want)
