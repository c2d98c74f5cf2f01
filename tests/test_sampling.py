import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from randiter import linalg
from randiter.errors import DegenerateWeights, NegativeWeight
from randiter.sampling import REFILL, PCG64Stream, build_sampler

from conftest import pcg


def probabilities(sampler):
    """The distribution the sampler's cumulative table encodes."""
    return np.diff(sampler.cumulative, prepend=0.0) / sampler.total


def empirical_frequencies(weights, n_draws, seed):
    sampler = build_sampler(weights)
    rng = pcg(seed)
    counts = np.zeros(len(weights))
    for _ in range(n_draws):
        counts[sampler.draw(rng)] += 1
    return counts / n_draws


class TestBuild:
    def test_uniform_probs(self):
        assert np.allclose(probabilities(build_sampler([1.0, 1.0])), [0.5, 0.5])

    def test_weighted_probs(self):
        assert np.allclose(probabilities(build_sampler([1.0, 3.0])), [0.25, 0.75])

    def test_rejects_negative(self):
        with pytest.raises(NegativeWeight):
            build_sampler([1.0, -0.1])

    def test_rejects_all_zero(self):
        with pytest.raises(DegenerateWeights):
            build_sampler([0.0, 0.0])
        with pytest.raises(DegenerateWeights):
            build_sampler([])
        # a total that overflows, or is NaN, is no distribution either;
        # summing it warns of nothing
        for weights in ([1e308, 1e308], [1.0, np.nan]):
            with pytest.raises(DegenerateWeights):
                build_sampler(weights)

    def test_cumulative_nondecreasing(self):
        s = build_sampler([2.0, 0.0, 1.0])
        assert np.all(np.diff(s.cumulative) >= 0)
        assert s.cumulative[-1] == s.total


class TestDraw:
    def test_single_weight(self):
        s = build_sampler([5.0])
        rng = pcg(0)
        assert all(s.draw(rng) == 0 for _ in range(20))

    def test_zero_weight_excluded(self):
        s = build_sampler([0.0, 1.0])
        rng = pcg(1)
        assert all(s.draw(rng) == 1 for _ in range(200))

    def test_determinism_replay(self):
        s = build_sampler([1.0, 2.0, 3.0])
        first = s.draw_block(pcg(42), 1).tolist()
        seq_a = [s.draw(pcg(42)) for _ in range(1)]
        rng_a, rng_b = pcg(42), pcg(42)
        a = [s.draw(rng_a) for _ in range(5)]
        b = [s.draw(rng_b) for _ in range(5)]
        assert a == b
        assert first == seq_a

    def test_row_norm_distribution_concentrates(self):
        # binomial 4-sigma band around ||X^i||^2 / ||X||_F^2
        rng = np.random.default_rng(7)
        X = linalg.dense_matrix(rng.standard_normal((10, 4)))
        weights = linalg.row_norms_sq(X)
        probs = weights / linalg.frobenius_sq(X)
        n_draws = 100_000
        freqs = empirical_frequencies(weights, n_draws, seed=99)
        bands = 4.0 * np.sqrt(probs * (1.0 - probs) / n_draws)
        assert np.all(np.abs(freqs - probs) <= bands)

    @settings(deadline=None, max_examples=10)
    @given(st.lists(st.floats(0.0, 100.0), min_size=2, max_size=6), st.integers(0, 2**32))
    def test_any_weight_vector_concentrates(self, weights, seed):
        w = np.array(weights)
        if float(w.sum()) <= 0.0:
            return
        probs = w / w.sum()
        n_draws = 20_000
        freqs = empirical_frequencies(w, n_draws, seed)
        bands = 4.0 * np.sqrt(probs * (1.0 - probs) / n_draws)
        # zero-weight indices must have exactly zero frequency
        assert np.all(freqs[probs == 0.0] == 0.0)
        assert np.all(np.abs(freqs - probs) <= bands + 1e-12)


class TopUniform:
    """A uniform source that always gives the largest double below 1.
    Times a normal total it rounds below the total; times a subnormal
    one it can round up to it."""

    U = float(np.nextafter(1.0, 0.0))

    def random(self, size=None):
        return self.U if size is None else np.full(size, self.U)


# numpy's generator, and the stream that runs draw from in its place
SOURCES = {"numpy": pcg, "stream": PCG64Stream}


class TestPCG64Stream:
    SEEDS = [0, 1, 41, 2**32 - 1, 2**32, 2**63, 2**64 + 1, 10**39 + 7]

    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [1, 7, 40, 1000, REFILL - 1, REFILL, REFILL + 1])
    def test_block_is_numpys_bytes(self, seed, k):
        ours, numpys = PCG64Stream(seed), pcg(seed)
        for _ in range(3):  # and the stream continues alike
            assert ours.random(k).tobytes() == numpys.random(k).tobytes()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_mixed_blocks_are_numpys_bytes(self, seed):
        ours, numpys = PCG64Stream(seed), pcg(seed)
        for k in [3, REFILL - 2, 1, 0, 2 * REFILL + 5, 40, 1000, REFILL, 7]:
            assert ours.random(k).tobytes() == numpys.random(k).tobytes()
            assert ours.random() == numpys.random()

    def test_negative_size_raises_and_leaves_the_stream(self):
        ours, numpys = PCG64Stream(3), pcg(3)
        with pytest.raises(ValueError):
            ours.random(-1)
        assert ours.random(5).tobytes() == numpys.random(5).tobytes()


class TestDrawBlock:
    @pytest.mark.parametrize("source", SOURCES)
    @pytest.mark.parametrize("k", [1, 7, 1024, 1025])
    @pytest.mark.parametrize("seed", [0, 5, 2**40 + 3])
    def test_equals_k_scalar_draws(self, seed, k, source):
        s = build_sampler([0.5, 0.0, 2.0, 1e-3, 3.0, 0.0])
        rng_block, rng_scalar = SOURCES[source](seed), SOURCES[source](seed)
        for _ in range(2):  # and the stream continues alike
            block = s.draw_block(rng_block, k)
            assert block.shape == (k,)
            assert block.tolist() == [s.draw(rng_scalar) for _ in range(k)]

    def test_top_uniform_maps_to_last_positive_bin(self):
        tiny = 2.0**-1074  # the smallest subnormal
        s = build_sampler([2 * tiny, tiny, 0.0, 0.0])
        assert TopUniform.U * s.total == s.total  # the rounding the remap is for
        assert s.draw(TopUniform()) == 1
        assert s.draw_block(TopUniform(), 5).tolist() == [1] * 5

    @pytest.mark.parametrize("source", SOURCES)
    @settings(deadline=None, max_examples=20)
    @given(st.lists(st.sampled_from([0.0, 1e-300, 0.25, 1.0, 7.0]), min_size=1, max_size=8),
           st.integers(0, 2**32))
    def test_zero_weight_never_returned(self, source, weights, seed):
        w = np.array(weights)
        if float(w.sum()) <= 0.0:
            return
        s = build_sampler(w)
        drawn = np.concatenate([s.draw_block(SOURCES[source](seed), 3000),
                                s.draw_block(TopUniform(), 3)])
        assert np.all(w[drawn] > 0.0)
