import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cisosdm import encoding as enc
from cisosdm import numerics as nm
from fdcheck import check_gradients


class TestBinRate:
    def test_zero_is_absent(self):
        assert enc.bin_rate(0.0, 4).is_absent

    def test_formula_application(self):
        s = enc.bin_rate(0.3, 4)
        assert s.bin == 2  # ceil(1.2)

    def test_binary_special_case(self):
        assert enc.bin_rate(1.0, 1).bin == 1
        assert enc.bin_rate(0.0001, 1).bin == 1

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            enc.bin_rate(1.5, 4)
        with pytest.raises(ValueError):
            enc.bin_rate(-0.1, 4)

    @pytest.mark.parametrize("n_b", [1, 2, 4, 8])
    def test_exhaustive_grid_matches_ceiling_oracle(self, n_b):
        for k in range(0, 1001):
            r = 0.001 * k
            state = enc.bin_rate(r, n_b)
            if r == 0.0:
                assert state.is_absent
            else:
                assert state.bin == math.ceil(r * n_b)
                assert 1 <= state.bin <= n_b

    @pytest.mark.parametrize("n_b", [1, 2, 4, 8])
    def test_boundaries_fall_in_their_own_bin(self, n_b):
        for k in range(1, n_b + 1):
            assert enc.bin_rate(k / n_b, n_b).bin == k

    @given(st.floats(0.0001, 1.0), st.floats(0.0001, 1.0), st.integers(1, 8))
    @settings(max_examples=80, deadline=None)
    def test_bin_nondecreasing_in_rate(self, r1, r2, n_b):
        a, b = sorted((r1, r2))
        assert enc.bin_rate(a, n_b).bin <= enc.bin_rate(b, n_b).bin


class TestAssignStates:
    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(0)
        targets = rng.choice([0.0, 0.2, 0.55, 1.0], size=(5, 6))
        available = rng.random((5, 6)) < 0.8
        known = rng.random((5, 6)) < 0.5
        codes, rates = enc.assign_states(targets, available, known, 4)
        for i in range(5):
            for c in range(6):
                if not (known[i, c] and available[i, c]):
                    assert codes[i, c] == enc.STATE_UNKNOWN
                else:
                    assert codes[i, c] == enc.bin_rate(targets[i, c], 4).code

    def test_unavailable_never_revealed(self):
        targets = np.array([[1.0]])
        codes, _ = enc.assign_states(targets, [[False]], [[True]], 1)
        assert codes[0, 0] == enc.STATE_UNKNOWN


def make_tables(mode, n_b=4, dim=8, n_species=3, seed=0):
    rng = np.random.default_rng(seed)
    return enc.EmbeddingTables(n_species, dim, mode, n_b, rng)


class TestStateEncoding:
    def test_discrete_row_count(self):
        tables = make_tables("discrete", n_b=4)
        assert tables.state.params["state_rows"].shape[0] == 6  # n_b + 2

    def test_unknown_shared_across_species(self):
        tables = make_tables("discrete")
        codes = np.full((1, 3), enc.STATE_UNKNOWN)
        rates = np.zeros((1, 3))
        s = tables.state.encode(codes, rates).values
        assert np.array_equal(s[0, 0], s[0, 1])
        assert np.array_equal(s[0, 0], s[0, 2])

    @pytest.mark.parametrize("mode", ["linear", "periodic"])
    def test_continuous_zero_rate_uses_absent_vector(self, mode):
        tables = make_tables(mode)
        absent = tables.state.encode(np.array([[enc.STATE_ABSENT]]), np.zeros((1, 1))).values[0, 0]
        assert np.array_equal(absent, tables.state.params["state_rows"].values[enc.STATE_ABSENT])
        tiny = tables.state.encode(np.array([[2]]), np.array([[1e-6]])).values[0, 0]
        assert not np.array_equal(tiny, absent)

    def test_linear_zero_value_distinct_from_absent(self):
        tables = make_tables("linear")
        value0 = tables.state.params["state_b0"].values  # w * 0 + b0
        absent = tables.state.params["state_rows"].values[enc.STATE_ABSENT]
        assert not np.allclose(value0, absent)

    @pytest.mark.parametrize("mode", ["discrete", "linear", "periodic"])
    def test_output_dimension(self, mode):
        tables = make_tables(mode, dim=8)
        codes = np.array([[enc.STATE_UNKNOWN, enc.STATE_ABSENT, 3]])
        rates = np.array([[0.0, 0.0, 0.4]])
        out = tables.state.encode(codes, rates)
        assert out.shape == (1, 3, 8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            enc.StateEmbeddingTable("fourier", 4, 8, np.random.default_rng(0))


class TestSpeciesTokens:
    def test_token_is_sum_of_embeddings(self):
        tables = make_tables("discrete")
        codes = np.array([[enc.STATE_UNKNOWN, enc.STATE_ABSENT, 2]])
        rates = np.zeros((1, 3))
        tokens = enc.species_tokens(tables, codes, rates).values
        s = tables.state.encode(codes, rates).values
        expected = tables.species.values[None] + s
        assert np.allclose(tokens, expected)

    def test_same_state_tokens_differ_only_by_species_embedding(self):
        tables = make_tables("discrete")
        codes = np.full((1, 3), enc.STATE_ABSENT)
        tokens = enc.species_tokens(tables, codes, np.zeros((1, 3))).values[0]
        e = tables.species.values
        assert np.allclose(tokens[0] - tokens[1], e[0] - e[1])

    @pytest.mark.parametrize("mode", ["discrete", "linear", "periodic"])
    def test_gradients_flow_to_both_tables(self, mode):
        tables = make_tables(mode)
        codes = np.array([[2, enc.STATE_ABSENT, enc.STATE_UNKNOWN], [3, 2, enc.STATE_ABSENT]])
        rates = np.array([[0.4, 0.0, 0.0], [0.9, 0.3, 0.0]])
        y = np.random.default_rng(1).random((2, 3))

        def loss():
            tokens = enc.species_tokens(tables, codes, rates)
            pooled = nm.sigmoid(nm.sum_axis(tokens, -1))
            return nm.bce_masked(pooled, y, np.ones_like(y, bool))

        check_gradients(loss, tables.params())
        assert np.abs(tables.species.grad).sum() > 0
        assert np.abs(tables.state.params["state_rows"].grad).sum() > 0
