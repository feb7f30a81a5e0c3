import itertools

import numpy as np
import pytest

from cisosdm import synth


def chain_spec(w=4.0, n_locations=1000, seed=0, **kw):
    return synth.SynthSpec(
        n_species=3,
        n_env=2,
        n_locations=n_locations,
        edges=[(0, 1, w), (1, 2, w)],
        seed=seed,
        **kw,
    )


def brute_force_conditional(model, env_row, revealed=None):
    """Reference oracle for one row: sum the joint probability of every
    configuration that agrees with `revealed` ({species: state}), with each
    species' logit built edge by edge from the spec."""
    n = model.spec.n_species
    base = env_row @ model.theta.T + model.bias
    total, mass = 0.0, np.zeros(n)
    for states in itertools.product((0.0, 1.0), repeat=n):
        x = np.array(states)
        if revealed and any(x[sp] != state for sp, state in revealed.items()):
            continue
        logit = base.copy()
        for p, c, w in model.spec.edges:
            logit[c] += w * x[p]
        prob = 1.0 / (1.0 + np.exp(-logit))
        joint = np.prod(np.where(x > 0, prob, 1.0 - prob))
        total += joint
        mass += joint * x
    return mass / total


class TestSpec:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cycle"):
            synth.SynthSpec(n_species=2, n_env=1, n_locations=10, edges=[(0, 1, 1.0), (1, 0, 1.0)])

    def test_unknown_species_in_edge(self):
        with pytest.raises(ValueError, match="unknown species"):
            synth.SynthSpec(n_species=2, n_env=1, n_locations=10, edges=[(0, 5, 1.0)])

    def test_python_inputs_are_checked_and_normalised(self):
        # Python callers (perfbench, tests) pass tuples and numpy numbers; they come back as plain ints, floats and lists.
        edges = ((0, 1, 2), (np.int64(1), 2, np.float64(-1.5)))
        spec = synth.SynthSpec(n_species=np.int64(3), n_env=2, n_locations=np.int32(10), edges=edges)
        assert spec.edges == [(0, 1, 2.0), (1, 2, -1.5)]
        assert type(spec.n_species) is type(spec.n_locations) is int
        assert all(type(p) is type(c) is int and type(w) is float for p, c, w in spec.edges)
        for edges, fragment in (
            ([(0, 1, float("nan"))], "a finite number"), ([(0, 1)], "of 3 items"), ([(True, 1, 1.0)], "an integer")
        ):
            with pytest.raises(ValueError, match=fragment):
                synth.SynthSpec(n_species=2, n_env=1, n_locations=10, edges=edges)

    def test_topo_order_respects_edges(self):
        order = synth.topo_order(4, [(2, 0, 1.0), (0, 3, 1.0)])
        assert order.index(2) < order.index(0) < order.index(3)


class TestGenerate:
    def test_no_interactions_gives_conditional_independence(self):
        spec = synth.SynthSpec(n_species=4, n_env=1, n_locations=60000, edges=[], seed=1, noise=0.0)
        spec.edges = []
        ds = synth.generate(spec)
        # with a single env var, bucket locations by env and check independence
        bucket = np.abs(ds.env[:, 0]) < 0.2
        a = ds.targets[bucket, 0] > 0
        b = ds.targets[bucket, 1] > 0
        joint = (a & b).mean()
        assert joint == pytest.approx(a.mean() * b.mean(), abs=0.02)

    def test_planted_facilitation_visible_in_frequencies(self):
        spec = synth.SynthSpec(
            n_species=2, n_env=1, n_locations=100_000, edges=[(0, 1, 5.0)], env_scale=0.0, seed=2
        )
        ds = synth.generate(spec)
        parent = ds.targets[:, 0] > 0
        p_given_present = ds.targets[parent, 1].mean()
        p_given_absent = ds.targets[~parent, 1].mean()
        assert p_given_present > p_given_absent + 0.4

    def test_no_missingness_means_full_availability(self):
        ds = synth.generate(chain_spec())
        assert ds.available.all()

    def test_missingness_rate_honored(self):
        ds = synth.generate(chain_spec(missing_rate=0.3, n_locations=20000, seed=3))
        assert ds.available.mean() == pytest.approx(0.7, abs=0.02)

    def test_rate_mode_emits_continuous_targets(self):
        ds = synth.generate(chain_spec(rate_mode=True, seed=4))
        observed = ds.targets[ds.targets > 0]
        assert not ds.is_binary()
        assert observed.min() > 0.0 and observed.max() < 1.0

    def test_seeded_determinism(self):
        a = synth.generate(chain_spec(seed=5))
        b = synth.generate(chain_spec(seed=5))
        assert np.array_equal(a.targets, b.targets)
        assert np.array_equal(a.env, b.env)

    def test_pipeline_compatible_csv(self, tmp_path):
        from cisosdm import dataio

        ds = synth.generate(chain_spec(n_locations=50))
        path = str(tmp_path / "synth.csv")
        cfg = str(tmp_path / "synth.json")
        dataio.save_dataset(ds, path, cfg)
        back = dataio.load_dataset(path, cfg)
        assert np.array_equal(back.targets, ds.targets)


class TestBayesOracle:
    def test_no_parents_no_reveal_is_plain_sigmoid(self):
        spec = synth.SynthSpec(n_species=3, n_env=2, n_locations=10, edges=[], seed=6)
        model = synth.SynthModel(spec)
        env = np.array([0.3, -0.8])
        expected = 1.0 / (1.0 + np.exp(-(env @ model.theta.T + model.bias)))
        assert np.allclose(synth.bayes_conditional(model, env), expected)

    def test_weights_sum_repeated_edges(self):
        spec = synth.SynthSpec(n_species=3, n_env=1, n_locations=10, edges=[(0, 2, 1.5), (1, 2, -2.0), (0, 2, 0.5)])
        assert np.array_equal(synth.SynthModel(spec).weights, [[0, 0, 0], [0, 0, 0], [2.0, -2.0, 0]])

    def test_all_rows_match_per_row_brute_force(self):
        edges = [(0, 2, 2.5), (1, 2, -3.0), (2, 3, 4.0), (0, 4, -1.5), (3, 4, 2.0), (0, 2, 1.0)]
        spec = synth.SynthSpec(n_species=5, n_env=3, n_locations=10, edges=edges, env_scale=1.5, seed=11)
        model = synth.SynthModel(spec)
        rng = np.random.default_rng(12)
        env = rng.uniform(-1.0, 1.0, size=(40, 3))
        present = (rng.random((40, 5)) < 0.5).astype(float)  # revealed states vary by row
        reveal_mask = np.array([True, False, False, True, False])
        marginal = synth.bayes_conditional(model, env)
        conditional = synth.bayes_conditional(model, env, present, reveal_mask)
        assert marginal.shape == conditional.shape == (40, 5)
        for i in range(40):
            revealed = {sp: present[i, sp] for sp in np.flatnonzero(reveal_mask)}
            assert np.allclose(marginal[i], brute_force_conditional(model, env[i]), rtol=0.0, atol=1e-12)
            assert np.allclose(conditional[i], brute_force_conditional(model, env[i], revealed), rtol=0.0, atol=1e-12)
            one_row = synth.bayes_conditional(model, env[i], present[i], reveal_mask)
            assert np.allclose(one_row, conditional[i], rtol=0.0, atol=1e-12)

    def test_revealed_states_of_vanishing_prior_probability(self):
        # Both species are all but certain to be present at env 1; revealing both absent still has an answer.
        spec = synth.SynthSpec(n_species=2, n_env=1, n_locations=5, env_scale=1000.0, seed=6)
        out = synth.bayes_conditional(synth.SynthModel(spec), np.array([1.0]), np.zeros(2), np.ones(2, dtype=bool))
        assert np.array_equal(out, [0.0, 0.0])

    def test_revealing_parent_shifts_child_in_weight_sign(self):
        for w in (4.0, -4.0):
            spec = synth.SynthSpec(n_species=2, n_env=1, n_locations=10, edges=[(0, 1, w)], seed=7)
            model = synth.SynthModel(spec)
            env = np.array([0.1])
            reveal = np.array([True, False])
            with_parent = synth.bayes_conditional(model, env, np.array([1.0, 0.0]), reveal)[1]
            without_parent = synth.bayes_conditional(model, env, np.array([0.0, 0.0]), reveal)[1]
            if w > 0:
                assert with_parent > without_parent
            else:
                assert with_parent < without_parent

    def test_chain_matches_monte_carlo_within_3_sigma(self):
        spec = chain_spec(seed=8)
        model = synth.SynthModel(spec)
        rng = np.random.default_rng(9)
        env = rng.uniform(-1, 1, 2)
        exact = synth.bayes_conditional(model, env)
        n = 120_000
        present = np.zeros((n, 3))
        base = env @ model.theta.T + model.bias
        for sp in model.order:
            logit = base[sp] + present @ model.weights[sp]
            present[:, sp] = rng.random(n) < 1.0 / (1.0 + np.exp(-logit))
        mc = present.mean(axis=0)
        sigma = np.sqrt(np.maximum(mc * (1 - mc), 1e-9) / n)
        assert np.all(np.abs(exact - mc) < 3.0 * sigma)

    def test_revealed_consistency_condition(self):
        spec = chain_spec()
        model = synth.SynthModel(spec)
        out = synth.bayes_conditional(model, np.zeros(2), np.array([0.0, 1.0, 0.0]), np.array([False, True, False]))
        assert out[1] == pytest.approx(1.0)

    def test_too_many_species_rejected(self):
        spec = synth.SynthSpec(n_species=13, n_env=1, n_locations=5, edges=[])
        model_ok = False
        try:
            synth.bayes_conditional(synth.SynthModel(spec), np.zeros(1))
        except ValueError as exc:
            model_ok = "12" in str(exc)
        assert model_ok


class TestOracleReport:
    def test_conditional_never_worse_than_marginal_with_interactions(self):
        for seed in range(3):
            spec = synth.interaction_benchmark_spec(n_locations=400, seed=seed)
            ds = synth.generate(spec)
            model = synth.SynthModel(spec)
            report = synth.oracle_report(
                model, ds, ds.group_masks["drivers"], ds.group_masks["responders"]
            )
            assert report["conditional_mae"] <= report["marginal_mae"]
            assert report["headroom"] > 0.02

    def test_null_spec_is_the_benchmark_without_edges(self):
        assert synth.null_benchmark_spec(n_locations=400, seed=1) == synth.SynthSpec(
            n_species=10, n_env=5, n_locations=400, edges=[], env_scale=1.0, noise=0.5, seed=1
        )
        rates = synth.null_benchmark_spec(n_locations=400, seed=1, rate_mode=True)
        assert rates.rate_mode and rates.edges == []

    def test_null_spec_has_no_headroom(self):
        spec = synth.null_benchmark_spec(n_locations=400, seed=1)
        ds = synth.generate(spec)
        model = synth.SynthModel(spec)
        report = synth.oracle_report(model, ds, ds.group_masks["drivers"], ds.group_masks["responders"])
        assert abs(report["headroom"]) < 0.01

    def test_empirical_cooccurrence_converges_to_oracle(self):
        # frequency of the child among locations sharing (env bucket, parent state)
        spec = synth.SynthSpec(
            n_species=2, n_env=1, n_locations=150_000, edges=[(0, 1, 3.0)], env_scale=0.4, seed=10
        )
        ds = synth.generate(spec)
        model = synth.SynthModel(spec)
        bucket = np.abs(ds.env[:, 0]) < 0.05
        for parent_state in (True, False):
            rows = bucket & ((ds.targets[:, 0] > 0) == parent_state)
            emp = ds.targets[rows, 1].mean()
            state = np.array([float(parent_state), 0.0])
            exact = synth.bayes_conditional(model, np.zeros(1), state, np.array([True, False]))[1]
            assert emp == pytest.approx(exact, abs=0.03)
