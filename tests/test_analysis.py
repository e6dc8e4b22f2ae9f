import dataclasses
import math

import numpy as np
import pytest

import oracles
from cliffrb import analysis
from cliffrb.analysis import (
    BootstrapReport,
    FitError,
    MODELS,
    alpha_n,
    bootstrap,
    chi2_sf,
    consistency_check,
    embed_depolarizing,
    fit,
    interleaved_gate_error,
    length_statistics,
)
from cliffrb.dense import DenseSuperoperator, depolarization_strength
from cliffrb.pauli import PauliChannel
from cliffrb.protocol import RBDataset


LENGTHS = (1, 3, 8, 21, 55, 144)


def exact_dataset(model, params, alpha, lengths=LENGTHS, copies=3):
    """Noiseless dataset: survival stored as a fractional count over 1 shot."""
    f = oracles.model_predict(model, lengths, params, alpha)
    rows = [("syn", l, i, 1, fl)
            for l, fl in zip(lengths, f) for i in range(copies)]
    return RBDataset(rows)


def noisy_dataset(params, alpha, lengths, n_seq, n_shots, rng):
    f = oracles.model_predict("main", lengths, params, alpha)
    rows = []
    for l, fl in zip(lengths, f):
        for i in range(n_seq):
            rows.append(("syn", l, i, n_shots,
                         int(rng.binomial(n_shots, fl))))
    return RBDataset(rows)


class TestLengthStatistics:
    def test_all_correct(self):
        ds = RBDataset([("x", 1, 0, 10, 10), ("x", 1, 1, 10, 10)])
        (s,) = length_statistics(ds)
        assert s.mean == 1.0 and s.var_of_mean == 0.0

    def test_two_sequence_arithmetic(self):
        ds = RBDataset([("x", 4, 0, 10, 9), ("x", 4, 1, 10, 8)])
        (s,) = length_statistics(ds)
        assert s.mean == pytest.approx(0.85)
        assert s.var_of_mean == pytest.approx(0.0025)

    def test_single_sequence_flagged(self):
        ds = RBDataset([("x", 2, 0, 10, 7)])
        (s,) = length_statistics(ds)
        assert s.single_sequence and math.isnan(s.var_of_mean)

    def test_binomial_variance_consistency(self):
        rng = np.random.default_rng(0)
        p, ns, nseq = 0.8, 50, 4000
        ds = RBDataset([("x", 1, i, ns, int(rng.binomial(ns, p)))
                        for i in range(nseq)])
        (s,) = length_statistics(ds)
        want = p * (1 - p) / ns / nseq
        assert s.var_of_mean == pytest.approx(want, rel=0.15)


class TestChiSquared:
    # (dof, critical value, upper-tail probability)
    TABLE = [
        (1, 3.8415, 0.05), (2, 5.9915, 0.05), (3, 7.8147, 0.05),
        (4, 9.4877, 0.05), (5, 11.0705, 0.05), (6, 12.5916, 0.05),
        (7, 14.0671, 0.05), (8, 15.5073, 0.05), (9, 16.9190, 0.05),
        (10, 18.3070, 0.05),
        (1, 6.6349, 0.01), (2, 9.2103, 0.01), (3, 11.3449, 0.01),
        (4, 13.2767, 0.01), (5, 15.0863, 0.01),
        (1, 2.7055, 0.10), (2, 4.6052, 0.10), (3, 6.2514, 0.10),
        (4, 7.7794, 0.10), (5, 9.2364, 0.10),
    ]

    def test_tabulated_critical_values(self):
        for dof, crit, tail in self.TABLE:
            assert chi2_sf(crit, dof) == pytest.approx(tail, abs=1e-4)

    def test_threshold_behavior_dof4(self):
        # both values sit just inside the 0.95 acceptance region
        assert chi2_sf(9.28, 4) > 0.05
        assert chi2_sf(9.48, 4) > 0.05
        assert abs(9.48 - 9.4877) < 0.01

    def test_domain(self):
        assert chi2_sf(-1.0, 3) == 1.0
        with pytest.raises(ValueError):
            chi2_sf(1.0, 0)


class TestFit:
    def test_main_model_noiseless_recovery(self):
        truth = (0.01, 0.02)
        ds = exact_dataset("main", truth, 0.5)
        rep = fit(ds, "main", 0.5)
        assert rep.params == pytest.approx(truth, abs=1e-9)
        assert rep.chi2 < 1e-12
        assert rep.dof == len(LENGTHS) - 2
        assert not rep.significant

    @pytest.mark.parametrize("model,params", [
        ("main", (0.02, 0.03)),
        ("main-app", (0.02, 0.03)),
        ("three-param", (0.02, 0.03, 0.9)),
        ("magesan", (0.02, 0.03, 0.27, 0.004)),
    ])
    def test_noiseless_all_models(self, model, params):
        alpha = 0.75
        ds = exact_dataset(model, params, alpha)
        rep = fit(ds, model, alpha)
        assert rep.chi2 < 1e-12
        assert rep.params == pytest.approx(params, abs=1e-6)

    def test_objective_trace_monotone(self):
        rng = np.random.default_rng(1)
        ds = noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 30, 100, rng)
        rep = fit(ds, "main", 0.5)
        trace = rep.objective_trace
        assert all(b <= a for a, b in zip(trace, trace[1:]))

    def test_noisy_recovery_within_errors(self):
        rng = np.random.default_rng(2)
        hits = 0
        for _ in range(40):
            ds = noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 100, 100, rng)
            rep = fit(ds, "main", 0.5)
            se = rep.standard_errors()[0]
            if abs(rep.eps_s - 0.04) < 3 * se:
                hits += 1
        assert hits >= 38

    def test_chi2_calibration_on_noisy_data(self):
        # with correct binomial weights the p-value should not be tiny
        rng = np.random.default_rng(3)
        pvals = [fit(noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 60, 200, rng),
                     "main", 0.5).p_value for _ in range(20)]
        assert np.median(pvals) > 0.05

    def test_three_param_degeneracy_on_short_lengths(self):
        ds = exact_dataset("main", (0.01, 0.02), 0.5, lengths=(1, 2, 3, 4))
        rep = fit(ds, "three-param", 0.5)
        assert np.linalg.cond(rep.covariance) > 1e6

    def test_needs_enough_lengths(self):
        ds = exact_dataset("main", (0.01, 0.02), 0.5, lengths=(1, 2))
        with pytest.raises(ValueError):
            fit(ds, "main", 0.5)

    def test_unknown_model(self):
        with pytest.raises(ValueError):
            fit(exact_dataset("main", (0.01, 0.02), 0.5), "exp", 0.5)

    def test_no_box_constraints(self):
        # decay toward an asymptote above the model's: fitted eps_m < 0
        f = 0.5 + 0.6 * 0.97 ** np.array(LENGTHS, float)
        ds = RBDataset([("syn", l, i, 1, fl)
                        for l, fl in zip(LENGTHS, f) for i in range(2)])
        rep = fit(ds, "main", 0.5)
        assert rep.eps_m < 0

    def test_report_json_roundtrip(self):
        import json
        rep = fit(exact_dataset("main", (0.01, 0.02), 0.5), "main", 0.5)
        blob = json.loads(rep.to_json())
        assert blob["model"] == "main"
        assert blob["params"]["eps_s"] == pytest.approx(0.01, abs=1e-9)


class TestBootstrap:
    def test_zero_noise(self):
        ds = RBDataset([("x", l, i, 100, 100)
                        for l in (1, 2, 4) for i in range(3)])
        rep = bootstrap(ds, "main", 0.5, n_resamples=50,
                        rng=np.random.default_rng(4))
        assert rep.biases == pytest.approx(np.zeros(2), abs=1e-12)
        assert np.max(np.abs(rep.ellipse_axes)) == pytest.approx(0.0, abs=1e-12)
        assert not rep.bias_significant.any()

    def test_standard_errors_match_fit(self):
        rng = np.random.default_rng(5)
        ds = noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 60, 100, rng)
        base = fit(ds, "main", 0.5)
        rep = bootstrap(ds, "main", 0.5, n_resamples=300, rng=rng)
        assert rep.standard_errors[0] == pytest.approx(
            base.standard_errors()[0], rel=0.5)
        assert rep.n_failures == 0

    def test_ellipse_coverage(self):
        rng = np.random.default_rng(6)
        truth = (0.04, 0.05)
        hits = 0
        trials = 25
        for _ in range(trials):
            ds = noisy_dataset(truth, 0.5, LENGTHS, 50, 100, rng)
            rep = bootstrap(ds, "main", 0.5, n_resamples=120, rng=rng)
            hits += oracles.ellipse_contains(rep, truth)
        assert hits >= 20

    @pytest.mark.parametrize("n_resamples", [0, 1])
    def test_too_few_resamples(self, n_resamples):
        ds = RBDataset([("x", l, i, 50, 50 - l)
                        for l in (1, 3, 6) for i in range(3)])
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="at least 2"):
            bootstrap(ds, "main", 0.5, n_resamples=n_resamples, rng=rng)
        assert rng.bit_generator.state == state  # no draw made

    def test_json_and_csv_exports(self):
        ds = RBDataset([("x", l, i, 50, 50 - l)
                        for l in (1, 3, 6) for i in range(3)])
        rep = bootstrap(ds, "main", 0.5, n_resamples=20,
                        rng=np.random.default_rng(7))
        assert '"n_resamples": 20' in rep.to_json()


class TestInterleaved:
    def _report(self, eps_s, alpha, var=1e-6):
        ds = exact_dataset("main", (eps_s, 0.02), alpha)
        rep = fit(ds, "main", alpha)
        rep.covariance = np.eye(2) * var
        return rep

    def test_reference_numbers(self):
        a, b = self._report(0.162, 0.75), self._report(0.216, 0.75)
        eps_g, _ = interleaved_gate_error(a, b)
        assert eps_g == pytest.approx(0.0689, abs=5e-4)

    def test_printed_prefactor_variant(self):
        a, b = self._report(0.162, 0.75), self._report(0.216, 0.75)
        eps_g, _ = interleaved_gate_error(a, b, printed_form=True)
        assert eps_g == pytest.approx(0.1224, abs=5e-4)

    def test_equal_decays_give_zero(self):
        a, b = self._report(0.1, 0.5), self._report(0.1, 0.5)
        assert interleaved_gate_error(a, b)[0] == pytest.approx(0.0, abs=1e-12)

    def test_composed_depolarizing_synthetic(self):
        alpha, p, p_g = 0.5, 0.02, 0.01
        eps_ref = alpha * p
        eps_int = alpha * (1 - (1 - p) * (1 - p_g))
        ref = fit(exact_dataset("main", (eps_ref, 0.01), alpha), "main", alpha)
        inter = fit(exact_dataset("main", (eps_int, 0.01), alpha), "main", alpha)
        eps_g, _ = interleaved_gate_error(ref, inter)
        assert eps_g == pytest.approx(alpha * p_g, abs=1e-9)

    def test_alpha_mismatch(self):
        with pytest.raises(ValueError):
            interleaved_gate_error(self._report(0.1, 0.5),
                                   self._report(0.1, 0.75))

    def test_degenerate_reference(self):
        ref = self._report(0.1, 0.75)
        ref.params = np.array([0.75, 0.02])  # decay base pinned at zero
        with pytest.raises(FitError):
            interleaved_gate_error(ref, self._report(0.1, 0.75))

    def test_error_propagation_scale(self):
        a = self._report(0.04, 0.5, var=1e-6)
        b = self._report(0.05, 0.5, var=1e-6)
        _, se = interleaved_gate_error(a, b)
        # both decays near 1, so the propagated error is about sqrt(2) * 1e-3
        assert se == pytest.approx(np.sqrt(2) * 1e-3, rel=0.15)


class TestEmbedding:
    def test_identity_when_k_equals_n(self):
        p_n, factor = embed_depolarizing(0.1, 2, 2)
        assert p_n == pytest.approx(0.1)
        assert factor == pytest.approx(1.0)

    def test_one_into_two(self):
        p_n, factor = embed_depolarizing(0.1, 1, 2)
        assert p_n == pytest.approx(0.1 * 4 / 5)
        assert factor == pytest.approx(6 / 5)

    def test_dense_cross_check(self):
        p = 0.13
        one = DenseSuperoperator.from_pauli_channel(
            PauliChannel.depolarizing(1, p))
        ident = DenseSuperoperator.identity(1)
        two = DenseSuperoperator(2, np.kron(ident.chi, one.chi))
        want, _ = embed_depolarizing(p, 1, 2)
        assert depolarization_strength(two) == pytest.approx(want, abs=1e-10)

    def test_domain(self):
        with pytest.raises(ValueError):
            embed_depolarizing(0.1, 0, 2)
        with pytest.raises(ValueError):
            embed_depolarizing(0.1, 3, 2)


class TestConsistencyCheck:
    def test_reference_numbers(self):
        got = consistency_check(0.069, 0.010, 0.007)
        assert abs(got - 0.136) < 0.01

    def test_zero_inputs(self):
        assert consistency_check(0.0, 0.0, 0.0) == 0.0

    def test_gate_only_weights(self):
        assert consistency_check(0.07, 0.3, 0.4,
                                 weights=(1.0, 0.0)) == pytest.approx(0.07)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            consistency_check(-0.1, 0.0, 0.0)


def test_alpha_n_values():
    assert alpha_n(1) == pytest.approx(0.5)
    assert alpha_n(2) == pytest.approx(0.75)


def assert_same_bootstrap(got, want):
    for f in dataclasses.fields(BootstrapReport):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.shape == b.shape and np.array_equal(a, b), f.name
        else:
            assert a == b, f.name


class TestBatchedAgainstLoop:
    """The stacked bootstrap and fit against the per-replicate scalar loop in
    tests/oracles.py: every replicate must come out bit for bit the same."""

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_all_models(self, model):
        ds = noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 20, 100,
                           np.random.default_rng(5))
        got = bootstrap(ds, model, 0.5, 80, np.random.default_rng(1))
        want = oracles.bootstrap_loop(ds, model, 0.5, 80,
                                      np.random.default_rng(1))
        assert_same_bootstrap(got, want)

    def test_one_sequence_per_length(self):
        ds = noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 1, 100,
                           np.random.default_rng(8))
        got = bootstrap(ds, "main", 0.5, 60, np.random.default_rng(2))
        want = oracles.bootstrap_loop(ds, "main", 0.5, 60,
                                      np.random.default_rng(2))
        assert_same_bootstrap(got, want)

    def test_failing_replicates(self):
        ds = noisy_dataset((0.04, 0.05), 0.5, (1, 2, 4, 8, 16, 32), 4, 100,
                           np.random.default_rng(7))
        got = bootstrap(ds, "magesan", 0.5, 60, np.random.default_rng(7))
        want = oracles.bootstrap_loop(ds, "magesan", 0.5, 60,
                                      np.random.default_rng(7))
        assert got.n_failures == 5
        assert_same_bootstrap(got, want)

    def test_too_many_failures(self):
        ds = noisy_dataset((0.04, 0.05), 0.5, (1, 2, 4, 8, 16, 32), 4, 100,
                           np.random.default_rng(2))
        with pytest.raises(FitError) as got:
            bootstrap(ds, "magesan", 0.5, 60, np.random.default_rng(2))
        with pytest.raises(FitError) as want:
            oracles.bootstrap_loop(ds, "magesan", 0.5, 60,
                                   np.random.default_rng(2))
        assert str(got.value) == str(want.value) == \
            "26/60 bootstrap replicates failed to fit"

    def test_singular_slice_fails_alone(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(4, 3, 3))
        a[2] = 0.0
        b = rng.normal(size=(4, 3, 1))
        x, ok = analysis._solve(a, b)
        assert ok.tolist() == [True, True, False, True]
        for k in (0, 1, 3):
            assert np.array_equal(x[k], np.linalg.solve(a[k], b[k]))

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_fit(self, model):
        ds = noisy_dataset((0.04, 0.05), 0.5, LENGTHS, 20, 100,
                           np.random.default_rng(9))
        got, want = fit(ds, model, 0.5), oracles.scalar_fit(ds, model, 0.5)
        assert np.array_equal(got.params, want.params)
        assert np.array_equal(got.covariance, want.covariance)
        assert got.n_iterations == want.n_iterations
        assert got.objective_trace == want.objective_trace
        assert got.converged == want.converged
        assert got.to_json() == want.to_json()


def start_data(kind, alpha):
    """Seeded per-length means of one kind, and their lengths."""
    rng = np.random.default_rng(21)
    lengths = np.array(LENGTHS, dtype=float)
    if kind == "realistic":
        f = (oracles.model_predict("main", LENGTHS, (0.04, 0.05), alpha)
             + rng.normal(0, 0.01, len(lengths)))
    elif kind == "saturated":
        f = (1 - alpha) + rng.normal(0, 0.005, len(lengths))
    elif kind == "flat":
        f = np.ones(len(lengths))
    elif kind == "uniform":
        f = rng.uniform(0, 1, len(lengths))
    else:  # fast decay at long lengths, where q ** l underflows
        lengths = np.array([1, 2, 5, 20, 100, 500], dtype=float)
        f = (1 - alpha) + alpha * 0.9 * 0.2 ** lengths
    return lengths, f


class TestSeparableStart:
    """The stacked separable start against the one-q-at-a-time search in
    tests/oracles.py, and each stacked least-squares row against
    np.linalg.lstsq on that row alone."""

    @pytest.mark.parametrize("kind", ["realistic", "saturated", "flat",
                                      "uniform", "underflow"])
    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_initial_guess(self, model, kind):
        lengths, f = start_data(kind, 0.75)
        got = analysis._initial_guess(MODELS[model], lengths, f, 0.75)
        want = oracles.initial_guess(MODELS[model], lengths, f, 0.75)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("model", sorted(MODELS))
    def test_linear_solve_slices(self, model):
        rng = np.random.default_rng(3)
        qs = np.r_[1e-6, 0.5, 1 - 1e-9, 1.0, rng.uniform(0, 1, 40)]
        for lengths in (np.array(LENGTHS, dtype=float),
                        np.array([1, 2, 5, 20, 100, 500], dtype=float)):
            f = rng.uniform(0.4, 1.0, len(lengths))
            coef, cost = analysis._linear_solve(MODELS[model], lengths, f,
                                                0.75, qs)
            assert coef.shape == (len(qs), MODELS[model].n_params - 1)
            for q, c, r in zip(qs, coef, cost):
                want_c, want_r = oracles.linear_solve(MODELS[model], lengths,
                                                      f, 0.75, q)
                assert c.tobytes() == want_c.tobytes()
                assert r.tobytes() == np.float64(want_r).tobytes()

    def test_nan_q_raises_as_lstsq(self):
        lengths = np.array(LENGTHS, dtype=float)
        f = np.linspace(0.9, 0.6, len(lengths))
        with pytest.raises(np.linalg.LinAlgError) as want:
            oracles.linear_solve(MODELS["main"], lengths, f, 0.5, np.nan)
        with pytest.raises(np.linalg.LinAlgError) as got:
            analysis._linear_solve(MODELS["main"], lengths, f, 0.5,
                                   [0.5, np.nan])
        assert str(got.value) == str(want.value) == \
            "SVD did not converge in Linear Least Squares"
