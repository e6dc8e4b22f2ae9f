import itertools

import numpy as np
import pytest

from cliffrb.bounds import (
    EnumerationUnavailableError,
    GroupDistribution,
    InfeasibleBoundError,
    _tv_csv,
    convolve,
    convolve_steps,
    default_measurement,
    kappa_bounds,
    step_comparison_bound,
    total_variation,
    tv_series,
    undetected_probability,
)
from cliffrb.clifford import (CliffordTableau, clifford_compose, embed_tableau,
                              enumerate_group)
from cliffrb.gates import get_gate
from cliffrb.pauli import PauliOperator, pauli_commutes


def knill_like(extra_identity: float = 0.0) -> GroupDistribution:
    """Half/half pi/2 rotations, optionally diluted with an identity step."""
    from cliffrb.clifford import CliffordTableau
    w = (1 - extra_identity) / 2
    return GroupDistribution.from_weights(1, [
        (get_gate("X90").tableau, w),
        (get_gate("Y90").tableau, w),
        (CliffordTableau.identity(1), extra_identity),
    ])


class TestGroupDistribution:
    def test_uniform(self):
        d = GroupDistribution.uniform(1)
        assert len(d.probs) == 6
        assert total_variation(d) == 0.0

    def test_quotient_classes_merge(self):
        # a rotation and its inverse differ by a Pauli, so they share a class
        d = GroupDistribution.from_weights(1, [
            (get_gate("X90").tableau, 0.5),
            (get_gate("X90m").tableau, 0.5),
        ])
        assert np.count_nonzero(d.probs) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            GroupDistribution(1, np.full(6, 0.3))
        with pytest.raises(ValueError):
            GroupDistribution(1, np.zeros(5))

    def test_non_finite_probabilities_rejected(self):
        # NaN compares false both ways: it used to pass and fail in convolve
        nan = np.full(6, np.nan)
        half_nan = np.array([1.0, np.nan, 0, 0, 0, 0])
        ident = get_gate("I").tableau
        for probs in (nan, half_nan, np.array([np.inf, -np.inf, 0, 0, 1, 0])):
            with pytest.raises(ValueError, match="not a probability"):
                GroupDistribution(1, probs)
        with pytest.raises(ValueError, match="not a probability"):
            GroupDistribution.from_weights(1, [(ident, np.nan)])

    @pytest.mark.parametrize("n, tab, width", [
        (2, get_gate("H").tableau, 1),
        (1, get_gate("CX").tableau, 2),
        (2, embed_tableau(get_gate("CX").tableau, (0, 2), 3), 3),
    ])
    def test_tableau_on_other_qubit_count(self, n, tab, width):
        with pytest.raises(ValueError,
                           match=f"acts on {width} qubits, .* on {n}$"):
            GroupDistribution.from_weights(n, [(tab, 1.0)])

    @pytest.mark.parametrize("n, vecs", [(2, (1, 1, 1, 1)), (1, (0, 6))])
    def test_non_element_rejected(self, n, vecs):
        # an unvalidated tableau is no element; (0, 6) would read the
        # identity's table cell if images past 2n bits were let through
        with pytest.raises(ValueError, match="Clifford element"):
            GroupDistribution.from_weights(n, [(CliffordTableau(n, vecs), 1)])

    def test_enumeration_limit(self):
        with pytest.raises(EnumerationUnavailableError):
            GroupDistribution.uniform(3)


class TestConvolution:
    def test_single_step_is_identity_operation(self):
        d = knill_like()
        assert np.allclose(convolve_steps(d, 1).probs, d.probs)

    def test_uniform_is_stationary(self):
        u = GroupDistribution.uniform(1)
        for j in (1, 2, 5):
            assert np.allclose(convolve_steps(u, j).probs, u.probs)

    def test_delta_at_identity(self):
        from cliffrb.clifford import CliffordTableau
        d = GroupDistribution.delta(CliffordTableau.identity(1))
        assert np.allclose(convolve_steps(d, 7).probs, d.probs)

    def test_delta_powers(self):
        g = get_gate("X90").tableau
        d = GroupDistribution.delta(g)
        sq = convolve_steps(d, 2)
        want = GroupDistribution.delta(clifford_compose(g, g))
        assert np.allclose(sq.probs, want.probs)

    def test_convolve_matches_direct_sum(self):
        rng = np.random.default_rng(0)
        group = enumerate_group(1, quotient=True)
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        a = GroupDistribution(1, p)
        b = GroupDistribution(1, q)
        got = convolve(a, b)
        for idx, g in enumerate(group):
            want = sum(p[i] * q[j]
                       for i, gi in enumerate(group)
                       for j, gj in enumerate(group)
                       if clifford_compose(gi, gj).strip_signs() ==
                       g.strip_signs())
            assert got.probs[idx] == pytest.approx(want)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            convolve(GroupDistribution.uniform(1), GroupDistribution.uniform(2))


class TestTotalVariation:
    def test_delta_value(self):
        d = GroupDistribution.delta(get_gate("H").tableau)
        assert total_variation(d) == pytest.approx(5 / 6)

    def test_periodic_chain_never_mixes(self):
        # pi/2-only steps alternate between the two cosets of the rotation
        # subgroup, so the walk stays at least total-variation 1/2 forever
        series = tv_series(knill_like(), 20)
        assert all(v >= 0.5 - 1e-12 for v in series)

    def test_identity_weight_gives_geometric_decay(self):
        series = np.array(tv_series(knill_like(extra_identity=0.2), 16))
        assert series[-1] < 1e-3
        # the chain retains a two-step alternation, so the clean geometric
        # ratio shows up between every other aggregate
        ratios = series[2:] / series[:-2]
        tail = ratios[6:]
        assert np.all(tail < 0.5)
        assert np.std(tail) < 0.01

    def test_csv_export(self):
        text = _tv_csv(tv_series(knill_like(), 3))
        assert text.startswith("steps,total_variation\n1,")
        assert len(text.strip().splitlines()) == 4


def brute_force_lp_max(c, a, budget, upper):
    """Exact max of c.s with a.s = budget, 0 <= s <= upper, via vertices."""
    nvars = len(c)
    best = None
    for free in range(nvars):
        for pattern in itertools.product((0.0, upper), repeat=nvars - 1):
            s = list(pattern[:free]) + [None] + list(pattern[free:])
            partial = sum(a[i] * s[i] for i in range(nvars) if i != free)
            if a[free] > 1e-15:
                sf = (budget - partial) / a[free]
                if not -1e-9 <= sf <= upper + 1e-9:
                    continue
                s[free] = min(max(sf, 0.0), upper)
            else:
                if abs(partial - budget) > 1e-9:
                    continue
                s[free] = upper if c[free] > 0 else 0.0
            val = sum(c[i] * s[i] for i in range(nvars))
            best = val if best is None else max(best, val)
    return best


class TestStepComparisonBound:
    def test_uniform_distribution_gives_zero(self):
        u = GroupDistribution.uniform(1)
        hi, lo = step_comparison_bound(u, 0.1, 0.5)
        assert hi == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)

    def test_matches_brute_force_vertices(self):
        rng = np.random.default_rng(1)
        alpha = 0.5
        for _ in range(15):
            p = rng.dirichlet(np.ones(6) * 0.7)
            if rng.random() < 0.5:
                p[rng.integers(6)] = 0
                p /= p.sum()
            d = GroupDistribution(1, p)
            eps = float(rng.uniform(0.01, 0.3))
            hi, lo = step_comparison_bound(d, eps, alpha)
            c = alpha * (1 / 6 - p)
            want_hi = brute_force_lp_max(c, p, eps / alpha, 4 / 3)
            want_lo = -brute_force_lp_max(-c, p, eps / alpha, 4 / 3)
            assert hi == pytest.approx(want_hi, abs=1e-9)
            assert lo == pytest.approx(want_lo, abs=1e-9)

    def test_missing_class_contributes_full_weight(self):
        # leave one class unconstrained: its strength can sit at the cap
        group = enumerate_group(1, quotient=True)
        omit = next(i for i, g in enumerate(group)
                    if g == get_gate("H").tableau.strip_signs())
        p = np.full(6, 0.2)
        p[omit] = 0.0
        d = GroupDistribution(1, p)
        alpha = 0.5
        eps = 0.05
        hi, _ = step_comparison_bound(d, eps, alpha)
        # cap-weight of the unconstrained class, minus the best (least
        # negative) way to spend the error budget on the remaining classes
        free_part = alpha * (1 / 6) * (4 / 3)
        budget_part = (eps / alpha) * alpha * (1 / 6 - 0.2) / 0.2
        assert hi == pytest.approx(free_part + budget_part, abs=1e-12)

    def test_aggregate_steps_tighten_missing_class(self):
        group = enumerate_group(1, quotient=True)
        omit = next(i for i, g in enumerate(group)
                    if g == get_gate("H").tableau.strip_signs())
        p = np.full(6, 0.2)
        p[omit] = 0.0
        d = GroupDistribution(1, p)
        hi1, _ = step_comparison_bound(d, 0.02, 0.5, k=1)
        hi3, _ = step_comparison_bound(d, 0.02, 0.5, k=3)
        assert np.all(convolve_steps(d, 3).probs > 0)
        assert hi3 < hi1

    def test_infeasible_error_rate(self):
        # single-class support caps the feasible error at alpha * D^2/(D^2-1)
        d = GroupDistribution.delta(get_gate("X90").tableau)
        for eps in (0.69, float("nan")):
            with pytest.raises(InfeasibleBoundError):
                step_comparison_bound(d, eps, 0.5)


class TestKappaBounds:
    def test_preimage_class_count(self):
        # every Clifford maps exactly D^2/2 - 1 non-identity Paulis onto
        # operators commuting with the measurement
        for n in (1, 2):
            m = default_measurement(n)
            for g in enumerate_group(n, quotient=True):
                from cliffrb.clifford import clifford_apply
                count = sum(
                    1 for idx in range(1, 4 ** n)
                    if pauli_commutes(clifford_apply(
                        g, PauliOperator(n, idx & ((1 << n) - 1),
                                         idx >> n, 0)), m))
                assert count == 4 ** n // 2 - 1

    def test_uniform_twirl_collapses(self):
        u = GroupDistribution.uniform(1)
        for r in (PauliOperator(1, 1, 0, 0), PauliOperator(1, 0, 1, 0),
                  PauliOperator(1, 1, 1, 0)):
            assert undetected_probability(u, r) == pytest.approx(1 / 3)
        rep = kappa_bounds([u, u, u], 0.3)
        assert rep.kappa_max == pytest.approx(0.0, abs=1e-12)
        assert rep.kappa_min == pytest.approx(0.0, abs=1e-12)

    def test_knill_step_q_values(self):
        # pi/2-rotation steps: Z errors are always seen, X/Y only half the
        # time, so the undetected probabilities split 1/2, 1/2, 0
        d = knill_like()
        qs = {name: undetected_probability(d, p) for name, p in [
            ("X", PauliOperator(1, 1, 0, 0)),
            ("Y", PauliOperator(1, 1, 1, 0)),
            ("Z", PauliOperator(1, 0, 1, 0)),
        ]}
        assert qs["X"] == pytest.approx(0.5)
        assert qs["Y"] == pytest.approx(0.5)
        assert qs["Z"] == pytest.approx(0.0)
        rep = kappa_bounds([d], 0.05)
        assert rep.kappa_max > 0

    def test_bounds_shrink_with_length(self):
        step = knill_like(extra_identity=0.2)
        e = 0.05
        widths = []
        for l in (1, 2, 4, 8):
            dists = [convolve_steps(step, k) for k in range(1, l + 1)]
            rep = kappa_bounds(dists, e)
            widths.append(rep.kappa_max - rep.kappa_min)
        assert all(b < a for a, b in zip(widths, widths[1:]))

    def test_adversarial_channels_respect_bounds(self):
        rng = np.random.default_rng(2)
        step = knill_like(extra_identity=0.1)
        l = 3
        dists = [convolve_steps(step, k) for k in range(1, l + 1)]
        paulis = [PauliOperator(1, m & 1, m >> 1, 0) for m in range(1, 4)]
        for _ in range(30):
            gamma = rng.dirichlet(np.ones(3)) * rng.uniform(0.005, 0.04)
            e = sum(g * (1 - undetected_probability(d, r))
                    for d in dists for g, r in zip(gamma, paulis))
            true_strength = gamma.sum() * 4 / 3
            inferred = 2 * e / l
            rep = kappa_bounds(dists, float(e))
            assert rep.kappa_min - 1e-12 <= true_strength - inferred \
                <= rep.kappa_max + 1e-12

    def test_first_order_warning(self):
        u = GroupDistribution.uniform(1)
        assert not kappa_bounds([u], 0.1).first_order_warning
        assert kappa_bounds([u] * 5, 0.1).first_order_warning

    def test_json_report(self):
        rep = kappa_bounds([knill_like()], 0.05)
        blob = rep.to_json()
        assert '"kappa_max"' in blob and '"r_max"' in blob

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kappa_bounds([], 0.1)
        for error in (-0.1, float("nan")):
            with pytest.raises(ValueError):
                kappa_bounds([GroupDistribution.uniform(1)], error)
        with pytest.raises(ValueError):
            kappa_bounds([GroupDistribution.uniform(1),
                          GroupDistribution.uniform(2)], 0.1)

    @pytest.mark.parametrize("n, r, measured", [
        (2, "Z", None),     # packs to label 2, the 2-qubit IX
        (2, "ZI", "ZZZ"),
        (1, "ZI", None),
        (1, "Z", "ZI"),
    ])
    def test_pauli_size_mismatch(self, n, r, measured):
        """A Pauli error or measured operator on another qubit count than
        the distributions is rejected, not read as another label."""
        d = GroupDistribution.uniform(n)
        m = None if measured is None else PauliOperator.from_string(measured)
        with pytest.raises(ValueError, match="size mismatch"):
            undetected_probability(d, PauliOperator.from_string(r), m)
        if m is not None:
            with pytest.raises(ValueError, match="size mismatch"):
                kappa_bounds([d], 0.05, measured=m)
