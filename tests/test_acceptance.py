"""End-to-end acceptance checks for the whole toolkit.

Each test class pins one headline behavior with explicit tolerances; the
long-running group searches for three qubits sit behind the `slow` marker.
"""

import itertools
import math

import numpy as np
import pytest
from scipy.stats import chisquare

from cliffrb.analysis import (
    bootstrap,
    chi2_sf,
    consistency_check,
    embed_depolarizing,
    fit,
    interleaved_gate_error,
)
from cliffrb.bounds import (
    GroupDistribution,
    convolve_steps,
    kappa_bounds,
    step_comparison_bound,
    tv_series,
    undetected_probability,
)
from cliffrb.clifford import (
    CliffordTableau,
    enumerate_group,
    group_order,
    sample_uniform,
)
from cliffrb.decomp import block_decompose, cayley_search
from cliffrb.dense import (
    DenseSuperoperator,
    depolarization_strength,
    group_twirl,
)
from cliffrb.errors import ErrorModel, expected_sequence_fidelity
from cliffrb.gates import GateSet, get_gate, sequence_tableau
from cliffrb.pauli import PauliChannel, PauliOperator
from cliffrb.protocol import (
    ExperimentDesign,
    gen_exact_sequence,
    run_experiment,
)
from cliffrb.stabilizer import apply_clifford, measure_z, zero_state
from cliffrb.subgroups import q_subgroup, t_subgroup

from oracles import model_predict, random_tp_channel, sample_choice_counts

ONE_QUBIT_GATES = ("H", "S", "Sdg", "X90", "X90m")


class TestGroupSizes:
    def test_orders_and_enumerations(self):
        assert group_order(1) == 24
        assert group_order(1, quotient=True) == 6
        assert group_order(2) == 11520
        assert group_order(2, quotient=True) == 720
        assert group_order(3, quotient=True) == 1451520
        assert len(enumerate_group(1)) == 24
        assert len(enumerate_group(1, quotient=True)) == 6
        assert len(enumerate_group(2)) == 11520
        assert len(enumerate_group(2, quotient=True)) == 720

    def test_three_qubit_quotient_enumeration(self):
        assert len(enumerate_group(3, quotient=True)) == 1451520


class TestEntanglingGateCounts:
    def test_two_qubit_table(self):
        gs = GateSet("acc", tuple((g, "each", 1.0) for g in ONE_QUBIT_GATES)
                     + (("CX", "all-pairs", 1.0),))
        table = cayley_search(gs, 2, quotient=True)
        hist = table.cost_histogram()
        assert hist == {0: 36, 1: 324, 2: 324, 3: 36}
        mean = sum(k * v for k, v in hist.items()) / sum(hist.values())
        assert mean == pytest.approx(1.5)

    def test_single_qubit_table(self):
        gs = GateSet("acc1", tuple((g, "each", 1.0) for g in ONE_QUBIT_GATES))
        table = cayley_search(gs, 1, quotient=True)
        assert table.cost_histogram() == {0: 6}

    @pytest.mark.slow
    def test_three_qubit_table(self):
        gs = GateSet("acc3", tuple((g, "each", 1.0) for g in ONE_QUBIT_GATES)
                     + (("CX", "all-pairs", 1.0),))
        table = cayley_search(gs, 3, quotient=True)
        hist = table.cost_histogram()
        assert sum(hist.values()) == 1451520
        assert hist == {0: 216, 1: 5832, 2: 93312, 3: 601344,
                        4: 657072, 5: 93312, 6: 432}
        mean = sum(k * v for k, v in hist.items()) / sum(hist.values())
        assert abs(mean - 3.51) < 0.01


class TestBlockDecomposition:
    def test_round_trip_batch(self):
        rng = np.random.default_rng(0)
        for n in range(1, 7):
            bound = 8 * n * n + 2 * n
            for _ in range(1000):
                tab = sample_uniform(n, rng)
                seq = block_decompose(tab)
                assert sequence_tableau(seq) == tab
                assert len(seq.gates) <= bound


class TestUniformSampling:
    def test_chi_squared_uniformity(self):
        rng = np.random.default_rng(1)
        index = {t.encode(): i for i, t in enumerate(enumerate_group(1))}
        counts = np.zeros(24)
        for _ in range(24000):
            counts[index[sample_uniform(1, rng).encode()]] += 1
        _, p = chisquare(counts)
        assert p > 0.001

    def test_choice_count_product_identity(self):
        for n in range(1, 9):
            product = 1
            for cx, cz in sample_choice_counts(n):
                product *= cx * cz
            assert product == group_order(n)


class TestTwirlEquivalences:
    def test_clifford_twirl_depolarizes(self):
        rng = np.random.default_rng(2)
        for n in (1, 2):
            group = enumerate_group(n)
            for _ in range(10):
                ch = random_tp_channel(n, rng)
                p = depolarization_strength(ch)
                twirled = group_twirl(ch, group)
                want = DenseSuperoperator.depolarizing(n, p)
                assert twirled.distance(want) < 1e-9

    def test_pauli_twirl_diagonalizes(self):
        rng = np.random.default_rng(3)
        for n in (1, 2):
            for _ in range(5):
                twirled = group_twirl(random_tp_channel(n, rng), "pauli")
                off = twirled.chi - np.diag(np.diag(twirled.chi))
                assert np.max(np.abs(off)) < 1e-9

    def test_small_twirl_sets_match_full_twirl(self):
        rng = np.random.default_rng(4)
        assert len(q_subgroup(2)) == 60
        for n, k_set in ((1, t_subgroup()), (2, q_subgroup(2))):
            group = enumerate_group(n)
            for _ in range(3 if n == 2 else 10):
                ch = random_tp_channel(n, rng)
                via_subset = group_twirl(group_twirl(ch, "pauli"), k_set)
                via_full = group_twirl(ch, group)
                assert via_subset.distance(via_full) < 1e-9


class TestOverRotationDepolarization:
    def test_x_rotation_strength(self):
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        for theta in (0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
            u = (math.cos(theta) * np.eye(2) - 1j * math.sin(theta) * x)
            s = DenseSuperoperator.from_unitary(u)
            want = (4 / 3) * math.sin(theta) ** 2
            assert abs(depolarization_strength(s) - want) < 1e-10


class TestFitRecovery:
    LENGTHS = (1, 3, 8, 21, 55, 144)

    def test_noiseless_fidelities_match_decay_model(self):
        p, p_m = 0.04, 0.05
        model = ErrorModel(PauliChannel.depolarizing(1, p),
                           spam_channel=PauliChannel.depolarizing(1, p_m))
        eps_s = 0.5 * p
        eps_m = 0.5 * (1 - (1 - p_m) * (1 - p))
        rng = np.random.default_rng(5)
        for l in self.LENGTHS:
            seq = gen_exact_sequence(1, l, rng)
            f = expected_sequence_fidelity(seq, model)
            want = model_predict("main", [l], (eps_s, eps_m), 0.5)[0]
            assert abs(f - want) < 1e-12

    def test_monte_carlo_recovery(self):
        model = ErrorModel(PauliChannel.depolarizing(1, 0.04),
                           spam_channel=PauliChannel.depolarizing(1, 0.05))
        hits = 0
        for trial in range(100):
            design = ExperimentDesign(self.LENGTHS, 100, 100,
                                      master_seed=1000 + trial)
            ds = run_experiment(design, "exact", model, 1)
            rep = bootstrap(ds, "main", 0.5, n_resamples=100,
                            rng=np.random.default_rng(trial))
            eps_hat = rep.original[0]
            se = rep.standard_errors[0]
            if abs(eps_hat - 0.02) < 3 * se:
                hits += 1
        assert hits >= 95


class TestInterleavedExtraction:
    def _noiseless_fit(self, eps_s, alpha):
        from cliffrb.protocol import RBDataset
        lengths = (1, 2, 4, 8, 16, 32)
        f = model_predict("main", lengths, (eps_s, 0.02), alpha)
        rows = [("syn", l, i, 1, fl)
                for l, fl in zip(lengths, f) for i in range(2)]
        return fit(RBDataset(rows), "main", alpha)

    def test_published_numbers(self):
        ref = self._noiseless_fit(0.162, 0.75)
        inter = self._noiseless_fit(0.216, 0.75)
        eps_g, _ = interleaved_gate_error(ref, inter)
        assert abs(eps_g - 0.069) < 0.001

    def test_planted_gate_error_recovered(self):
        alpha, p, p_g = 0.5, 0.03, 0.012
        ref = self._noiseless_fit(alpha * p, alpha)
        inter = self._noiseless_fit(alpha * (1 - (1 - p) * (1 - p_g)), alpha)
        eps_g, _ = interleaved_gate_error(ref, inter)
        assert eps_g == pytest.approx(alpha * p_g, abs=1e-9)


class TestChiSquaredCalibration:
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

    def test_borderline_values(self):
        # both sit just below the dof-4 critical value 9.488
        assert chi2_sf(9.28, 4) > 0.05
        assert chi2_sf(9.48, 4) > 0.05
        assert abs(9.48 - 9.4877) < 0.01

    def test_tabulated_critical_values(self):
        for dof, crit, tail in self.TABLE:
            assert abs(chi2_sf(crit, dof) - tail) < 1e-4


class TestDepolarizingEmbedding:
    def test_exact_factors(self):
        p_n, factor = embed_depolarizing(1.0, 1, 2)
        assert p_n == pytest.approx(4 / 5, rel=1e-15)
        assert factor == pytest.approx(6 / 5, rel=1e-15)

    def test_dense_cross_check(self):
        p = 0.21
        one = DenseSuperoperator.from_pauli_channel(
            PauliChannel.depolarizing(1, p))
        two = DenseSuperoperator(
            2, np.kron(DenseSuperoperator.identity(1).chi, one.chi))
        want, _ = embed_depolarizing(p, 1, 2)
        assert abs(depolarization_strength(two) - want) < 1e-10

    def test_composite_step_estimate(self):
        got = consistency_check(0.069, 0.010, 0.007)
        assert abs(got - 0.136) < 0.01


def _half_half_rotations(identity_weight=0.0):
    w = (1 - identity_weight) / 2
    return GroupDistribution.from_weights(1, [
        (get_gate("X90").tableau, w),
        (get_gate("Y90").tableau, w),
        (CliffordTableau.identity(1), identity_weight),
    ])


class TestTotalVariation:
    def test_periodic_chain_stays_away_from_uniform(self):
        series = tv_series(_half_half_rotations(), 20)
        assert all(v >= 0.5 - 1e-12 for v in series)

    def test_identity_weight_decays_geometrically(self):
        series = np.array(tv_series(_half_half_rotations(0.2), 16))
        assert series[-1] < 1e-3
        two_step = series[2:] / series[:-2]
        rate = two_step[-1]
        assert 0 < rate < 1
        assert np.allclose(two_step[8:], rate, atol=1e-3)


def _vertex_lp_max(c, a, budget, upper):
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


class TestComparisonAndKappaBounds:
    def test_uniform_step_distribution(self):
        u = GroupDistribution.uniform(1)
        hi, lo = step_comparison_bound(u, 0.08, 0.5)
        assert hi == pytest.approx(0.0, abs=1e-12)
        assert lo == pytest.approx(0.0, abs=1e-12)
        rep = kappa_bounds([u, u], 0.1)
        assert rep.kappa_max == pytest.approx(0.0, abs=1e-12)
        assert rep.kappa_min == pytest.approx(0.0, abs=1e-12)

    def test_toy_distribution_matches_brute_force(self):
        rng = np.random.default_rng(6)
        alpha = 0.5
        for _ in range(10):
            p = rng.dirichlet(np.ones(6))
            if rng.random() < 0.5:
                p[rng.integers(6)] = 0
                p /= p.sum()
            eps = float(rng.uniform(0.02, 0.25))
            hi, lo = step_comparison_bound(GroupDistribution(1, p), eps, alpha)
            c = alpha * (1 / 6 - p)
            assert hi == pytest.approx(
                _vertex_lp_max(c, p, eps / alpha, 4 / 3), abs=1e-9)
            assert lo == pytest.approx(
                -_vertex_lp_max(-c, p, eps / alpha, 4 / 3), abs=1e-9)

    def test_adversarial_channel_inside_bounds(self):
        rng = np.random.default_rng(7)
        step = _half_half_rotations(0.1)
        l = 3
        dists = [convolve_steps(step, k) for k in range(1, l + 1)]
        paulis = [PauliOperator(1, m & 1, m >> 1, 0) for m in range(1, 4)]
        for _ in range(20):
            gamma = rng.dirichlet(np.ones(3)) * rng.uniform(0.005, 0.04)
            e = sum(g * (1 - undetected_probability(d, r))
                    for d in dists for g, r in zip(gamma, paulis))
            deviation = gamma.sum() * 4 / 3 - 2 * e / l
            rep = kappa_bounds(dists, float(e))
            assert rep.kappa_min - 1e-12 <= deviation <= rep.kappa_max + 1e-12


# -- stabilizer engine against the dense oracle -------------------------------


class _Branch:
    """A weighted stabilizer-simulation branch with its outcome record."""

    def __init__(self, state, prob, outcomes):
        self.state = state
        self.prob = prob
        self.outcomes = outcomes


class _FixedBit:
    """Stands in for an rng; measure_z draws exactly one coin flip."""

    def __init__(self, bit):
        self.bit = bit

    def integers(self, lo, hi):
        assert (lo, hi) == (0, 2)
        return self.bit


def _random_circuit(n, rng, n_ops=30, n_meas=3):
    names_1q = ["H", "S", "Sdg", "X90", "Y90", "X", "Z", "T"]
    names_2q = ["CX", "CZ"]
    ops = []
    for _ in range(n_ops - n_meas):
        if n > 1 and rng.random() < 0.4:
            i, j = rng.choice(n, size=2, replace=False)
            ops.append((str(rng.choice(names_2q)), (int(i), int(j))))
        else:
            ops.append((str(rng.choice(names_1q)), (int(rng.integers(n)),)))
    for pos in sorted(rng.choice(len(ops) + 1, size=n_meas, replace=True)):
        ops.insert(pos, ("M", (int(rng.integers(n)),)))
    return ops


def _stabilizer_branches(n, ops):
    from cliffrb.clifford import embed_tableau
    branches = [_Branch(zero_state(n), 1.0, ())]
    for name, idxs in ops:
        nxt = []
        for br in branches:
            if name == "M":
                from cliffrb.stabilizer import deterministic_z_outcome
                j = idxs[0]
                det = deterministic_z_outcome(br.state, j)
                if det is None:
                    for bit in (0, 1):
                        st = br.state.copy()
                        out, _ = measure_z(st, j, _FixedBit(bit))
                        nxt.append(_Branch(st, br.prob / 2,
                                           br.outcomes + (out,)))
                else:
                    out, _ = measure_z(br.state, j, _FixedBit(0))
                    assert out == det
                    nxt.append(_Branch(br.state, br.prob,
                                       br.outcomes + (out,)))
            else:
                tab = embed_tableau(get_gate(name).tableau, idxs, n)
                apply_clifford(br.state, tab)
                nxt.append(br)
        branches = nxt
    merged = {}
    for br in branches:
        merged[br.outcomes] = merged.get(br.outcomes, 0.0) + br.prob
    return merged


def _dense_branches(n, ops):
    """Exact outcome-string distribution via statevector branch enumeration."""
    d = 2 ** n
    start = np.zeros(d, dtype=complex)
    start[0] = 1.0
    probs = {}
    stack = [((), start, 1.0)]
    for name, idxs in ops:
        new_stack = []
        for outcomes, psi, w in stack:
            if name == "M":
                j = idxs[0]
                for bit in (0, 1):
                    mask = np.array([(k >> j) & 1 == bit for k in range(d)])
                    proj = psi * mask
                    p = float(np.vdot(proj, proj).real)
                    if p > 1e-14:
                        new_stack.append((outcomes + (bit,),
                                          proj / math.sqrt(p), w * p))
            else:
                full = _embed_unitary(get_gate(name).dense, idxs, n)
                new_stack.append((outcomes, full @ psi, w))
        stack = new_stack
    for outcomes, _, w in stack:
        probs[outcomes] = probs.get(outcomes, 0.0) + w
    return probs


def _embed_unitary(mat, idxs, n):
    d = 2 ** n
    full = np.zeros((d, d), dtype=complex)
    rest = [q for q in range(n) if q not in idxs]
    m = len(idxs)
    for col in range(d):
        sub_in = sum(((col >> q) & 1) << t for t, q in enumerate(idxs))
        fixed = sum(((col >> q) & 1) << q for q in rest)
        for sub_out in range(2 ** m):
            row = fixed + sum(((sub_out >> t) & 1) << q
                              for t, q in enumerate(idxs))
            full[row, col] += mat[sub_out, sub_in]
    return full


class TestStabilizerAgainstDense:
    def test_exact_branch_distributions(self):
        rng = np.random.default_rng(8)
        for trial in range(200):
            n = int(rng.integers(1, 4))
            ops = _random_circuit(n, rng)
            stab = _stabilizer_branches(n, ops)
            dense = _dense_branches(n, ops)
            assert set(stab) == set(dense)
            for key, p in stab.items():
                assert abs(p - dense[key]) < 1e-9

    def test_sampled_frequencies(self):
        rng = np.random.default_rng(9)
        for _ in range(3):
            n = int(rng.integers(2, 4))
            ops = _random_circuit(n, rng)
            dense = _dense_branches(n, ops)
            counts = {}
            shots = 10000
            for _ in range(shots):
                state = zero_state(n)
                outcomes = []
                for name, idxs in ops:
                    if name == "M":
                        out, _ = measure_z(state, idxs[0], rng)
                        outcomes.append(out)
                    else:
                        from cliffrb.clifford import embed_tableau
                        apply_clifford(state, embed_tableau(
                            get_gate(name).tableau, idxs, n))
                key = tuple(outcomes)
                counts[key] = counts.get(key, 0) + 1
            for key, p in dense.items():
                freq = counts.get(key, 0) / shots
                sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
                assert abs(freq - p) <= max(3 * sigma, 5e-4)
