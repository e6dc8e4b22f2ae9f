import numpy as np
import pytest

from cliffrb.clifford import CliffordTableau, clifford_apply, clifford_compose, enumerate_group
from cliffrb.dense import DenseSuperoperator, depolarization_strength, group_twirl
from cliffrb.pauli import PauliOperator, pauli_commutes
from cliffrb.subgroups import (
    dual_basis,
    field_context,
    field_inv,
    field_mul,
    field_to_pauli,
    first_coord,
    q_subgroup,
    t_subgroup,
    verify_twirl_set,
)

import oracles
from oracles import pauli_to_field, random_tp_channel, vectorial_power


class TestFieldArithmetic:
    def test_multiplicative_identity(self):
        rng = np.random.default_rng(0)
        for n in range(1, 9):
            ctx = field_context(n)
            for a in rng.integers(0, 1 << n, size=10):
                assert field_mul(ctx, int(a), 1) == int(a)

    def test_gf4_generator_square(self):
        ctx = field_context(2)  # x^2 + x + 1
        assert field_mul(ctx, 0b10, 0b10) == 0b11  # x*x = x + 1

    def test_all_inverses_every_field(self):
        for n in range(1, 9):
            ctx = field_context(n)
            for a in range(1, 1 << n):
                assert field_mul(ctx, a, field_inv(ctx, a)) == 1

    def test_inverse_of_zero(self):
        with pytest.raises(ZeroDivisionError):
            field_inv(field_context(3), 0)

    def test_ring_axioms_random(self):
        rng = np.random.default_rng(1)
        ctx = field_context(5)
        for _ in range(50):
            a, b, c = (int(v) for v in rng.integers(0, 32, size=3))
            assert field_mul(ctx, a, b) == field_mul(ctx, b, a)
            assert field_mul(ctx, a, field_mul(ctx, b, c)) == \
                field_mul(ctx, field_mul(ctx, a, b), c)
            assert field_mul(ctx, a, b ^ c) == \
                field_mul(ctx, a, b) ^ field_mul(ctx, a, c)

    def test_no_zero_divisors(self):
        ctx = field_context(4)
        for a in range(1, 16):
            for b in range(1, 16):
                assert field_mul(ctx, a, b) != 0


class TestDualBasis:
    def test_trivial_field(self):
        assert field_context(1).dual == (1,)

    def test_gf4_polynomial_basis(self):
        ctx = field_context(2)
        for i in range(2):
            for j in range(2):
                prod = field_mul(ctx, ctx.basis[i], ctx.dual[j])
                assert first_coord(ctx, prod) == (1 if i == j else 0)

    def test_delta_property_all_builtin_fields(self):
        for n in range(1, 7):
            ctx = field_context(n)
            for i in range(n):
                for j in range(n):
                    prod = field_mul(ctx, ctx.basis[i], ctx.dual[j])
                    assert first_coord(ctx, prod) == (1 if i == j else 0)

    def test_dual_of_dual_for_random_bases(self):
        rng = np.random.default_rng(2)
        for n in (2, 3, 4):
            poly = field_context(n).poly
            found = 0
            while found < 3:
                cand = [1] + [int(v) for v in rng.integers(0, 1 << n, size=n - 1)]
                try:
                    dual = dual_basis(n, poly, cand)
                except AssertionError:
                    continue  # not independent
                found += 1
                dd = dual_basis(n, poly, dual)
                assert dd == tuple(cand)


class TestPauliEncoding:
    def test_roundtrip(self):
        for n in (1, 2, 3):
            ctx = field_context(n)
            for m in range(4 ** n):
                p = PauliOperator(n, m & ((1 << n) - 1), m >> n, 0)
                a, c = pauli_to_field(ctx, p)
                assert field_to_pauli(ctx, a, c) == p

    def test_commutation_formula(self):
        # anticommutation = first coordinate of c*d + a*e
        for n in (1, 2):
            ctx = field_context(n)
            for m1 in range(4 ** n):
                p = PauliOperator(n, m1 & ((1 << n) - 1), m1 >> n, 0)
                a, c = pauli_to_field(ctx, p)
                for m2 in range(4 ** n):
                    q = PauliOperator(n, m2 & ((1 << n) - 1), m2 >> n, 0)
                    d, e = pauli_to_field(ctx, q)
                    form = first_coord(ctx, field_mul(ctx, c, d) ^ field_mul(ctx, a, e))
                    assert pauli_commutes(p, q) == (form == 0)

    def test_power_one_and_zero(self):
        ctx = field_context(2)
        p = PauliOperator.from_string("XZ")
        assert vectorial_power(ctx, p, 1) == p
        assert vectorial_power(ctx, p, 0).is_identity()

    def test_x1_to_basis_power_is_xj(self):
        for n in (2, 3):
            ctx = field_context(n)
            x1 = PauliOperator.single(n, 0, "X")
            for j in range(n):
                assert vectorial_power(ctx, x1, ctx.basis[j]) == \
                    PauliOperator.single(n, j, "X")

    def test_phase_rejected(self):
        ctx = field_context(1)
        with pytest.raises(ValueError):
            vectorial_power(ctx, PauliOperator.from_string("-X"), 1)


class TestTSubgroup:
    def test_action_and_order(self):
        ts = t_subgroup()
        assert len(ts) == 3
        t = ts[1]
        assert str(clifford_apply(t, PauliOperator.from_string("X"))) == "+Y"
        assert str(clifford_apply(t, PauliOperator.from_string("Z"))) == "+X"
        assert clifford_compose(t, ts[2]).is_identity()


class TestQSubgroup:
    def test_sizes(self):
        assert len(q_subgroup(1)) == 6
        assert len(q_subgroup(2)) == 60

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_linear_images_match_field_decoding(self, n):
        """The images read off the unit vectors' images by linearity give
        the same tableaux, in the same order, as decoding every image by
        field arithmetic."""
        assert q_subgroup(n) == oracles.q_subgroup(n)

    def test_n1_equals_full_quotient(self):
        got = {tab.encode() for tab in q_subgroup(1)}
        want = {tab.encode() for tab in enumerate_group(1, quotient=True)}
        assert got == want

    def test_all_signs_positive(self):
        for tab in q_subgroup(2):
            assert tab.signs == 0

    def test_closure_mod_signs(self):
        qs = q_subgroup(2)
        codes = {tab.encode() for tab in qs}
        assert len(codes) == 60
        for a in qs[::7]:
            for b in qs:
                comp = clifford_compose(a, b).strip_signs()
                assert comp.encode() in codes

    def test_exponentiation_property(self):
        rng = np.random.default_rng(3)
        ctx = field_context(2)
        qs = q_subgroup(2)
        for _ in range(40):
            tab = qs[rng.integers(0, len(qs))]
            m = int(rng.integers(1, 16))
            p = PauliOperator(2, m & 3, m >> 2, 0)
            k = int(rng.integers(0, 4))
            lhs = clifford_apply(tab, vectorial_power(ctx, p, k)).representative()
            rhs = vectorial_power(
                ctx, clifford_apply(tab, p).representative(), k)
            assert lhs == rhs


class TestTwirlCondition:
    def test_t_subgroup_passes(self):
        assert verify_twirl_set(t_subgroup())

    def test_full_quotient_passes(self):
        assert verify_twirl_set(enumerate_group(1, quotient=True))

    def test_identity_alone_fails(self):
        assert not verify_twirl_set([CliffordTableau.identity(1)])

    def test_q2_passes(self):
        assert verify_twirl_set(q_subgroup(2))


class TestDenseEquivalence:
    def test_pauli_then_t_equals_clifford_twirl(self):
        rng = np.random.default_rng(4)
        full = enumerate_group(1)
        for _ in range(3):
            s = random_tp_channel(1, rng)
            via_sub = group_twirl(group_twirl(s, "pauli"), t_subgroup())
            via_full = group_twirl(s, full)
            assert via_sub.distance(via_full) < 1e-9

    def test_pauli_then_q2_equals_clifford_twirl(self):
        rng = np.random.default_rng(5)
        s = random_tp_channel(2, rng)
        via_sub = group_twirl(group_twirl(s, "pauli"), q_subgroup(2))
        want = DenseSuperoperator.depolarizing(2, depolarization_strength(s))
        assert via_sub.distance(want) < 1e-9
