"""Cross-checks of the table-driven small-group kernels against the paths
they replaced (kept in tests/oracles.py): the packed Cayley-graph Dijkstra,
the batched signed-label tables against the per-tableau `local_table`, the
basis-change dense representations, the signed-permutation conjugation and
twirls, the image lookups of `subgroups` and `bounds`, and the `bounds`
product table and commutation array against the element-by-element loops."""

import numpy as np
import pytest

from cliffrb import decomp, dense
from cliffrb.bounds import (
    GroupDistribution,
    _group,
    convolve,
    default_measurement,
    kappa_bounds,
    step_aggregates,
    tv_series,
    undetected_probability,
)
from cliffrb.clifford import (
    CliffordTableau,
    _label_tables,
    clifford_apply,
    embed_tableau,
    enumerate_group,
    quotient_group,
    sample_uniform,
)
from cliffrb.decomp import cayley_search
from cliffrb.dense import DenseSuperoperator, conjugate_by_tableau, group_twirl
from cliffrb.gates import (GateSet, get_gate, sequence_tableau,
                           standard_gate_set)
from cliffrb.pauli import PauliOperator, pauli_commutes
from cliffrb.subgroups import q_subgroup, verify_twirl_set

import oracles


def each(*names):
    return tuple((g, "each", 1.0) for g in names)


HS_CX01 = GateSet("hs-cx01", each("H", "S") + (("CX", ((0, 1),), 1.0),))
ONEQ_CX = GateSet("1q+cx", each("H", "S", "Sdg", "X90", "X90m")
                  + (("CX", "all-pairs", 1.0),))
XY = GateSet("xy", each("X90", "X90m", "Y90", "Y90m"))


CAYLEY_CASES = {
    "1q-standard": (standard_gate_set(), 1, False, ("CX",)),
    "1q-xy": (XY, 1, False, ("X90",)),
    "1q-xy-quotient": (XY, 1, True, ("X90",)),
    "2q-hs-cx01": (HS_CX01, 2, False, ("CX",)),
    "2q-standard": (standard_gate_set(), 2, False, ("CX",)),
    "2q-1q+cx-quotient": (ONEQ_CX, 2, True, ("CX",)),
    "2q-standard-quotient-cz": (standard_gate_set(), 2, True, ("CZ",)),
}


class TestCayleyAgainstObjectDijkstra:
    @pytest.fixture(scope="class", params=list(CAYLEY_CASES.values()),
                    ids=list(CAYLEY_CASES))
    def searched(self, request):
        """The search's entries and the heap oracle's, once per case."""
        gs, n, quotient, primary = request.param
        table = cayley_search(gs, n, quotient=quotient, primary_gates=primary)
        return table.entries, oracles.cayley_search_entries(gs, n, quotient,
                                                            primary)

    def test_entries_equal(self, searched):
        got, want = searched
        assert got == want

    def test_entries_in_settle_order(self, searched):
        # the bucket queue settles ties in push order, as the heap's counter
        got, want = searched
        assert list(got.items()) == list(want.items())


@pytest.mark.parametrize("case", ["2q-hs-cx01", "2q-1q+cx-quotient"])
def test_sequences_compose_to_keys_at_depth(case):
    """Every sequence rebuilt from the search tree composes to its key (signs
    stripped in the quotient) and carries its own cost."""
    gs, n, quotient, primary = CAYLEY_CASES[case]
    table = cayley_search(gs, n, quotient=quotient, primary_gates=primary)
    for key, (seq, (prim, tot)) in table.entries.items():
        tab = sequence_tableau(seq)
        assert (tab.strip_signs() if quotient else tab).encode() == key
        assert len(seq) == tot
        assert sum(name in primary for name, _ in seq) == prim


@pytest.mark.parametrize("case", ["1q-standard", "2q-hs-cx01",
                                  "1q-xy-quotient", "2q-1q+cx-quotient"])
def test_keys_do_not_alias(case):
    """Only an element's own `encode()` int is a key: no negative, too wide,
    signed (in the quotient), other-n or non-int key finds an entry, nor
    an in-range int that encodes no element (0, repeated images, random)."""
    gs, n, quotient, primary = CAYLEY_CASES[case]
    entries = cayley_search(gs, n, quotient=quotient,
                            primary_gates=primary).entries
    bits = 4 * n * n + 2 * n
    rng = np.random.default_rng(7)
    keys = list(entries)
    bad = [-1, -(1 << bits), 1 << bits, "1", None, 1.5, (keys[0],),
           bytes(1 << i for i in range(2 * n))]
    for key in keys[::37]:
        bad += [key - (1 << bits), key | 1 << bits, key << bits]
        if quotient:
            bad += [key | s for s in range(1, 1 << 2 * n)]
        # in range, but image i repeats image 0: no element
        w = 2 * n
        first = key >> w & (1 << w) - 1
        bad += [key & ~((1 << w) - 1 << w * (i + 1)) | first << w * (i + 1)
                for i in range(1, w)]
    # in range and no element: 0, and random ints that are no key
    known = set(keys)
    bad.append(0)
    draws = np.random.default_rng(8).integers(0, 1 << bits, 2000)
    bad += [k for k in map(int, draws) if k not in known][:200]
    for other in {1, 2, 3} - {n}:
        bad += [sample_uniform(other, rng).encode() for _ in range(20)]
        bad.append(CliffordTableau.identity(other).encode())
    for key in bad:
        assert key not in entries
        with pytest.raises(KeyError):
            entries[key]
    assert all(key in entries for key in keys[::37])


@pytest.mark.parametrize("case", ["2q-hs-cx01", "2q-1q+cx-quotient"])
def test_chunk_boundaries_keep_the_tree(case, monkeypatch):
    """Expanding 7 parents at a time splits the buckets across chunks, so
    first pushes and cheaper classes meet across chunk boundaries; the
    entries and their settle order stay the heap oracle's."""
    monkeypatch.setattr(decomp, "_CHUNK", 7)
    gs, n, quotient, primary = CAYLEY_CASES[case]
    got = cayley_search(gs, n, quotient=quotient, primary_gates=primary)
    want = oracles.cayley_search_entries(gs, n, quotient, primary)
    assert list(got.entries.items()) == list(want.items())


def assert_tables_match(tabs):
    images, flips = _label_tables(tabs)
    want = np.array([oracles.local_table(tab) for tab in tabs])
    assert images.dtype == flips.dtype == np.uint8
    assert np.array_equal(images, want[..., 0])
    assert np.array_equal(flips, want[..., 1])


class TestLabelTables:
    @pytest.mark.parametrize("n", [1, 2])
    def test_whole_signed_group(self, n):
        assert_tables_match(enumerate_group(n))

    def test_random_three_qubit_tableaux(self):
        rng = np.random.default_rng(70)
        tabs = [sample_uniform(3, rng) for _ in range(50)]
        assert len({tab.signs for tab in tabs}) > 1
        assert_tables_match(tabs)

    @pytest.mark.parametrize("n", [1, 2])
    def test_quotient_images_unchanged(self, n):
        images = quotient_group(n).images
        assert images.dtype == np.uint8
        assert np.array_equal(images, oracles.quotient_images_by_linearity(n))


@pytest.fixture(params=[1, 2, 3])
def channel(request):
    n = request.param
    return oracles.random_tp_channel(n, np.random.default_rng(40 + n))


def random_rho(n, rng):
    d = 2 ** n
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    rho = g @ g.conj().T
    return rho / np.trace(rho)


class TestDenseAgainstLoops:
    def test_from_kraus(self, channel):
        n = channel.n_qubits
        kraus = oracles.kraus(channel)
        got = DenseSuperoperator.from_kraus(n, kraus).chi
        assert np.max(np.abs(got - oracles.chi_from_kraus(n, kraus))) < 1e-12
        assert np.max(np.abs(got - channel.chi)) < 1e-12

    def test_natural_and_back(self, channel):
        n = channel.n_qubits
        nat = channel.natural()
        want = oracles.natural_from_chi(n, channel.chi)
        assert np.max(np.abs(nat - want)) < 1e-12
        chi = DenseSuperoperator.from_natural(n, nat).chi
        assert np.max(np.abs(chi - oracles.chi_from_natural(n, nat))) < 1e-12

    def test_apply(self, channel):
        n = channel.n_qubits
        rho = random_rho(n, np.random.default_rng(7))
        want = oracles.apply_chi(n, channel.chi, rho)
        assert np.max(np.abs(channel.apply(rho) - want)) < 1e-12

    def test_compose(self, channel):
        n = channel.n_qubits
        other = oracles.random_tp_channel(n, np.random.default_rng(9))
        want = oracles.chi_from_natural(
            n, oracles.natural_from_chi(n, channel.chi)
            @ oracles.natural_from_chi(n, other.chi))
        assert np.max(np.abs(channel.compose(other).chi - want)) < 1e-12

    def test_trace_preservation(self, channel):
        n = channel.n_qubits
        eye = np.eye(2 ** n)
        assert np.allclose(oracles.chi_trace_map(n, channel.chi), eye)
        assert channel.is_trace_preserving()
        scaled = DenseSuperoperator(n, 0.9 * channel.chi)
        assert not np.allclose(oracles.chi_trace_map(n, scaled.chi), eye)
        assert not scaled.is_trace_preserving()

    def test_conjugate_by_tableau(self, channel):
        n = channel.n_qubits
        rng = np.random.default_rng(12)
        for _ in range(8):
            tab = sample_uniform(n, rng)
            got = conjugate_by_tableau(channel, tab).chi
            assert np.array_equal(got, oracles.conjugate_chi(channel.chi, tab))


class TestTwirlsAgainstLoops:
    @pytest.mark.parametrize("n", [1, 2])
    def test_full_clifford_twirl(self, n):
        ch = oracles.random_tp_channel(n, np.random.default_rng(20 + n))
        group = enumerate_group(n)
        got = group_twirl(ch, group).chi
        assert np.max(np.abs(got - oracles.twirl_chi(ch.chi, group))) < 1e-12

    def test_signed_gather_over_a_plain_list(self):
        """A list of signed tableaux takes the one generic gather."""
        ch = oracles.random_tp_channel(1, np.random.default_rng(26))
        group = list(enumerate_group(1))
        got = group_twirl(ch, group).chi
        assert np.max(np.abs(got - oracles.twirl_chi(ch.chi, group))) < 1e-12

    def test_sign_free_set_is_no_whole_group(self):
        ch = oracles.random_tp_channel(1, np.random.default_rng(29))
        group = enumerate_group(1, quotient=True)
        got = group_twirl(ch, group).chi
        assert np.max(np.abs(got - oracles.twirl_chi(ch.chi, group))) < 1e-12

    def test_signed_gather_over_sign_patterns_of_shared_rows(self):
        rng = np.random.default_rng(27)
        ch = oracles.random_tp_channel(2, rng)
        vecs = enumerate_group(2, quotient=True).vecs
        rows = rng.choice(len(vecs), size=6, replace=False)
        group = [CliffordTableau(2, tuple(vecs[r].tolist()), int(m))
                 for r in rows for m in rng.choice(16, size=3, replace=False)]
        got = group_twirl(ch, group).chi
        assert np.max(np.abs(got - oracles.twirl_chi(ch.chi, group))) < 1e-12

    def test_whole_group_twirl_reads_the_sign_free_rows(self, monkeypatch):
        ch = oracles.random_tp_channel(2, np.random.default_rng(28))
        group = enumerate_group(2)
        want = group_twirl(ch, list(group)).chi
        read = []

        def label_tables(tabs):
            read.append(len(tabs))
            return _label_tables(tabs)

        monkeypatch.setattr(dense, "_label_tables", label_tables)
        got = group_twirl(ch, group).chi
        assert read and max(read) <= 720
        assert np.max(np.abs(got - want)) < 1e-13

    def test_pauli_then_q_subgroup_twirl(self):
        ch = oracles.random_tp_channel(2, np.random.default_rng(23))
        q = q_subgroup(2)
        pauli = group_twirl(ch, "pauli")
        got = group_twirl(pauli, q).chi
        assert np.max(np.abs(got - oracles.twirl_chi(pauli.chi, q))) < 1e-12


def count_twirl_images(k_set):
    """verify_twirl_set's counting, image by image on PauliOperators."""
    n = k_set[0].n_qubits
    size = 4 ** n - 1
    counts = [[0] * size for _ in range(size)]
    for tab in k_set:
        for m in range(1, size + 1):
            p = PauliOperator(n, m & ((1 << n) - 1), m >> n, 0)
            img = clifford_apply(tab, p).representative()
            counts[m - 1][(img.x_mask | (img.z_mask << n)) - 1] += 1
    return all(c == counts[0][0] for row in counts for c in row)


class TestImageLookups:
    @pytest.mark.parametrize("n", [1, 2])
    def test_verify_twirl_set(self, n):
        q = q_subgroup(n)
        assert verify_twirl_set(q) and count_twirl_images(q)
        rng = np.random.default_rng(30 + n)
        for size in (1, 3, len(q) - 1):
            subset = [q[i] for i in rng.choice(len(q), size, replace=False)]
            assert verify_twirl_set(subset) == count_twirl_images(subset)

    @pytest.mark.parametrize("n", [1, 2])
    def test_undetected_probability(self, n):
        elements = _group(n).elements
        rng = np.random.default_rng(50 + n)
        probs = rng.random(len(elements))
        probs[rng.random(len(elements)) < 0.3] = 0.0
        dist = GroupDistribution(n, probs / probs.sum())
        measured = [None, PauliOperator.from_string("XZ"[:n])]
        for m in measured:
            mop = default_measurement(n) if m is None else m
            for v in range(1, 4 ** n):
                r = PauliOperator(n, v & ((1 << n) - 1), v >> n, 0)
                want = 0.0
                for i in dist.support():
                    if pauli_commutes(clifford_apply(elements[i], r), mop):
                        want += float(dist.probs[i])
                assert undetected_probability(dist, r, m) == want


def dirichlet(n, rng, size=None):
    """Dirichlet-random distribution over the quotient group, on `size`
    random elements (all of them when size is None)."""
    count = len(enumerate_group(n, quotient=True))
    probs = np.zeros(count)
    keep = (np.arange(count) if size is None
            else rng.choice(count, size, replace=False))
    probs[keep] = rng.dirichlet(np.ones(len(keep)))
    return GroupDistribution(n, probs)


def embedded_gate_steps(rng):
    """I, then H, S and X90 on each qubit, then CX: eight 2-qubit steps."""
    tabs = [CliffordTableau.identity(2)]
    tabs += [embed_tableau(get_gate(name).tableau, (q,), 2)
             for name in ("H", "S", "X90") for q in (0, 1)]
    tabs.append(get_gate("CX").tableau)
    return GroupDistribution.from_weights(
        2, list(zip(tabs, rng.dirichlet(np.ones(len(tabs))))))


def assert_bounds_match_loops(dists):
    n = dists[0].n_qubits
    for m in (None, PauliOperator.from_string("X" * n),
              PauliOperator.from_string("Y" + "Z" * (n - 1))):
        rep = kappa_bounds(dists, 0.05, measured=m)
        want = oracles.kappa_extremes(dists, m)
        assert list(zip(rep.q_max, rep.q_min, rep.r_max, rep.r_min)) == want
        for dist in dists:
            for v in range(4 ** n):
                r = PauliOperator(n, v & ((1 << n) - 1), v >> n, 0)
                assert (undetected_probability(dist, r, m)
                        == oracles.undetected_probability(dist, r, m))


class TestBoundsAgainstLoops:
    @pytest.mark.parametrize("n,size", [(1, None), (2, 40)])
    def test_dirichlet_distributions(self, n, size):
        rng = np.random.default_rng(60 + n)
        for _ in range(3):
            a, b = dirichlet(n, rng, size), dirichlet(n, rng, size)
            got = convolve(a, b).probs
            assert np.array_equal(got, oracles.group_convolve(a, b))
            assert_bounds_match_loops([a, b])

    @pytest.mark.parametrize("n", [1, 2])
    def test_convolve_support_shapes(self, n):
        """convolve, bit for bit as the loops over both supports: one side
        of full support with a one-element other side, random supports, and
        entries in [-1e-12, 0), which a support leaves out."""
        rng = np.random.default_rng(64 + n)
        count = len(enumerate_group(n, quotient=True))
        full = dirichlet(n, rng)
        delta = GroupDistribution(n, np.eye(count)[rng.integers(count)])
        cases = [(full, delta), (delta, full), (delta, delta)]
        for _ in range(4):
            a, b = (dirichlet(n, rng, int(rng.integers(1, min(count - 1, 60))))
                    for _ in range(2))
            cases.append((a, b))
            # tiny negatives off b's support (and off a's), -0.0 among them
            off = [np.flatnonzero(d.probs == 0) for d in (a, b)]
            pa, pb = a.probs.copy(), b.probs.copy()
            for p, o in zip((pa, pb), off):
                p[o[:len(o) // 2]] = -1e-12 * rng.random(len(o) // 2)
                p[o[-1]] = -0.0
                p[o[-2]] = -1e-12
            cases += [(a, GroupDistribution(n, pb)),
                      (GroupDistribution(n, pa), GroupDistribution(n, pb))]
        for a, b in cases:
            got = convolve(a, b).probs
            assert got.tobytes() == oracles.group_convolve(a, b).tobytes()

    def test_embedded_gate_support(self):
        d = embedded_gate_steps(np.random.default_rng(62))
        aggregates = step_aggregates(d, 6)
        for prev, acc in zip(aggregates, aggregates[1:]):
            assert np.array_equal(acc.probs, oracles.group_convolve(d, prev))
        assert_bounds_match_loops(aggregates)


class TestProductRows:
    """`QuotientGroup.rows` fills the product table a row at a time, on
    first ask; in any order of asking, the rows are those of the table built
    up front and of the table composed pair by pair."""

    @pytest.mark.parametrize("n", [1, 2])
    def test_rows_in_any_order(self, n):
        want = oracles.eager_product_table(n)
        assert want.tolist() == oracles.product_table(n)
        count = len(want)
        rng = np.random.default_rng(70 + n)
        for _ in range(2):
            group = quotient_group.__wrapped__(n)  # uncached: nothing filled
            assert not group.table.any()
            part = rng.choice(count, count // 3, replace=False)
            assert np.array_equal(group.rows(part), want[part])
            filled = np.flatnonzero(group.table.any(axis=1))
            assert filled.tolist() == sorted(part.tolist())
            # the rest, in another order and in pieces that overlap the part
            for piece in np.array_split(rng.permutation(count), 5):
                assert np.array_equal(group.rows(piece), want[piece])
            assert np.array_equal(group.rows(slice(None)), want)
            assert group.table.flags.c_contiguous

    def test_bounds_fill_only_the_support_rows(self):
        """A distribution of eight elements makes from_weights, tv_series
        and kappa_bounds fill only its eight rows."""
        quotient_group.cache_clear()
        d = embedded_gate_steps(np.random.default_rng(63))
        tv_series(d, 6)
        kappa_bounds(step_aggregates(d, 6), 0.05)
        table = quotient_group(2).table
        assert len(d.support()) == 8
        filled = np.flatnonzero(table.any(axis=1))
        assert filled.tolist() == d.support().tolist()
