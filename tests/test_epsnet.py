"""Net geometry, N(n) over a net, and the full-sphere certification scan with its
two lower bounds, checked against the independent per-target bound of `reference`."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from entact.qcore import DensityMatrix, chi_q
from entact.protocol import (
    NetSpec,
    WaveplateSetting,
    bloch_vector,
    dedup_bloch,
    default_net,
    premeasurement,
)
from entact.measures import (
    negativities_offdiag,
    negativities_theory,
    negativity,
)
from entact.epsnet import (
    MAX_GRID_POINTS,
    MAX_RESOLUTION,
    MIN_GRID_STEP,
    MAX_NET_SETTINGS,
    _basis_chords,
    _fibonacci_directions,
    cap_radius,
    net_negativities,
    scan_axes,
    sphere_scan,
    verify_covering,
    verify_packing,
)
import reference
from reference import (full_rank_state, lipschitz_reference, scan_bounds, seeded_state,
                       unit_vector, werner_mix)
from test_measures import random_state

# exact covering radius of the default net: the worst point sits on the
# phi = 0 meridian midway between adjacent theta settings (15 degrees away)
COVERING_RADIUS = 2.0 * math.sin(math.pi / 12)


RE_IM = arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0))
# full-rank, rank-1 and rank-2 random states, chi_q, and chi_q mixed with white noise
STATES = st.one_of(
    RE_IM.map(full_rank_state),
    st.builds(lambda re_im, rank: DensityMatrix(random_state(re_im, rank), (2, 2)),
              RE_IM, st.integers(1, 2)),
    st.floats(0.0, 1.0).map(chi_q),
    st.builds(lambda q, v: DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2)),
              st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
)
# up to 5 x 4 settings at any angles; no theta gives the empty net
NETS = st.builds(NetSpec, st.lists(st.floats(-math.pi, math.pi), max_size=5),
                 st.lists(st.floats(-math.pi, math.pi), min_size=1, max_size=4))


@pytest.fixture(scope="module")
def net():
    return default_net()


@pytest.fixture(scope="module")
def n02(net):
    """N(n) of chi_q(0.2) at every setting of the default net, theta-major."""
    return net_negativities([chi_q(0.2)], bloch_vector(*net.angles()))[0]


def net_setting(net, j):
    """Setting j of `net`, theta-major."""
    theta, phi = net.angles()
    return WaveplateSetting(theta[j], phi[j])


def low_at(chi, net, targets, step=math.pi / 180):
    """(low1, low2) of the scan of chi on `net` at the grid points of step `step` that
    lie within 1e-15 of each target setting, as two arrays."""
    [scan] = sphere_scan([chi], net, grid_step=step)
    theta, phi, low1, low2 = scan.columns
    i = [int(np.argmin(np.abs(theta - t.theta) + np.abs(phi - t.phi))) for t in targets]
    assert np.abs(theta[i] - [t.theta for t in targets]).max() <= 1e-15
    assert np.abs(phi[i] - [t.phi for t in targets]).max() <= 1e-15
    return low1[i], low2[i]


class TestNetSpec:
    def test_default_net_shape(self, net):
        assert len(net.thetas) == 7
        assert len(net.phis) == 4
        assert len(reference.net_settings(net)) == 28
        assert net.thetas[1] == pytest.approx(math.pi / 12)
        assert net.phis[-1] == pytest.approx(math.pi / 4)

    def test_angles_are_theta_major(self):
        net = NetSpec((0.1, 0.2, 0.3), (0.0, 0.5))
        theta, phi = net.angles()
        assert list(zip(theta.tolist(), phi.tolist())) == [
            (s.theta, s.phi) for s in reference.net_settings(net)]
        assert theta.dtype == phi.dtype == np.float64

    def test_dedup_count(self, net):
        # 28 settings collapse to 16 distinct bases under +-n identification
        bases = dedup_bloch(net)
        assert bases.shape == (16, 3)
        assert np.abs(np.linalg.norm(bases, axis=1) - 1).max() < 1e-12

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=6),
           st.lists(st.floats(0.0, math.pi / 4), min_size=1, max_size=4))
    def test_dedup_matches_one_at_a_time_reference(self, thetas, phis):
        # a repeated theta and theta + pi give n again, and phi + pi/4 gives -n:
        # each added setting repeats a basis of the original grid
        net = NetSpec(thetas + [thetas[0], thetas[-1] + math.pi],
                      phis + [phis[0] + math.pi / 4])
        bases = dedup_bloch(net)
        assert np.array_equal(bases, reference.dedup_bloch(net))
        assert len(bases) <= len(thetas) * len(phis)

    def test_dedup_keeps_the_far_end_of_a_near_duplicate_chain(self):
        # at phi = 0 each theta step of 3e-9 moves n by 6e-9 in x and y: the middle
        # setting is a twin of both ends, which lie 1.2e-8 apart, so only the kept
        # first end removes it and the last end stays
        net = NetSpec((0.0, 3e-9, 6e-9), (0.0,))
        dirs = bloch_vector(*net.angles())
        gap = np.abs(dirs[:, None] - dirs).max(axis=2)
        assert gap[0, 1] <= 1e-8 and gap[1, 2] <= 1e-8 < gap[0, 2]
        bases = dedup_bloch(net)
        assert np.array_equal(bases, dirs[[0, 2]])
        assert np.array_equal(bases, reference.dedup_bloch(net))

    def test_dedup_across_row_blocks(self, net):
        # 112 settings take several row blocks of the pairwise test; every added
        # setting repeats a basis of the default net, in a later block
        big = NetSpec(net.thetas + tuple(t + math.pi for t in net.thetas),
                      net.phis + tuple(p + math.pi / 4 for p in net.phis))
        bases = dedup_bloch(big)
        assert np.array_equal(bases, reference.dedup_bloch(big))
        assert np.array_equal(bases, dedup_bloch(net))

    def test_net_records_match_closed_form(self, net):
        # N(n) over the net agrees with the chi_q closed form, with exact zeros at
        # q = 0 (a spurious +4e-16 there would certify a classical state)
        theta, phi = net.angles()
        for q in (0.0, 0.2, 0.6):
            [n] = net_negativities([chi_q(q)], bloch_vector(theta, phi))
            assert n.shape == (28,)
            theory = negativities_theory(q, theta, phi)
            for value, closed in zip(n.tolist(), theory.tolist()):
                assert value == pytest.approx(closed, abs=1e-15)
                if closed == 0.0:
                    assert value == 0.0


    @settings(max_examples=20)
    @given(arrays(float, (2, 4, 4), elements=st.floats(-1.0, 1.0)))
    def test_net_records_match_per_setting_states(self, re_im):
        # the whole net in one kernel call gives the brute-force negativity of one
        # premeasurement state per setting, theta-major, within the zero band
        net = default_net()
        dirs = bloch_vector(*net.angles())
        for chi in (full_rank_state(re_im), chi_q(0.0), chi_q(0.2), chi_q(1.0)):
            [n] = net_negativities([chi], dirs)
            for s, value in zip(reference.net_settings(net), n.tolist(), strict=True):
                assert value == pytest.approx(negativity(premeasurement(chi, s), [0, 1]),
                                              abs=2e-12)

    @settings(max_examples=40)
    @given(st.lists(STATES, min_size=1, max_size=7), NETS)
    @example([chi_q(0.2), chi_q(0.6)], NetSpec((), (0.0,)))
    @example([chi_q(q) for q in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)], default_net())
    def test_stacked_records_match_a_per_setting_reference(self, states, net):
        # N(n) of a stack of states over the net, theta-major, is the brute-force
        # negativity of one premeasurement state per setting within 2e-12: the
        # off-diagonal lemma and the 8x8 route share the 1e-12 zero band.  Each row
        # holds the bits of its state's one-state call
        dirs = bloch_vector(*net.angles())
        rows = net_negativities(states, dirs)
        assert rows.shape == (len(states), len(dirs))
        for chi, row, (n, _) in zip(states, rows, reference.per_setting_records(states, net)):
            assert np.abs(row - n).max(initial=0.0) <= 2e-12
            assert row.tobytes() == net_negativities([chi], dirs)[0].tobytes()

    def test_net_negativities_hold_one_block(self):
        # on a net of MAX_NET_SETTINGS settings each block holds one state, so 12
        # states peak under twice one state's peak: only the (states, settings)
        # result grows with the state count
        dirs = bloch_vector(*NetSpec(np.linspace(0.0, 1.5, 100),
                                     np.linspace(0.0, 0.7, 100)).angles())
        states = [chi_q(q) for q in np.linspace(0.0, 1.0, 12)]
        assert len(dirs) >= MAX_NET_SETTINGS

        def peak(states):
            tracemalloc.start()
            try:
                assert net_negativities(states, dirs).shape == (len(states), 10_000)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(states[:1])
        one, twelve = peak(states[:1]), peak(states)
        assert twelve < 2 * one

    def test_records_take_two_qubit_states(self, net):
        three_qubit = premeasurement(chi_q(0.2), WaveplateSetting(0.0, 0.0))
        with pytest.raises(ValueError, match="2-qubit"):
            net_negativities([chi_q(0.2), three_qubit], bloch_vector(*net.angles()))

    def test_net_records_of_an_empty_net(self):
        empty = bloch_vector(*NetSpec((), (0.0,)).angles())
        assert empty.shape == (0, 3)
        assert net_negativities([chi_q(0.2)], empty).shape == (1, 0)
        assert net_negativities([], bloch_vector(*default_net().angles())).shape == (0, 28)


def chord(a, b):
    """Sign-identified chord distance between two unit 3-vectors."""
    return float(_basis_chords(np.asarray(a, float)[None], np.asarray(b, float)[None])[0, 0])


class TestChordMetric:
    def test_basic_values(self):
        z, x = [0, 0, 1], [1, 0, 0]
        assert chord(z, z) == 0.0
        # n and -n are one basis
        assert chord(z, [0, 0, -1]) == 0.0
        assert chord(z, x) == pytest.approx(math.sqrt(2.0))

    def test_triangle_inequality(self):
        rng = np.random.default_rng(8)
        for _ in range(1000):
            a, b, c = (unit_vector(rng.normal(size=3)) for _ in range(3))
            assert chord(a, c) <= chord(a, b) + chord(b, c) + 1e-12

    def test_cap_radius_values(self):
        assert cap_radius(0.5) == pytest.approx(0.242061, abs=1e-6)
        assert cap_radius(0.0) == 0.0
        assert cap_radius(2.0) == pytest.approx(0.0, abs=1e-12)
        with pytest.raises(ValueError):
            cap_radius(2.5)


class TestCoveringPacking:
    def test_packing_at_half(self, net):
        ok, dmin = verify_packing(dedup_bloch(net), 0.5)
        assert ok
        assert dmin == pytest.approx(0.5, abs=1e-9)

    def test_covering_at_true_radius(self, net):
        ok, gap = verify_covering(dedup_bloch(net), 0.52, resolution=10_000)
        assert ok
        # the lattice gap approaches the exact covering radius from below
        assert gap <= COVERING_RADIUS + 1e-9
        assert gap > 0.5  # the net does not quite cover at chord 1/2

    def test_covering_fails_when_too_tight(self, net):
        ok, gap = verify_covering(dedup_bloch(net), 0.1, resolution=2000)
        assert not ok
        assert gap > 0.1

    def test_single_point_net_covers_trivially(self):
        tiny = dedup_bloch(NetSpec(thetas=(0.0,), phis=(0.0,)))
        ok, gap = verify_covering(tiny, 2.0, resolution=1000)
        assert ok
        packed, dmin = verify_packing(tiny, 0.5)
        assert packed and dmin == math.inf

    @settings(max_examples=40)
    @given(st.lists(st.floats(0.0, math.pi), min_size=1, max_size=5),
           st.lists(st.floats(0.0, math.pi / 4), min_size=1, max_size=4),
           st.booleans(), st.floats(0.0, 2.0), st.integers(1000, 20_000))
    @example(list(default_net().thetas), list(default_net().phis), False, 0.5, 10_000)
    @example([0.3], [0.1], False, 1.5, 1000)
    @example([0.3], [0.1], True, 1.5, 1001)
    def test_covering_matches_the_full_chord_array(self, thetas, phis, repeat, epsilon,
                                                   resolution):
        # exact chords at the points whose nearest basis is near-farthest give the
        # worst gap of the full (bases, points) array bit for bit; `repeat` adds
        # settings that repeat bases of the grid, which dedup drops
        if repeat:
            thetas, phis = thetas + [thetas[-1] + math.pi], phis + [phis[0] + math.pi / 4]
        net = NetSpec(thetas, phis)
        gap = reference.covering_gap(net, resolution)
        assert verify_covering(dedup_bloch(net), epsilon, resolution) == (gap <= epsilon + 1e-9, gap)

    def test_covering_holds_one_dot_product(self, net):
        # at the largest resolution the (bases, points) products are the one large
        # array: the peak stays under 1.5 of them, lattice included
        bases = dedup_bloch(net)
        tracemalloc.start()
        try:
            verify_covering(bases, 0.5, MAX_RESOLUTION)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * len(bases) * MAX_RESOLUTION * 8

    @pytest.mark.parametrize("thetas, phis", [(25, 25), (3, 1), (1, 2)])
    def test_packing_matches_the_full_chord_array(self, thetas, phis):
        # the row blocks reach every pair i < j once: on 625 settings they are six
        # blocks, and the minimum is the full upper triangle's, bit for bit
        net = NetSpec([0.013 * j for j in range(thetas)], [0.021 * k for k in range(phis)])
        bases = dedup_bloch(net)
        full = _basis_chords(bases, bases)[np.triu_indices(len(bases), 1)]
        assert verify_packing(bases, 0.01)[1] == full.min()

    def test_packing_holds_row_blocks(self):
        # a 48 x 49 net's full (bases, bases) chords took 133 MB traced; the row
        # blocks stay under a tenth of one such float array
        net = NetSpec([0.01 * j for j in range(48)], [0.02 * k for k in range(49)])
        bases = dedup_bloch(net)
        tracemalloc.start()
        try:
            verify_packing(bases, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < len(bases)**2 * 8 / 10

    def test_resolution_floor(self, net):
        # the range is checked before anything is allocated
        for resolution in (10, MAX_RESOLUTION + 1, 10**15):
            with pytest.raises(ValueError, match="resolution"):
                verify_covering(dedup_bloch(net), 0.5, resolution=resolution)


class TestBound1:
    """low1 = max_j (N_j - chord(n, n_j)), the model-free bound."""

    def test_exact_at_net_point(self, net, n02):
        [low1], _ = low_at(chi_q(0.2), net, [net_setting(net, 3)])
        assert low1 == pytest.approx(n02[3], abs=1e-12)

    def test_exact_one_ulp_off_net_points(self, net, n02):
        # grid angles can miss a net angle by an ulp (30 * pi/180 against 2 * pi/12
        # on some platforms): on nets an ulp off the 1-degree grid's points, the
        # chord of two bases that far apart is ~1e-16, which sqrt(2 (1 - |n.m|))
        # would turn into 1.5e-8
        targets = [net_setting(net, j) for j in range(len(n02))]
        for dt in (-np.inf, np.inf):
            for dp in (-np.inf, np.inf):
                off = NetSpec(np.nextafter(net.thetas, dt), np.nextafter(net.phis, dp))
                assert not set(off.thetas) & set(net.thetas)
                low1, _ = low_at(chi_q(0.2), off, targets)
                assert np.abs(low1 - n02).max() <= 1e-12

    def test_antipodal_worst_case(self):
        # on a one-setting net low1 is N_0 - chord.  Identifying n with -n, nothing
        # is more than sqrt(2) away; (pi/8, pi/16) measures along (-1, 0, 1)/sqrt(2),
        # at chord sqrt(2 - sqrt(2)) from z, and (pi/4, 0) along -y, at chord sqrt(2)
        chi, one = chi_q(0.2), NetSpec((0.0,), (0.0,))
        [[n0]] = net_negativities([chi], bloch_vector(*one.angles()))
        low1, _ = low_at(chi, one, [WaveplateSetting(math.pi / 4, 0.0),
                                    WaveplateSetting(math.pi / 8, math.pi / 16)], MIN_GRID_STEP)
        assert low1 == pytest.approx([n0 - math.sqrt(2.0), n0 - math.sqrt(2.0 - math.sqrt(2.0))],
                                     abs=1e-12)

    def test_minus_y_target_at_q02(self, net):
        # (pi/4, 0) measures along -y, the least-entangling basis of chi_q
        assert np.allclose(bloch_vector(math.pi / 4, 0), [0, -1, 0])
        [low1], _ = low_at(chi_q(0.2), net, [WaveplateSetting(math.pi / 4, 0.0)])
        assert low1 >= 0.05


class TestBound2:
    """low2 = max_j (N_j - L chord(n, n_j)), with L = min(1, ||chi - chi_A x I/2||_1)."""

    def test_exact_at_net_state(self, net, n02):
        _, [low2] = low_at(chi_q(0.2), net, [net_setting(net, 7)])
        assert low2 == pytest.approx(n02[7], abs=1e-10)

    def test_never_exceeds_true_negativity(self, net):
        target = WaveplateSetting(math.pi / 8, math.pi / 24)
        _, [low2] = low_at(chi_q(0.4), net, [target], MIN_GRID_STEP)
        assert low2 <= 0.4 + 1e-10

    def test_bounds_write_into_the_given_buffer(self, net):
        # both bounds reduce one (bases, grid points) buffer, so no such temporary is
        # allocated per bound: the scan's peak (3.5 of those arrays) stays under four.
        # They equal the allocating expressions bit for bit
        chi, bases = chi_q(0.2), dedup_bloch(net)

        def peak():
            tracemalloc.start()
            try:
                [scan] = sphere_scan([chi], net, grid_step=math.pi / 180)
                return scan, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()
        scan, traced = peak()
        theta, phi, low1, low2 = scan.columns
        chords = _basis_chords(bases, bloch_vector(theta, phi))
        assert scan.lip < 1.0  # so low2 is a second pass through the buffer
        assert traced < 4 * chords.nbytes
        rec_n = net_negativities([chi], bases)[0][:, None]
        assert low1.tobytes() == (rec_n - chords).max(axis=0).tobytes()
        assert low2.tobytes() == (rec_n - scan.lip * chords).max(axis=0).tobytes()

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1).map(seeded_state))
    def test_lipschitz_constant_from_the_records(self, chi):
        # the scan reads min(1, ||chi - chi_A x I/2||_1) off chi
        [scan] = sphere_scan([chi], default_net(), grid_step=math.pi / 90)
        assert scan.lip == pytest.approx(lipschitz_reference(chi), abs=1e-12)

    @settings(max_examples=50)
    @given(st.integers(0, 2**32 - 1).map(seeded_state),
           NETS.filter(lambda net: len(net.thetas) > 0))
    def test_lipschitz_constant_is_invariant_under_b_rotations(self, chi, net):
        # no unitary on B changes ||chi - chi_A x I/2||_1: L read off chi alone is the
        # largest value over B_j, the 4x4 block of each setting's 8x8 premeasurement
        # state on the C-NOT image, which is chi rotated on B
        [(_, blocks)] = reference.per_setting_records([chi], net)
        per_setting = [lipschitz_reference(DensityMatrix(block, (2, 2))) for block in blocks]
        [scan] = sphere_scan([chi], net, grid_step=math.pi / 90)
        assert scan.lip == pytest.approx(max(per_setting), abs=1e-12)

    def test_lipschitz_constant_of_chi_q(self, net):
        # chi_q is Bell-diagonal, so chi_A = I/2 and ||chi_q - I/4||_1 is
        # |q - 1/4| + 2 |(1 - q)/2 - 1/4| + 1/4
        scans = sphere_scan([chi_q(q) for q in (0.2, 0.0, 1.0)], net, grid_step=math.pi / 90)
        assert [scan.lip for scan in scans] == pytest.approx([0.6, 1.0, 1.0], abs=1e-12)

    def test_lipschitz_constant_within_rounding_of_1_is_1(self, net):
        # at q = 0 the exact L is 1; read off chi, its rounded eigensum is
        # 0.9999999999999998, and the two bounds are still one array
        chi = chi_q(0.0).mat
        chi_a = np.trace(chi.reshape(2, 2, 2, 2), axis1=1, axis2=3)
        centred = chi - np.kron(chi_a, np.eye(2) / 2)
        assert float(np.abs(np.linalg.eigvalsh(centred)).sum()) == 0.9999999999999998
        [scan] = sphere_scan([chi_q(0.0)], net)
        assert scan.columns[2] is scan.columns[3] and scan.lip == 1.0

    @settings(max_examples=100)
    @given(st.integers(0, 2**32 - 1).map(seeded_state), st.integers(0, 2**32 - 1),
           st.floats(1e-6, 2.0))
    def test_negativity_is_lipschitz_in_the_chord(self, chi, seed, scale):
        # |N(n) - N(m)| <= L chord(n, m), for pairs of directions from near to far
        n, step = np.random.default_rng(seed).normal(size=(2, 3))
        ns = np.array([n, n + scale * step])
        ns /= np.linalg.norm(ns, axis=1, keepdims=True)
        values = negativities_offdiag(chi.mat, ns)
        assert abs(values[0] - values[1]) <= lipschitz_reference(chi) * chord(*ns) + 1e-12


class TestCombinedBound:
    """low2 >= low1 in every entry, exactly, so low2 is the certified bound."""

    def test_soundness_against_theory(self, net):
        # the bound never overclaims relative to the exact negativity
        [(_, _, (theta, phi, _, low), *_)] = sphere_scan([chi_q(0.2)], net)
        assert (low <= negativities_theory(0.2, theta, phi) + 1e-9).all()

    def test_soundness_at_classical_point(self, net):
        low1, low2 = low_at(chi_q(0.0), net, [WaveplateSetting(math.pi / 4, 0.0)])
        assert max(low1[0], low2[0]) <= 1e-12


class TestSphereScan:
    def test_grid_step_guard(self, net):
        # one ValueError for every step outside [pi/720, pi/90], NaN included
        for step in (math.pi / 10, 0.0, -0.01, math.nan, MIN_GRID_STEP * (1 - 1e-9)):
            with pytest.raises(ValueError, match="grid_step"):
                sphere_scan([chi_q(0.2)], net, grid_step=step)

    def test_empty_net_has_no_records(self):
        # an empty net has no bases, so the scan names the missing records
        # rather than failing inside the dedupe's block size
        empty = NetSpec((), (0.0,))
        assert dedup_bloch(empty).shape == (0, 3)
        with pytest.raises(ValueError, match="at least one record"):
            sphere_scan([chi_q(0.2)], empty)

    def test_finest_grid_size(self):
        # the certify net-size check reads the finest grid's size from the constant
        assert math.prod(map(len, scan_axes(MIN_GRID_STEP))) == MAX_GRID_POINTS == 361 * 181

    def test_certifies_q02(self, net):
        [(min_low, argmin, columns, *_)] = sphere_scan([chi_q(0.2)], net, grid_step=math.pi / 90)
        assert min_low > 0
        assert isinstance(argmin, WaveplateSetting)
        # theta 0..pi/2, phi 0..pi/4 at pi/90 steps, theta-major
        assert len(columns) == 4
        assert all(c.shape == (46 * 23,) for c in columns)
        theta, phi = columns[:2]
        assert (theta[:23] == 0.0).all() and (phi[:23] == phi[23:46]).all()
        assert theta[-1] == pytest.approx(math.pi / 2)

    def test_zero_discord_not_certified(self, net):
        # the pi/180 grid contains the exact zero-negativity settings; the
        # others miss them, and min_low at 0.0349 read +0.0117 without the margin
        for step in (math.pi / 180, 0.0349, math.pi / 90, 0.0123):
            [(min_low, *_)] = sphere_scan([chi_q(0.0)], net, grid_step=step)
            assert min_low <= 0

    def test_verdict_subtracts_the_grid_margin(self, net):
        chi = chi_q(0.2)
        for step in (math.pi / 180, 0.0349):
            [scan] = sphere_scan([chi], net, grid_step=step)
            # the parts of the verdict that the certify manifest records
            assert (scan.grid_min, scan.lip) == (scan.columns[3].min(), lipschitz_reference(chi))
            assert scan.margin == scan.lip * (2.0 + math.sqrt(2.0)) * step
            assert scan.min_low == scan.grid_min - scan.margin

    @pytest.mark.parametrize("step", [math.pi / 180, math.pi / 90])
    def test_grid_covers_every_basis_within_the_margin(self, net, step):
        # every basis lies within chord (2 + sqrt 2) step of a grid point; the
        # worst gap a 20,000-point lattice finds is near 2 step.  The chord is
        # sqrt(2 (1 - |n.m|)) here, whose rounding is far below these gaps
        [(_, _, (theta, phi, _, _), *_)] = sphere_scan([chi_q(0.2)], net, grid_step=step)
        grid = bloch_vector(theta, phi).T
        nearest = min(float(np.abs(chunk @ grid).max(axis=1).min())
                      for chunk in np.array_split(_fibonacci_directions(20_000), 40))
        gap = math.sqrt(2.0 * (1.0 - nearest))
        assert step < gap <= (2.0 + math.sqrt(2.0)) * step

    def test_argmin_is_stable_among_near_ties(self, net):
        # werner:0.9 at q = 0.4 has several grid points within 1e-12 of min_low;
        # two constructions of that state, 5.6e-17 apart, must print one argmin
        v, q = 0.9, 0.4
        direct = DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2))
        mixed = DensityMatrix(q * werner_mix("psi+", v).mat + 0.5 * (1 - q) * (
            werner_mix("phi+", v).mat + werner_mix("psi-", v).mat), (2, 2))
        assert 0 < np.abs(direct.mat - mixed.mat).max() < 1e-16
        argmins = []
        for _, argmin, (theta, phi, _, low), *_ in sphere_scan([direct, mixed], net):
            tied = low <= low.min() + 1e-12
            assert tied.sum() > 1
            assert (argmin.theta, argmin.phi) == min(zip(theta[tied], phi[tied]))
            argmins.append(argmin)
        assert argmins[0] == argmins[1]

    @settings(max_examples=50)
    @given(STATES, NETS.filter(lambda net: net.thetas))
    @example(chi_q(0.6), default_net())
    def test_rows_are_consistent(self, chi, net):
        # both bounds rest on N(n) being L-Lipschitz in the chord metric, which is
        # checked here beyond chi_q, at every grid point
        [(_, _, (theta, phi, low1, low2), *_)] = sphere_scan([chi], net, grid_step=math.pi / 90)
        assert (low1 <= low2).all()
        assert (low2 <= negativities_offdiag(chi.mat, bloch_vector(theta, phi)) + 1e-12).all()

    @pytest.mark.parametrize("step", [math.pi / 90, 0.0349])
    def test_shared_chords_match_a_scan_per_state(self, net, step):
        # one chord array serves every state of a call: each result holds the bits
        # of that state's own scan, and its bounds lie within 1e-15 of the reference
        # bound at the net's 16 distinct bases
        v, q = 0.9, 0.2
        werner = DensityMatrix(v * chi_q(q).mat + (1 - v) * np.eye(4) / 4, (2, 2))
        states = [chi_q(0.0), chi_q(0.2), chi_q(1.0), werner]
        thetas = np.arange(0.0, math.pi / 2 + step / 2, step)
        phis = np.arange(0.0, math.pi / 4 + step / 2, step)
        theta, phi = np.repeat(thetas, len(phis)), np.tile(phis, len(thetas))
        scans, bases = sphere_scan(states, net, grid_step=step), dedup_bloch(net)
        assert len(scans) == len(states) and len(bases) == 16
        for chi, scan in zip(states, scans):
            [alone] = sphere_scan([chi], net, grid_step=step)
            assert scan[:2] + scan[3:] == alone[:2] + alone[3:]
            assert [c.tobytes() for c in scan.columns] == [c.tobytes() for c in alone.columns]
            low1, low2 = scan_bounds(chi, bases, theta, phi)
            got_theta, got_phi, got1, got2 = scan.columns
            assert got_theta.tobytes() == theta.tobytes() and got_phi.tobytes() == phi.tobytes()
            assert np.abs(got1 - low1).max() <= 1e-15 and np.abs(got2 - low2).max() <= 1e-15
            i = int(np.flatnonzero(got2 <= got2.min() + 1e-12)[0])
            assert scan.argmin == WaveplateSetting(theta[i], phi[i])
            assert scan.min_low == float(got2.min()) - scan.lip * (2.0 + math.sqrt(2.0)) * step

    @settings(max_examples=30)
    @given(st.lists(STATES, min_size=1, max_size=3), NETS.filter(lambda net: net.thetas))
    @example([chi_q(q) for q in (0.0, 0.2, 1.0)], default_net())
    def test_twin_settings_leave_the_scan_unchanged(self, states, net):
        # a repeated theta, theta + pi and phi + pi/4 each repeat a basis of the net
        # after it in `angles()` order: the scan keeps the same first settings, so
        # every field holds the same bits
        padded = NetSpec(net.thetas + net.thetas + tuple(t + math.pi for t in net.thetas),
                         net.phis + tuple(p + math.pi / 4 for p in net.phis))
        plain, twins = (sphere_scan(states, n, grid_step=math.pi / 90) for n in (net, padded))
        for a, b in zip(plain, twins):
            assert (a.min_low, a.argmin, a.grid_min, a.lip, a.margin) == (
                b.min_low, b.argmin, b.grid_min, b.lip, b.margin)
            assert [c.tobytes() for c in a.columns] == [c.tobytes() for c in b.columns]

    @settings(max_examples=30)
    @given(st.lists(STATES, min_size=1, max_size=3), NETS.filter(lambda net: net.thetas))
    @example([chi_q(q) for q in (0.0, 0.2, 1.0)], default_net())
    def test_scan_never_exceeds_the_bounds_of_every_record(self, states, net):
        # the scan takes its max over the records at the distinct bases, a subset of
        # every setting's records, so neither bound exceeds the reference bound over
        # all settings
        scans, dirs = sphere_scan(states, net, grid_step=math.pi / 90), bloch_vector(*net.angles())
        for chi, (_, _, (theta, phi, low1, low2), *_) in zip(states, scans):
            full1, full2 = scan_bounds(chi, dirs, theta, phi)
            assert (low1 <= full1 + 1e-15).all() and (low2 <= full2 + 1e-15).all()

    def test_twin_settings_add_no_scan_memory(self, net):
        # every setting of the default net doubled (theta repeated) and mirrored
        # (phi + pi/4) is 112 settings of the same 16 bases: the (bases, grid points)
        # chord array, and the scan's peak with it, stays that of the plain net
        twins = NetSpec(net.thetas * 2, net.phis + tuple(p + math.pi / 4 for p in net.phis))

        def peak(net):
            tracemalloc.start()
            try:
                sphere_scan([chi_q(0.2)], net, grid_step=math.pi / 180)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(net)
        assert peak(twins) <= peak(net) + 64_000

    def test_scan_builds_no_per_point_objects(self, net, monkeypatch):
        # the records and the grid run as arrays: no setting is built per net
        # setting (28 here) or per grid point (4,186 at pi/180); the one object
        # is the argmin setting
        built = []
        init = WaveplateSetting.__post_init__

        def counting(self):
            built.append(self)
            init(self)

        monkeypatch.setattr(WaveplateSetting, "__post_init__", counting)
        sphere_scan([chi_q(0.2)], net, grid_step=math.pi / 180)
        assert len(built) == 1
