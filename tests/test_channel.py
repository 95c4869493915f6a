import dataclasses
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ambcsim.channel import (FAR_TAN, ChannelParams, a2g_path_loss,
                             effective_gains, noise_power, positions,
                             SPEED_OF_LIGHT)
from ambcsim.config import SimConfig
from ambcsim.harness import Deployment, sample_deployment
from geometry_reference import (Position, cascaded_backscatter_gain,
                                elevation_angle, full_block_gains)


def fspl_distance(loss_db, freq):
    """Distance at which free-space loss equals loss_db."""
    return 10.0 ** (loss_db / 20.0) * SPEED_OF_LIGHT / (4.0 * math.pi * freq)


FLAT = ChannelParams(eta_los=0.0, eta_nlos=0.0)  # pure FSPL


class TestElevationAngle:
    def test_equal_rise_and_run(self):
        assert elevation_angle(Position(100, 0, 0),
                               Position(0, 0, 100)) == pytest.approx(math.pi / 4)

    def test_directly_overhead(self):
        assert elevation_angle(Position(0, 0, 0),
                               Position(0, 0, 100)) == math.pi / 2

    def test_thirty_degrees(self):
        ang = elevation_angle(Position(173.205, 0, 0), Position(0, 0, 100))
        assert ang == pytest.approx(0.5236, abs=1e-4)

    def test_coincident_positions_rejected(self):
        with pytest.raises(ValueError):
            elevation_angle(Position(1, 2, 3), Position(1, 2, 3))

    def test_uav_below_ue_rejected(self):
        with pytest.raises(ValueError):
            elevation_angle(Position(0, 0, 10), Position(5, 0, 1))


class TestA2gPathLoss:
    def test_fspl_100m_2ghz(self):
        loss = a2g_path_loss(100.0, math.pi / 4, FLAT)
        assert loss == pytest.approx(78.46, abs=0.01)

    def test_overhead_is_pure_los(self):
        p = ChannelParams(eta_los=1.0, eta_nlos=20.0)
        loss = a2g_path_loss(100.0, math.pi / 2, p)
        fspl = a2g_path_loss(100.0, math.pi / 2, FLAT)
        # P_LoS at 90 deg is within 2.5e-5 of 1, so excess -> eta_los
        assert loss == pytest.approx(fspl + 1.0, abs=1e-3)

    def test_equal_excess_terms_angle_free(self):
        p = ChannelParams(eta_los=5.0, eta_nlos=5.0)
        fspl = a2g_path_loss(250.0, 0.3, FLAT)
        for angle in (0.01, 0.5, 1.0, math.pi / 2):
            assert a2g_path_loss(250.0, angle, p) == pytest.approx(fspl + 5.0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            a2g_path_loss(0.0, 0.5, FLAT)

    def test_strictly_increasing_in_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            angle = rng.uniform(0.01, math.pi / 2)
            d = np.sort(rng.uniform(1.0, 1000.0, size=50))
            losses = a2g_path_loss(d, angle, ChannelParams())
            assert np.all(np.diff(losses) > 0)

    def test_logistic_los_probability_bit_for_bit(self):
        rng = np.random.default_rng(4)
        d = rng.uniform(1.0, 1000.0, 200)
        angle = rng.uniform(0.0, math.pi / 2, 200)
        for p in (ChannelParams(), ChannelParams(plos_a=0.5, plos_b=-0.3)):
            a, b = p.plos_a, p.plos_b
            p_los = 1.0 / (1.0 + a * np.exp(-b * (np.degrees(angle) - a)))
            fspl = 20.0 * np.log10(4.0 * np.pi * d * p.carrier_freq
                                   / SPEED_OF_LIGHT)
            expected = fspl + p_los * p.eta_los + (1.0 - p_los) * p.eta_nlos
            assert np.array_equal(a2g_path_loss(d, angle, p), expected)

    def test_zero_plos_a_is_pure_los(self):
        # 1 / (1 + 0 exp(...)) is 1 even where exp(...) overflows
        p = ChannelParams(plos_a=0.0, plos_b=-10.0)
        angles = np.linspace(0.0, math.pi / 2, 7)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = a2g_path_loss(100.0, 1.5, p)
            losses = a2g_path_loss(np.full(7, 100.0), angles, p)
        assert loss == a2g_path_loss(100.0, 1.5, FLAT) + p.eta_los
        assert np.array_equal(losses, np.full(7, loss))

    @pytest.mark.parametrize("p", [
        ChannelParams(plos_a=0.001, plos_b=-10.0),  # exp(859) overflows
        ChannelParams(plos_a=1e10, plos_b=6.9e-8),  # 1e10 exp(690) does
    ], ids=["exp", "product"])
    def test_overflow_is_pure_nlos_without_warning(self, p):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = a2g_path_loss(100.0, 1.5, p)
        assert loss == a2g_path_loss(100.0, 1.5, FLAT) + p.eta_nlos


class TestCascadedBackscatterGain:
    def test_zero_reflection(self):
        p = ChannelParams(reflection_coeff=0.0)
        gain = cascaded_backscatter_gain(Position(0, 0, 1.5),
                                         Position(30, 0, 1.0),
                                         Position(0, 0, 100), p)
        assert gain == 0.0

    def test_two_80db_hops_unit_beta(self):
        p = ChannelParams(eta_los=0.0, eta_nlos=0.0, reflection_coeff=1.0)
        d = fspl_distance(80.0, p.carrier_freq)
        ue, tag = Position(0, 0, 0), Position(d, 0, 0)
        uav = Position(d, 0, d)  # straight above the tag at range d
        gain = cascaded_backscatter_gain(ue, tag, uav, p)
        assert gain == pytest.approx(1e-16, abs=1e-18)

    def test_asymmetric_hops_half_beta(self):
        p = ChannelParams(eta_los=0.0, eta_nlos=0.0, reflection_coeff=0.5)
        d1 = fspl_distance(70.0, p.carrier_freq)
        d2 = fspl_distance(90.0, p.carrier_freq)
        ue, tag = Position(0, 0, 0), Position(d1, 0, 0)
        uav = Position(d1, 0, d2)
        gain = cascaded_backscatter_gain(ue, tag, uav, p)
        assert gain == pytest.approx(0.5e-16, rel=1e-9, abs=0.0)

    def test_coincident_tag_rejected(self):
        p = ChannelParams()
        with pytest.raises(ValueError):
            cascaded_backscatter_gain(Position(1, 1, 1), Position(1, 1, 1),
                                      Position(0, 0, 100), p)


def uav_at(x, y, z):
    return positions(x, y, z)[()]


def random_points(rng, n, half_width, z):
    xy = rng.uniform(-half_width, half_width, (n, 2))
    return positions(xy[:, 0], xy[:, 1], z)


class TestEffectiveGains:
    def test_gains_follow_the_given_positions(self):
        # the deployment caches its links, so neither the records it was
        # built from nor its own records may move its UE afterwards
        params = ChannelParams()
        ues = positions([10.0], [0.0], 1.5)
        dep = Deployment(ues, positions([], [], 1.0), uav_at(0, 0, 100))
        near = effective_gains(dep, params).direct_gain.tobytes()
        ues["x"][0] = 250.0
        with pytest.raises(ValueError, match="read-only"):
            dep.ue_positions["x"][0] = 250.0
        assert dep.ue_positions["x"].tolist() == [10.0]
        assert effective_gains(dep, params).direct_gain.tobytes() == near
        moved = Deployment(ues, dep.tag_positions, dep.uav_position)
        assert effective_gains(moved, params).direct_gain.tobytes() != near

    def test_no_ue_rejected(self):
        dep = Deployment(positions([], [], 1.5), positions([5], [5], 1.0),
                         uav_at(0, 0, 100))
        with pytest.raises(ValueError,
                           match="^deployment must contain at least one UE$"):
            effective_gains(dep, ChannelParams())

    def test_disabled_backscatter_equals_direct(self):
        dep = Deployment(positions([10, -50], [0, 30], 1.5),
                         positions([5], [5], 1.0), uav_at(0, 0, 100))
        state = effective_gains(dep, ChannelParams(), ambc_enabled=False)
        np.testing.assert_array_equal(state.effective_gain, state.direct_gain)
        assert np.array_equal(state.best_tag_index, [-1, -1])

    def test_best_tag_is_argmax(self):
        dep = Deployment(positions([100], [0], 1.5),
                         positions([200, 90], [0, 0], 1.0), uav_at(0, 0, 100))
        state = effective_gains(dep, ChannelParams(), ambc_enabled=True)
        g0 = cascaded_backscatter_gain(dep.ue_positions[0],
                                       dep.tag_positions[0],
                                       dep.uav_position, ChannelParams())
        g1 = cascaded_backscatter_gain(dep.ue_positions[0],
                                       dep.tag_positions[1],
                                       dep.uav_position, ChannelParams())
        assert g1 > g0
        assert np.array_equal(state.best_tag_index, [1])
        assert state.backscatter_gain[0] == pytest.approx(g1, rel=1e-12,
                                                          abs=0.0)

    def test_overhead_gain_matches_fspl(self):
        dep = Deployment(positions([0], [0], 0), positions([], [], 1.0),
                         uav_at(0, 0, 100))
        state = effective_gains(dep, FLAT, ambc_enabled=True)
        assert state.effective_gain[0] == pytest.approx(1.426e-8, rel=0.01)

    def test_effective_at_least_direct(self):
        rng = np.random.default_rng(11)
        ues = random_points(rng, 20, 200, 1.5)
        tags = random_points(rng, 5, 200, 1.0)
        dep = Deployment(ues, tags, uav_at(0, 0, 100))
        state = effective_gains(dep, ChannelParams(), ambc_enabled=True)
        assert np.all(state.effective_gain > state.direct_gain)
        assert np.all(state.backscatter_gain > 0)

    def test_beta_monotonicity(self):
        rng = np.random.default_rng(12)
        ues = random_points(rng, 10, 250, 1.5)
        tags = random_points(rng, 4, 250, 1.0)
        dep = Deployment(ues, tags, uav_at(0, 0, 100))
        prev = None
        for beta in (0.0, 0.2, 0.5, 1.0):
            state = effective_gains(dep, ChannelParams(reflection_coeff=beta))
            if prev is not None:
                assert np.all(state.effective_gain >= prev)
            prev = state.effective_gain

    def test_bit_identical_determinism(self):
        rng = np.random.default_rng(13)
        ues = random_points(rng, 10, 250, 1.5)
        tags = random_points(rng, 4, 250, 1.0)
        dep = Deployment(ues, tags, uav_at(0, 0, 100))
        s1 = effective_gains(dep, ChannelParams())
        s2 = effective_gains(dep, ChannelParams())
        assert np.array_equal(s1.effective_gain, s2.effective_gain)
        assert np.array_equal(s1.best_tag_index, s2.best_tag_index)

    def test_matches_scalar_oracles(self):
        params = ChannelParams()
        rng = np.random.default_rng(17)
        # the two tags mirror each other about the UE below the UAV, so
        # their gains tie exactly and the lower index must win
        deployments = [Deployment(positions([0], [0], 1.5),
                                  positions([-10, 10], [0, 0], 1.0),
                                  uav_at(0, 0, 100))]
        for trial in range(40):
            ues = random_points(rng, int(rng.integers(1, 21)), 300, 1.5)
            tags = random_points(rng, int(rng.integers(0, 9)), 300, 1.0)
            if trial % 2:
                uav = uav_at(*rng.uniform(-100, 100, 2), 100.0)
            else:
                uav = uav_at(0, 0, 100)
            deployments.append(Deployment(ues, tags, uav))
        for dep, ambc in itertools.product(deployments, (True, False)):
            uav = dep.uav_position
            state = effective_gains(dep, params, ambc_enabled=ambc)
            for i, ue in enumerate(dep.ue_positions):
                d = math.dist((ue.x, ue.y, ue.z), (uav.x, uav.y, uav.z))
                direct = 10.0 ** (-a2g_path_loss(
                    d, elevation_angle(ue, uav), params) / 10.0)
                assert state.direct_gain[i] == pytest.approx(
                    direct, rel=1e-12, abs=0.0)
                gains = [cascaded_backscatter_gain(ue, tag, uav, params)
                         for tag in dep.tag_positions] if ambc else []
                best = max(range(len(gains)), key=gains.__getitem__,
                           default=-1)
                assert state.best_tag_index[i] == best
                assert state.backscatter_gain[i] == pytest.approx(
                    gains[best] if gains else 0.0, rel=1e-12, abs=0.0)


def assert_matches_full_block(dep, params):
    """effective_gains equals the exact full-block argmax bit for bit,
    and neither raises a numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        state = effective_gains(dep, params)
        ref = full_block_gains(dep, params)
    for name in ("direct_gain", "backscatter_gain", "effective_gain",
                 "best_tag_index"):
        assert np.array_equal(getattr(state, name), getattr(ref, name)), name
    return state


def mixed_height_deployments():
    """Random UE and tag heights, so the UE-tag height gaps vary; with
    the UAV at 4 m, some tags are above it."""
    rng = np.random.default_rng(23)
    for n_ues, n_tags, uav_z in itertools.product((1, 13, 100),
                                                  (2, 10, 1000), (100, 4)):
        ues = positions(*rng.uniform(-300, 300, (2, n_ues)),
                        rng.uniform(0.0, 3.0, n_ues))
        tags = positions(*rng.uniform(-300, 300, (2, n_tags)),
                         rng.uniform(0.0, 6.0, n_tags))
        yield Deployment(ues, tags, uav_at(*rng.uniform(-50, 50, 2), uav_z))


def near_tag_deployments():
    """Every UE has tags within 15 m, some inside and some outside the
    near radius z_hi / FAR_TAN (10 m at these heights), among far ones."""
    rng = np.random.default_rng(29)
    for n_ues in (1, 13, 100):
        ues = random_points(rng, n_ues, 300, 1.5)
        r = rng.uniform(0.0, 15.0, (n_ues, 4))
        phi = rng.uniform(0.0, 2.0 * math.pi, (n_ues, 4))
        near = positions((ues["x"][:, None] + r * np.cos(phi)).ravel(),
                         (ues["y"][:, None] + r * np.sin(phi)).ravel(), 1.0)
        tags = np.concatenate((random_points(rng, 50, 300, 1.0), near))
        yield Deployment(ues, tags, uav_at(0, 0, 100))


class TestScreenedBestTag:
    """The distance bound plus exact re-check picks what the exact
    formula over the whole UE x tag block picks."""

    @pytest.mark.parametrize("beta", [0.3, 0.5, 1.0])
    def test_sampled_deployments_match_full_block(self, beta):
        params = ChannelParams(reflection_coeff=beta)
        for seed, n_ues, n_tags in itertools.product(
                range(5), (1, 2, 13, 55, 100), (0, 1, 2, 10, 1000)):
            config = SimConfig(n_ues=n_ues, n_tags=n_tags, channel=params)
            assert_matches_full_block(sample_deployment(config, seed),
                                      params)

    def test_exact_tie_goes_to_lower_index(self):
        # tags 1 and 2 mirror each other about the UE below the UAV
        dep = Deployment(positions([0], [0], 1.5),
                         positions([50, -10, 10], [0, 0, 0], 1.0),
                         uav_at(0, 0, 100))
        params = ChannelParams()
        g = [cascaded_backscatter_gain(dep.ue_positions[0], tag,
                                       dep.uav_position, params)
             for tag in dep.tag_positions]
        assert g[1] == g[2] > g[0]
        state = assert_matches_full_block(dep, params)
        assert np.array_equal(state.best_tag_index, [1])

    def test_near_tie_inside_window_decided_exactly(self):
        # tag 0 sits 1e-8 m farther out than tag 1's mirror image
        dep = Deployment(positions([0], [0], 1.5),
                         positions([-10.00000001, 10], [0, 0], 1.0),
                         uav_at(0, 0, 100))
        params = ChannelParams()
        g = [cascaded_backscatter_gain(dep.ue_positions[0], tag,
                                       dep.uav_position, params)
             for tag in dep.tag_positions]
        gap_db = 10.0 * math.log10(g[1] / g[0])
        assert 0.0 < gap_db < 1e-6
        state = assert_matches_full_block(dep, params)
        assert np.array_equal(state.best_tag_index, [1])

    @pytest.mark.parametrize("gap_db", [-1e-3, 1e-3])
    def test_distance_traded_against_elevation(self, gap_db):
        # tag 0, raised to 10 m, sees the UE at a higher elevation than
        # tag 1 and is moved out until its gain is gap_db below tag 1's,
        # so the LoS term decides the ranking
        ue, uav = Position(0, 0, 1.5), Position(0, 0, 100)
        params = ChannelParams()

        def gap(y):
            return 10.0 * math.log10(
                cascaded_backscatter_gain(ue, Position(10, 0, 1), uav, params)
                / cascaded_backscatter_gain(ue, Position(0, y, 10), uav,
                                            params)) - gap_db

        lo, hi = 1.0, 200.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        assert gap(hi) == pytest.approx(0.0, abs=1e-9)
        dep = Deployment(positions([0], [0], 1.5),
                         positions([0, 10], [hi, 0], [10, 1]),
                         uav_at(0, 0, 100))
        state = assert_matches_full_block(dep, params)
        assert np.array_equal(state.best_tag_index, [1 if gap_db > 0 else 0])

    @pytest.mark.parametrize("x0, gap_db", [
        (60.0, -1e-3), (60.0, 1e-3),
        (2.0 / FAR_TAN * (1.0 + 1e-9), 1e-7),  # just past the near radius
    ])
    def test_level_tag_traded_against_raised_tag(self, x0, gap_db):
        # tag 0, x0 m out, is level with the UE and tag 1 is 2 m above it,
        # with no LoS term; tag 1 is moved until tag 0's gain is gap_db
        # above its own, inside the 1 + FAR_TAN^2 factor the bound allows
        # a far pair for the height gap.  Just past the near radius 2 /
        # FAR_TAN, tag 0's upper bound exceeds its gain by about 1e-11.
        ue, uav = Position(0, 0, 1.5), Position(0, 0, 100)
        params = ChannelParams(eta_los=6.0, eta_nlos=6.0)

        def gap(x):
            return 10.0 * math.log10(
                cascaded_backscatter_gain(ue, Position(x0, 0, 1.5), uav,
                                          params)
                / cascaded_backscatter_gain(ue, Position(-x, 0, 3.5), uav,
                                            params)) - gap_db

        lo, hi = 20.0, 80.0
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        assert gap(hi) == pytest.approx(0.0, abs=1e-10)
        dep = Deployment(positions([0], [0], 1.5),
                         positions([x0, -hi], [0, 0], [1.5, 3.5]),
                         uav_at(0, 0, 100))
        state = assert_matches_full_block(dep, params)
        assert np.array_equal(state.best_tag_index, [0 if gap_db > 0 else 1])

    def test_far_tags_underflow_to_tag_zero(self):
        # exact gains all underflow, hop 2 alone too, so every lower bound
        # is 0 and every pair is re-checked; the squared horizontal
        # distances of tags 0 and 2 overflow in the bound
        far = positions([1e200, 1e150, 0], [0, 0, -1e200], 1.0)
        ues = positions([0, 100], [0, -50], 1.5)
        dep = Deployment(ues, far, uav_at(0, 0, 100))
        state = assert_matches_full_block(dep, ChannelParams())
        assert np.array_equal(state.best_tag_index, [0, 0])
        assert np.array_equal(state.backscatter_gain, [0.0, 0.0])
        assert np.array_equal(state.effective_gain, state.direct_gain)
        # one tag in range wins over the far ones
        mixed = positions([1e200, 20], [0, 0], 1.0)
        state = assert_matches_full_block(
            Deployment(ues, mixed, uav_at(0, 0, 100)), ChannelParams())
        assert np.array_equal(state.best_tag_index, [1, 1])
        assert np.all(state.backscatter_gain > 0)

    @pytest.mark.parametrize("x0", [47500.0, 48500.0, 49000.0])
    def test_far_edge_tie_in_a_wide_cell(self, x0):
        # as in test_level_tag_traded_against_raised_tag, about 5e4 m from
        # the cell centre with z_hi = 0.5 m: tag 0, level with the UE just
        # past the near radius, beats tag 1, raised 0.5 m, by 1e-9 dB.
        # Tag 0's bound then sits within about 2.3e-10 of the far edge,
        # while the expanded form |u|^2 - 2 u.t + |t|^2 + z_hi^2 of its
        # s + z_hi^2 is off by more than 1e-9, past BOUND_SLACK
        ue, uav = Position(x0, 0.0, 1.5), Position(0.0, 0.0, 100.0)
        params = ChannelParams(eta_los=6.0, eta_nlos=6.0)
        tag0 = Position(x0 + 0.5 / FAR_TAN * (1.0 + 1e-9), 0.0, 1.5)

        def gap(x):
            return 10.0 * math.log10(
                cascaded_backscatter_gain(ue, tag0, uav, params)
                / cascaded_backscatter_gain(ue, Position(x0 - x, 0.0, 2.0),
                                            uav, params)) - 1e-9

        lo, hi = 5.0, 20.0
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        assert gap(hi) == pytest.approx(0.0, abs=1e-11)
        expanded = (ue.x * ue.x - 2.0 * (ue.x * tag0.x) + tag0.x * tag0.x
                    + 0.25)
        exact = (Fraction(ue.x) - Fraction(tag0.x)) ** 2 + Fraction(0.25)
        assert abs(Fraction(expanded) / exact - 1) > 1e-9
        dep = Deployment(positions([x0], [0.0], 1.5),
                         positions([tag0.x, x0 - hi], [0.0, 0.0], [1.5, 2.0]),
                         uav_at(0, 0, 100))
        state = assert_matches_full_block(dep, params)
        assert np.array_equal(state.best_tag_index, [0])

    def test_ues_and_tags_at_one_height(self, monkeypatch):
        # a height gap of 0 is floored (see _best_tags), so the bound
        # still rules pairs out
        sizes = []

        def recording(distance, angle, params):
            sizes.append(np.size(distance))
            return a2g_path_loss(distance, angle, params)

        monkeypatch.setattr("ambcsim.channel.a2g_path_loss", recording)
        rng = np.random.default_rng(31)
        dep = Deployment(random_points(rng, 13, 300, 1.0),
                         random_points(rng, 40, 300, 1.0), uav_at(0, 0, 100))
        state = assert_matches_full_block(dep,
                                          ChannelParams(reflection_coeff=0.3))
        assert sizes[1] < 13 * 40
        assert np.all(state.backscatter_gain > 0)

    @pytest.mark.parametrize("eta_nlos", [3000.0, 3150.0],
                             ids=["subnormal", "zero"])
    def test_hop2_gain_without_finite_reciprocal(self, eta_nlos):
        # tag 1's hop 2 runs 1e6 m along the ground, so its gain is
        # subnormal or 0 and 1 / g2 overflows; tags 0 and 2 sit by the
        # UEs, nearly below them, and win
        params = ChannelParams(eta_los=0.0, eta_nlos=eta_nlos)
        uav = Position(0.0, 0.0, 100.0)
        far = Position(1e6, 0.0, 1.0)
        horiz, dz = math.hypot(far.x, far.y), uav.z - far.z
        g2 = 10.0 ** (-a2g_path_loss(math.hypot(horiz, dz),
                                     math.atan2(dz, horiz), params) / 10.0)
        assert g2 < np.finfo(float).tiny
        dep = Deployment(positions([0.0, 50.0], [0.0, 20.0], 1.5),
                         positions([0.1, far.x, 50.1], [0.0, 0.0, 20.0], 1.0),
                         uav_at(0, 0, 100))
        state = assert_matches_full_block(dep, params)
        assert np.array_equal(state.best_tag_index, [0, 2])
        assert np.all(state.backscatter_gain > 0)

    def test_mixed_heights_match_full_block(self):
        for dep in mixed_height_deployments():
            gaps = np.abs(dep.ue_positions["z"][:, None]
                          - dep.tag_positions["z"])
            assert gaps.min() < gaps.max()
            assert_matches_full_block(dep, ChannelParams(reflection_coeff=0.3))

    def test_tags_near_ues_match_full_block(self):
        for dep in near_tag_deployments():
            ues, tags = dep.ue_positions, dep.tag_positions
            horiz = np.hypot(ues["x"][:, None] - tags["x"],
                             ues["y"][:, None] - tags["y"])
            near = horiz <= 0.5 / FAR_TAN
            assert near.any() and not near.all()
            state = assert_matches_full_block(
                dep, ChannelParams(reflection_coeff=0.3))
            assert np.all(state.backscatter_gain > 0)

    @pytest.mark.parametrize("params", [
        ChannelParams(plos_b=-0.2),                  # P_LoS falls with angle
        ChannelParams(plos_a=0.5, plos_b=-10.0),     # exp overflows
        ChannelParams(eta_los=6.0, eta_nlos=6.0),    # no LoS term
        ChannelParams(plos_a=0.0, plos_b=-10.0),     # P_LoS = 1
    ], ids=["b<0", "exp-overflow", "eta-equal", "a=0"])
    def test_los_parameters_match_full_block(self, params):
        params = dataclasses.replace(params, reflection_coeff=0.3)
        sampled = (sample_deployment(SimConfig(n_ues=n_ues, n_tags=n_tags,
                                               channel=params), seed)
                   for seed, n_ues, n_tags in itertools.product(
                       range(2), (1, 55), (10, 1000)))
        for dep in itertools.chain(sampled, mixed_height_deployments(),
                                   near_tag_deployments()):
            assert_matches_full_block(dep, params)

    def test_exact_formula_reaches_few_pairs(self, monkeypatch):
        # a structural guard in place of a timing test
        sizes = []

        def recording(distance, angle, params):
            sizes.append(np.size(distance))
            return a2g_path_loss(distance, angle, params)

        monkeypatch.setattr("ambcsim.channel.a2g_path_loss", recording)
        config = SimConfig(n_ues=100, n_tags=1000)
        for seed in range(5):
            sizes.clear()
            effective_gains(sample_deployment(config, seed), config.channel)
            # one pass over the 1100 links to the UAV, then the UE-tag pairs
            assert sizes[0] == 1100
            assert sum(sizes[1:]) < 0.01 * 100 * 1000

    def test_large_cell_screens_pairs_out(self, monkeypatch):
        # at a 1e7 m radius the 0.5 m height gap alone would let the
        # bound's rounding allowance reach 1 and keep every pair
        sizes = []

        def recording(distance, angle, params):
            sizes.append(np.size(distance))
            return a2g_path_loss(distance, angle, params)

        monkeypatch.setattr("ambcsim.channel.a2g_path_loss", recording)
        config = SimConfig(n_ues=20, n_tags=200, coverage_radius=1e7)
        for seed in range(3):
            sizes.clear()
            assert_matches_full_block(sample_deployment(config, seed),
                                      config.channel)
            # one pass over the 220 links to the UAV, then the UE-tag pairs
            assert sizes[0] == 220
            assert sum(sizes[1:]) < 0.01 * 20 * 200

    def test_tag_on_a_ue_or_on_the_uav_rejected(self):
        ues = positions([0, 5], [0, 5], [1.5, 1.0])
        on_ue = Deployment(ues, positions([30, 5], [0, 5], 1.0),
                           uav_at(0, 0, 100))
        on_uav = Deployment(ues, positions([30, 0], [0, 0], [1.0, 100]),
                            uav_at(0, 0, 100))
        calls = [(gains, dep, True) for dep, gains in itertools.product(
            (on_ue, on_uav), (effective_gains, full_block_gains))]
        # the baseline mode shares the triad's link pass, tags included
        calls.append((effective_gains, on_uav, False))
        for gains, dep, ambc in calls:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="distance must be > 0"):
                    gains(dep, ChannelParams(), ambc)


class TestNoisePower:
    def test_1mhz_thermal_floor(self):
        assert noise_power(1e6, -174.0) == pytest.approx(3.981e-15, rel=1e-3,
                                                         abs=0.0)

    def test_1hz_unit_conversion(self):
        assert noise_power(1.0, -174.0) == pytest.approx(3.981e-21, rel=1e-3,
                                                         abs=0.0)

    def test_single_subcarrier(self):
        assert noise_power(1e6 / 128, -174.0) == pytest.approx(
            3.110e-17, rel=1e-3, abs=0.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            noise_power(0.0, -174.0)


def test_db_linear_round_trip():
    rng = np.random.default_rng(5)
    pl = rng.uniform(40.0, 130.0, size=200)
    back = -10.0 * np.log10(10.0 ** (-pl / 10.0))
    assert np.all(np.abs(back - pl) < 1e-9)


def test_position_invariants():
    with pytest.raises(ValueError):
        positions(0.0, 0.0, -1.0)
    with pytest.raises(ValueError):
        positions(float("nan"), 0.0, 0.0)


def position_args(shape, axis, value):
    """(x, y, z) of a valid point set of the given shape ("0-d", "1-d" or
    "broadcast", a (2, 1) column against a (3,) row and a scalar), with
    value planted in one entry of coordinate axis."""
    if shape == "0-d":
        args = [3.0, -4.0, 1.5]
        args[axis] = value
        return args
    if shape == "1-d":
        args = [np.array([3.0, -4.0, 0.0]), np.array([1.0, 2.0, 5.0]),
                np.array([1.5, 1.0, 0.0])]
    else:
        args = [np.array([[3.0], [-4.0]]), np.array([1.0, 2.0, 5.0]), 1.5]
    args[axis] = np.array(args[axis], dtype=float)
    args[axis].flat[-1] = value
    return args


class TestPositionsValidation:
    SHAPES = ["0-d", "1-d", "broadcast"]

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, shape, axis, value):
        with pytest.raises(ValueError,
                           match="^position coordinates must be finite$"):
            positions(*position_args(shape, axis, value))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_negative_height_rejected(self, shape):
        with pytest.raises(ValueError, match="^height z must be >= 0$"):
            positions(*position_args(shape, 2, -1e-300))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_non_finite_named_before_negative_height(self, shape):
        x, y, z = position_args(shape, 0, math.nan)
        with pytest.raises(ValueError, match="finite"):
            positions(x, y, -1.0)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_valid_points_kept(self, shape):
        x, y, z = position_args(shape, 2, 0.0)
        out = positions(x, y, z)
        bx, by, bz = np.broadcast_arrays(x, y, z)
        assert out.shape == bx.shape
        for name, want in zip("xyz", (bx, by, bz)):
            assert np.array_equal(out[name], want)


def test_channel_params_invariants():
    with pytest.raises(ValueError):
        ChannelParams(reflection_coeff=1.5)
    with pytest.raises(ValueError):
        ChannelParams(eta_los=5.0, eta_nlos=2.0)
    with pytest.raises(ValueError):
        ChannelParams(carrier_freq=0.0)
    with pytest.raises(ValueError, match="plos_a"):
        ChannelParams(plos_a=-1)
