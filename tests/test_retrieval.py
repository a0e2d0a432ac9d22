"""Inversion algorithms: residual, optimizer, presets."""

import dataclasses
import hashlib
import math
import re

import numpy as np
import pytest

from lbandsm import kvconfig, radiative as ra
from lbandsm import retrieval as rt
from lbandsm.errors import ConfigError, DomainError
from lbandsm.radiative import DielectricModel, TbPair, simulate_tb

import oracles

BARE = rt.make_surface(0.20, "bare_soil", 40.0)
GRASS = rt.make_surface(0.13, "grassland", 40.0)


def preset(name, cover="bare_soil"):
    return rt.load_preset(name, cover)


def synth_obs(sm, tau, algo, surface, t_e):
    tb_h, tb_v = simulate_tb(sm, tau, algo.omega, algo.h, surface.clay_fraction,
                             surface.incidence_deg, t_e, algo.dielectric)
    return TbPair(float(tb_h), float(tb_v))


def cost(sm, tau, obs, algo, surface, t_e, tau_sca=None, weights=None):
    """Squared norm of the residual at (sm, tau), with the preset's own
    weights unless others are given."""
    tb_h, tb_v = simulate_tb(sm, tau, algo.omega, algo.h, surface.clay_fraction,
                             surface.incidence_deg, t_e, algo.dielectric)
    res = rt.residual(tb_h, tb_v, tau, obs, weights or rt.residual_weights(algo), tau_sca)
    return float(rt.squared_norm(res))


DCA_WEIGHTS = (1.0, 1.0, 0.0)


# ----------------------------------------------------------------------
# Residual
# ----------------------------------------------------------------------

def test_sca_cost_zero_at_generating_moisture():
    algo = preset("SCAV", "grassland")
    obs = synth_obs(0.28, 0.06, algo, GRASS, 290.0)
    assert cost(0.28, 0.06, obs, algo, GRASS, 290.0, tau_sca=0.06) == \
        pytest.approx(0.0, abs=1e-18)


def test_sca_cost_nonnegative_and_increasing_away():
    algo = preset("SCAH", "grassland")
    obs = synth_obs(0.30, 0.06, algo, GRASS, 290.0)
    sweep = np.linspace(0.01, 0.70, 140)
    costs = [cost(s, 0.06, obs, algo, GRASS, 290.0) for s in sweep]
    assert all(c >= 0.0 for c in costs)
    center = cost(0.30, 0.06, obs, algo, GRASS, 290.0)
    assert cost(0.20, 0.06, obs, algo, GRASS, 290.0) > center
    assert cost(0.40, 0.06, obs, algo, GRASS, 290.0) > center


def test_dca_cost_zero_at_generating_state():
    algo = preset("DCA1")
    obs = synth_obs(0.24, 0.13, algo, BARE, 292.15)
    assert cost(0.24, 0.13, obs, algo, BARE, 292.15) == pytest.approx(0.0, abs=1e-18)


def test_dca_cost_sums_channel_squares():
    algo = preset("DCA1")
    obs = synth_obs(0.24, 0.13, algo, BARE, 292.15)
    bumped_h = TbPair(obs.tb_h + 2.0, obs.tb_v)
    bumped_v = TbPair(obs.tb_h, obs.tb_v + 2.0)
    c_h = cost(0.24, 0.13, bumped_h, algo, BARE, 292.15)
    c_v = cost(0.24, 0.13, bumped_v, algo, BARE, 292.15)
    assert c_h == pytest.approx(4.0, abs=1e-12)
    assert c_v == pytest.approx(4.0, abs=1e-12)


def test_dca_grid_minimum_locates_generating_state():
    algo = preset("DCA1")
    sm0, tau0 = 0.31, 0.17
    obs = synth_obs(sm0, tau0, algo, BARE, 292.15)
    sm_star, tau_star, _ = oracles.grid_min_2d(
        lambda s, t: cost(s, t, obs, algo, BARE, 292.15),
        0.01, 0.70, 0.0, 3.0, 200, 200)
    # the discrete argmin can sit a couple of cells off along the
    # correlated (sm, tau) valley
    assert abs(sm_star - sm0) <= 3 * 0.69 / 199
    assert abs(tau_star - tau0) <= 3 * 3.0 / 199


def test_rdca_cost_reduces_to_dca_at_target_opacity():
    algo = preset("RDCA", "grassland")
    obs = synth_obs(0.22, 0.08, algo, GRASS, 290.0)
    for sm in (0.1, 0.3, 0.5):
        assert cost(sm, 0.08, obs, algo, GRASS, 290.0, tau_sca=0.08) == pytest.approx(
            cost(sm, 0.08, obs, algo, GRASS, 290.0, weights=DCA_WEIGHTS), abs=1e-18)


def test_rdca_zero_weight_degenerates_to_dca():
    algo = dataclasses.replace(preset("RDCA", "grassland"), lam=0.0)
    obs = synth_obs(0.22, 0.08, algo, GRASS, 290.0)
    for sm, tau in [(0.1, 0.0), (0.3, 0.6), (0.6, 2.0)]:
        assert cost(sm, tau, obs, algo, GRASS, 290.0, tau_sca=0.5) == \
            cost(sm, tau, obs, algo, GRASS, 290.0, weights=DCA_WEIGHTS)


def test_rdca_grid_minimum_with_matching_target():
    algo = preset("RDCA", "grassland")
    sm0 = 0.27
    obs = synth_obs(sm0, 0.1, algo, GRASS, 290.0)
    sm_star, tau_star, _ = oracles.grid_min_2d(
        lambda s, t: cost(s, t, obs, algo, GRASS, 290.0, tau_sca=0.1),
        0.01, 0.70, 0.0, 3.0, 200, 200)
    # regularization decorrelates tau, so the argmin sits tight
    assert abs(sm_star - sm0) <= 2 * 0.69 / 199
    assert abs(tau_star - 0.1) <= 2 * 3.0 / 199


# ----------------------------------------------------------------------
# Seed-grid tables
# ----------------------------------------------------------------------

def _fresh_seed_costs(obs, algo, surface, t_e, tau_sca, ts=None):
    """Seed-grid costs rebuilt from the forward model, with every weight
    multiplied in and every residual term added; over the opacities ts
    if given."""
    if ts is None:
        ts = np.linspace(*rt.TAU_BOUNDS, rt.SEED_GRID_N) if algo.kind in rt.DUAL_KINDS \
            else np.array([tau_sca])
    e_h, e_v = ra.soil_emissivity_pair(np.linspace(*rt.SM_BOUNDS, rt.SEED_GRID_N),
                                       surface.clay_fraction, surface.incidence_deg,
                                       algo.h, algo.dielectric)
    gamma = ra.canopy_transmissivity(ts, surface.incidence_deg)[None, :]
    w_h, w_v, lam = rt.residual_weights(algo)
    r_h = w_h * (ra.tau_omega_tb(e_h[:, None], gamma, algo.omega, t_e) - obs.tb_h)
    r_v = w_v * (ra.tau_omega_tb(e_v[:, None], gamma, algo.omega, t_e) - obs.tb_v)
    r_tau = lam * (ts[None, :] - tau_sca) if lam else 0.0
    return r_h * r_h + r_v * r_v + r_tau * r_tau


def _assert_same_seed(got, want, context):
    """The per-column rectangle of the dual-channel kinds rounds
    differently from the per-cell formula, but picks the same seed."""
    assert got.argmin() == want.argmin(), context
    assert np.abs(got - want).max() <= 1e-12 * want.max(), context


@pytest.mark.parametrize("cover,surface", [("bare_soil", BARE), ("grassland", GRASS)])
@pytest.mark.parametrize("name", rt.PRESET_NAMES)
def test_cached_seed_grid_equals_fresh_grid(name, cover, surface):
    # bit-equal for the single-channel kinds, which score point by point
    algo = preset(name, cover)
    n_tau = rt.SEED_GRID_N if algo.kind in rt.DUAL_KINDS else 1
    rng = np.random.default_rng(2024)
    for _ in range(20):
        t_e = rng.uniform(260.0, 320.0)
        obs = TbPair(rng.uniform(120.0, 300.0), rng.uniform(140.0, 310.0))
        tau_sca = rng.uniform(0.0, 1.5)
        got, _ = rt._seed_costs(obs, algo, surface, t_e, tau_sca, ra.L_BAND_GHZ)
        assert got.shape == (rt.SEED_GRID_N, n_tau)
        want = _fresh_seed_costs(obs, algo, surface, t_e, tau_sca)
        context = (name, cover, t_e, obs, tau_sca)
        if algo.kind in rt.DUAL_KINDS:
            _assert_same_seed(got, want, context)
        else:
            assert np.array_equal(got, want), context

    site = (surface.clay_fraction, surface.incidence_deg, algo.h, algo.dielectric,
            ra.L_BAND_GHZ)
    for array in (rt._SM_GRID, rt._TAU_GRID, rt._E_ENDS, *rt._seed_tables(*site)):
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0


def test_grid_seed_matches_fresh_grid_on_random_sites():
    # RDCA on both covers and DCA2 with an albedo, over random soils,
    # incidences, temperatures and opacity targets; every other problem
    # is noiseless at a grid point, where the minimum is nearest a tie
    rng = np.random.default_rng(29)
    algos = [preset("RDCA", "bare_soil"), preset("RDCA", "grassland"),
             dataclasses.replace(preset("DCA2", "grassland"), omega=0.05)]
    for k in range(5001):
        algo = algos[k % 3]
        surface = rt.SurfaceConfig(rng.uniform(0.0, 1.0), "grassland",
                                   rng.uniform(0.0, 70.0), 0.15)
        t_e, tau_sca = rng.uniform(260.0, 320.0), rng.uniform(0.0, 3.0)
        if k % 2:
            obs = synth_obs(rt._SM_GRID[rng.integers(64)], rt._TAU_GRID[rng.integers(64)],
                            algo, surface, t_e)
        else:
            obs = TbPair(rng.uniform(100.0, 310.0), rng.uniform(120.0, 320.0))
        got, _ = rt._seed_costs(obs, algo, surface, t_e, tau_sca, ra.L_BAND_GHZ)
        _assert_same_seed(got, _fresh_seed_costs(obs, algo, surface, t_e, tau_sca),
                          (algo.name, surface, obs, t_e, tau_sca))


PROFILED = ("DCA0", "DCA1", "DCA2")


@pytest.mark.parametrize("cover,surface", [("bare_soil", BARE), ("grassland", GRASS)])
@pytest.mark.parametrize("name", PROFILED)
def test_profiled_seed_never_above_grid_minimum(name, cover, surface):
    # tau* is the best opacity at each sm on the whole tau box, and the
    # grid's tau values lie in that box, so no grid point scores lower
    # under the forward model itself (scored on the grid's array path,
    # whose last bits the scalar path does not share)
    algo = preset(name, cover)
    rng = np.random.default_rng(314)
    for _ in range(50):
        t_e = rt.CONSTANT_T_E if algo.t_e_source == rt.TempSource.CONSTANT \
            else rng.uniform(275.0, 305.0)
        base = synth_obs(rng.uniform(0.02, 0.65), rng.uniform(0.0, 1.0), algo, surface, t_e)
        obs = TbPair(base.tb_h + rng.normal(0.0, 2.0), base.tb_v + rng.normal(0.0, 2.0))
        sm, tau, points = rt._profiled_seed(obs, algo, surface, t_e, ra.L_BAND_GHZ)
        assert points == rt.SEED_GRID_N
        row = int(np.flatnonzero(rt._SM_GRID == sm)[0])
        at_seed = _fresh_seed_costs(obs, algo, surface, t_e, None, np.array([tau]))[row, 0]
        grid = _fresh_seed_costs(obs, algo, surface, t_e, None)
        assert at_seed <= grid.min(), (name, cover, obs, t_e)


@pytest.mark.parametrize("name", PROFILED)
def test_profiled_seed_opacity_lands_on_the_box(name):
    # observations simulated beyond either end of the tau box put the
    # seed's u* outside [exp(-6 / cos theta), 1], and tau* must then be
    # the bound itself: +0.0 (not -0.0) below, 3.0 above
    algo = preset(name, "grassland")
    t_e = rt.CONSTANT_T_E if algo.t_e_source == rt.TempSource.CONSTANT else 290.0
    for tau0, bound in ((-0.3, rt.TAU_BOUNDS[0]), (4.0, rt.TAU_BOUNDS[1])):
        obs = synth_obs(0.3, tau0, algo, GRASS, t_e)
        _, tau, _ = rt._profiled_seed(obs, algo, GRASS, t_e, ra.L_BAND_GHZ)
        assert tau == bound and math.copysign(1.0, tau) == 1.0, (tau0, tau)
    _, tau, _ = rt._profiled_seed(TbPair(t_e, t_e), algo, GRASS, t_e, ra.L_BAND_GHZ)
    assert tau == rt.TAU_BOUNDS[1]   # u* = 0


def test_results_independent_of_order_and_cache_state():
    # retrievals share the cached seed tables, so neither the order of
    # the calls nor what the cache holds may change a result; the third
    # site has the bare site's soil under grass
    rng = np.random.default_rng(606)
    sites = (("bare_soil", BARE), ("grassland", GRASS),
             ("grassland", rt.make_surface(0.20, "grassland", 40.0)))
    problems = [(TbPair(rng.uniform(180.0, 270.0), rng.uniform(200.0, 285.0)),
                 preset(name, cover), surface, rng.uniform(275.0, 305.0),
                 rng.uniform(0.0, 0.5))
                for name in rt.PRESET_NAMES for cover, surface in sites for _ in range(5)]

    def solve(order):
        return [repr(rt.retrieve(obs, algo, surface, t_e, tau_sca=tau_sca))
                for obs, algo, surface, t_e, tau_sca in order]

    rt._seed_tables.cache_clear()
    in_order = solve(problems)
    rt._seed_tables.cache_clear()
    backwards = solve(problems[::-1])[::-1]
    assert backwards == in_order
    assert solve(problems) == in_order   # on the cache the reversed run built


# ----------------------------------------------------------------------
# Retrieval
# ----------------------------------------------------------------------

def test_round_trip_dual_channel():
    algo = preset("DCA1")
    obs = synth_obs(0.25, 0.10, algo, BARE, 292.15)
    result = rt.retrieve(obs, algo, BARE, 292.15)
    assert result.converged
    assert abs(result.sm - 0.25) < 1e-3
    assert abs(result.tau - 0.10) < 1e-2
    assert result.cost < 1e-6


def test_round_trip_single_channel():
    algo = preset("SCAV", "grassland")
    obs = synth_obs(0.33, 0.07, algo, GRASS, 289.0)
    result = rt.retrieve(obs, algo, GRASS, 289.0, tau_sca=0.07)
    assert result.converged
    assert result.tau is None
    assert abs(result.sm - 0.33) < 1e-3


@pytest.mark.parametrize("name,surface,cover", [
    ("SCAV", GRASS, "grassland"), ("SCAH", BARE, "bare_soil"),
    ("RDCA", GRASS, "grassland"), ("DCA0", BARE, "bare_soil"),
    ("DCA1", BARE, "bare_soil"), ("DCA2", GRASS, "grassland"),
])
def test_exact_inversion_grid(name, surface, cover):
    algo = preset(name, cover)
    t_e = rt.CONSTANT_T_E if algo.t_e_source == rt.TempSource.CONSTANT else 290.0
    two_d = algo.kind in rt.DUAL_KINDS
    taus = (0.0, 0.1, 0.2) if two_d else (0.08,)
    for sm0 in np.arange(0.05, 0.551, 0.10):
        for tau0 in taus:
            obs = synth_obs(sm0, tau0, algo, surface, t_e)
            result = rt.retrieve(obs, algo, surface, t_e, tau_sca=tau0)
            assert abs(result.sm - sm0) < 1e-3, (name, sm0, tau0)
            if two_d:
                assert abs(result.tau - tau0) < 1e-2, (name, sm0, tau0)


def test_saturated_floor_hits_upper_bound():
    algo = preset("DCA1")
    tb_h, tb_v = simulate_tb(1.0, 0.0, 0.0, 0.0, 0.20, 40.0, 292.15)
    result = rt.retrieve(TbPair(float(tb_h), float(tb_v)), algo, BARE, 292.15)
    assert result.boundary_hit
    assert result.sm == pytest.approx(rt.SM_BOUNDS[1], abs=1e-4)


def test_retrieval_deterministic():
    algo = preset("DCA2", "grassland")
    obs = synth_obs(0.19, 0.22, algo, GRASS, 291.0)
    a = rt.retrieve(obs, algo, GRASS, 291.0)
    b = rt.retrieve(obs, algo, GRASS, 291.0)
    assert a == b  # bit-identical, evaluation count included


def test_optimizer_dominates_grid_oracle_sample():
    rng = np.random.default_rng(41)
    algo = preset("DCA1")
    for _ in range(5):
        sm0 = rng.uniform(0.08, 0.6)
        tau0 = rng.uniform(0.0, 0.5)
        base = synth_obs(sm0, tau0, algo, BARE, 292.15)
        obs = TbPair(base.tb_h + rng.uniform(-4, 4), base.tb_v + rng.uniform(-4, 4))
        result = rt.retrieve(obs, algo, BARE, 292.15)
        _, _, best = oracles.grid_min_2d(
            lambda s, t: cost(s, t, obs, algo, BARE, 292.15),
            0.01, 0.70, 0.0, 3.0, 60, 60)
        assert result.cost <= best + 1e-8


def test_rdca_limit_large_weight_pins_opacity():
    algo = dataclasses.replace(preset("RDCA", "grassland"), lam=1e4)
    obs = synth_obs(0.3, 0.15, algo, GRASS, 290.0)
    result = rt.retrieve(obs, algo, GRASS, 290.0, tau_sca=0.05)
    assert abs(result.tau - 0.05) < 1e-3


def test_rdca_limit_zero_weight_equals_dca():
    rdca0 = dataclasses.replace(preset("RDCA", "grassland"), lam=0.0)
    dca_like = dataclasses.replace(rdca0, kind=rt.AlgorithmKind.DCA2)
    obs = synth_obs(0.26, 0.31, rdca0, GRASS, 290.0)
    res_r = rt.retrieve(obs, rdca0, GRASS, 290.0, tau_sca=0.9)
    res_d = rt.retrieve(obs, dca_like, GRASS, 290.0)
    assert abs(res_r.sm - res_d.sm) <= rt.SM_TOL
    assert abs(res_r.tau - res_d.tau) <= rt.TAU_TOL


def test_rdca_bare_soil_stops_on_tau_bound():
    # RDCA's bare-soil roughness exceeds the generating one, so the fit
    # pulls tau below zero; with tau_sca = 0 the solver must stop on the
    # bound exactly
    algo = preset("RDCA")
    tb_h, tb_v = simulate_tb(0.25, 0.0, 0.0, BARE.h, BARE.clay_fraction,
                             BARE.incidence_deg, 291.0)
    result = rt.retrieve(TbPair(float(tb_h), float(tb_v)), algo, BARE, 291.0, tau_sca=0.0)
    assert result.tau == 0.0
    assert result.boundary_hit
    assert result.converged


@pytest.mark.parametrize("name,surface,cover", [
    ("RDCA", GRASS, "grassland"), ("DCA0", BARE, "bare_soil"),
    ("DCA1", BARE, "bare_soil"), ("DCA2", GRASS, "grassland"),
    ("SCAV", GRASS, "grassland"), ("SCAH", BARE, "bare_soil"),
])
def test_dual_result_is_local_minimum(name, surface, cover):
    # no point of a fine local grid around the reported optimum may
    # undercut it, measured with the preset's own cost function; the
    # single-channel kinds hold tau at tau_sca, so their grid is 1-D
    algo = preset(name, cover)
    t_e = rt.CONSTANT_T_E if algo.t_e_source == rt.TempSource.CONSTANT else 290.0
    rng = np.random.default_rng(1729)
    for _ in range(50):
        sm0, tau0 = rng.uniform(0.05, 0.6), rng.uniform(0.0, 0.5)
        tau_sca = rng.uniform(0.0, 0.3)
        base = synth_obs(sm0, tau0, algo, surface, t_e)
        obs = TbPair(base.tb_h + rng.uniform(-4, 4), base.tb_v + rng.uniform(-4, 4))
        result = rt.retrieve(obs, algo, surface, t_e, tau_sca=tau_sca)
        assert result.converged

        sms = np.clip(np.linspace(result.sm - 1e-4, result.sm + 1e-4, 21), *rt.SM_BOUNDS)
        taus = [tau_sca] if result.tau is None else \
            np.clip(np.linspace(result.tau - 1e-3, result.tau + 1e-3, 21), *rt.TAU_BOUNDS)
        best = min(cost(float(s), float(t), obs, algo, surface, t_e, tau_sca)
                   for s in sms for t in taus)
        assert result.cost <= best + 1e-10, (name, sm0, tau0, result)


# SHA-256 of the full-precision repr of every result of _retrieval_corpus,
# re-frozen when the LM solve took gain-ratio damping and its pre-trial stop
RETRIEVAL_DIGEST = "da00d2ea3456ec9144557099871fa8c04f1103bf83188407d8898158acef6fe7"


def _retrieval_corpus():
    """(obs, algo, surface, t_e, tau_sca) of seeded noisy states: every
    preset on both covers, plus DCA2 with an albedo, which the grid seeds
    where DCA2 itself takes the profiled seed."""
    rng = np.random.default_rng(20231111)
    algos = [(preset(name, cover), surface) for name in rt.PRESET_NAMES
             for cover, surface in (("bare_soil", BARE), ("grassland", GRASS))]
    algos.append((dataclasses.replace(preset("DCA2", "grassland"), omega=0.05), GRASS))
    for algo, surface in algos:
        for _ in range(40):
            t_e = algo.t_e(float(rng.uniform(275.0, 305.0)))
            base = synth_obs(rng.uniform(0.02, 0.68), rng.uniform(0.0, 0.8), algo, surface, t_e)
            yield (TbPair(base.tb_h + rng.normal(0.0, 3.0), base.tb_v + rng.normal(0.0, 3.0)),
                   algo, surface, t_e, float(rng.uniform(0.0, 0.6)))


def test_retrieval_results_are_bit_identical_to_the_frozen_digest():
    # the golden CSVs round sm and cost, so only this digest shows a
    # change in the last bit of a result
    text = "\n".join(
        repr((r.sm, r.tau, r.cost, r.converged, r.boundary_hit, r.evaluations))
        for r in (rt.retrieve(obs, algo, surface, t_e, tau_sca=tau_sca)
                  for obs, algo, surface, t_e, tau_sca in _retrieval_corpus()))
    assert hashlib.sha256(text.encode()).hexdigest() == RETRIEVAL_DIGEST


def test_retrieve_input_validation():
    algo = preset("DCA1")
    with pytest.raises(DomainError, match="finite"):
        rt.retrieve(TbPair(float("nan"), 250.0), algo, BARE, 292.15)
    with pytest.raises(DomainError, match="tau_sca"):
        rt.retrieve(TbPair(200.0, 240.0), preset("SCAV", "grassland"), GRASS, 290.0)
    with pytest.raises(DomainError, match="t_e"):
        rt.retrieve(TbPair(200.0, 240.0), algo, BARE, -5.0)
    with pytest.raises(DomainError, match="t_e must be finite and positive, got inf"):
        rt.retrieve(TbPair(200.0, 240.0), algo, BARE, math.inf)


@pytest.mark.parametrize("name", [name for name in rt.PRESET_NAMES if name != "DCA0"])
@pytest.mark.parametrize("omega", [0.0, 0.05])
def test_large_roughness_ends_on_a_boundary_result(name, omega):
    """At h = 1000 the emissivity is 1 and its slope underflows to 0, so
    sm has a zero Jacobian column (and tau too at omega = 0). Such a
    coordinate is not free: the solve once divided by a zero determinant.
    DCA0 pins h to 0."""
    algo = dataclasses.replace(preset(name, "grassland"), h=1000.0, omega=omega)
    result = rt.retrieve(TbPair(230.0, 260.0), algo, GRASS, 290.0, tau_sca=0.2)
    assert result.boundary_hit and result.sm == rt.SM_BOUNDS[0]
    assert math.isfinite(result.cost)


# SHA-256 of the full-precision results of the tied-row problems below,
# re-frozen when the LM solve took gain-ratio damping and its pre-trial stop
TIED_ROWS_DIGEST = "952d0dc475ca4e3ac2ecde049fb5c1b0b2b4e58d6bf330e11f408ed06a6eb609"


def test_tied_grid_rows_keep_their_results():
    """At h >= 20 e_p rounds to 1, so every row of the seed grid is equal
    and the seed breaks the tie to the first row. At omega = 0.05 RDCA
    converges there, while DCA2 at TbPair(289, 289.5) still spends all
    LM_MAX_STEPS. The results stay those of the per-cell grid."""
    def tied():
        for name in ("RDCA", "DCA2"):
            for cover, surface in (("bare_soil", BARE), ("grassland", GRASS)):
                for h in (20.0, 40.0, 1000.0):
                    for omega in (0.0, 0.05):
                        algo = dataclasses.replace(preset(name, cover), h=h, omega=omega)
                        for obs in (TbPair(230.0, 260.0), TbPair(150.0, 200.0),
                                    TbPair(289.0, 289.5)):
                            yield rt.retrieve(obs, algo, surface, 290.0, tau_sca=0.2)

    text = "\n".join(repr((r.sm, r.tau, r.cost, r.converged, r.boundary_hit, r.evaluations))
                     for r in tied())
    assert hashlib.sha256(text.encode()).hexdigest() == TIED_ROWS_DIGEST


@pytest.mark.parametrize("name", ["SCAV", "RDCA", "DCA1"])
@pytest.mark.parametrize("tau_sca", [float("nan"), float("inf"), -1.0, -1e-12])
def test_retrieve_rejects_a_tau_sca_that_is_no_opacity(name, tau_sca):
    """A non-finite or negative tau_sca once gave a NaN result reported as
    converged, a ZeroDivisionError or a row at the sm floor."""
    with pytest.raises(DomainError, match="tau_sca must be finite and non-negative"):
        rt.retrieve(TbPair(200.0, 240.0), preset(name, "grassland"), GRASS, 290.0,
                    tau_sca=tau_sca)


@pytest.mark.parametrize("name", ["SCAV", "SCAH", "RDCA"])
def test_retrieve_bounds_the_tau_sca_of_the_kinds_that_use_it(name):
    """Above TAU_BOUNDS[1] the canopy leaves almost no soil signal, and a
    huge finite tau_sca once overflowed RDCA's regularizer."""
    algo = preset(name, "grassland")
    tb = TbPair(200.0, 240.0)
    assert math.isfinite(rt.retrieve(tb, algo, GRASS, 290.0, tau_sca=3.0).cost)
    above = math.nextafter(3.0, math.inf)
    with pytest.raises(DomainError,
                       match=rf"^{name} needs tau_sca <= 3\.0, got {re.escape(str(above))}$"):
        rt.retrieve(tb, algo, GRASS, 290.0, tau_sca=above)


@pytest.mark.parametrize("tau_sca", [0.0, 0.2, 3.0])
def test_largest_lambda_scores_the_grid_without_overflow(tau_sca):
    """Below the bound that AlgorithmConfig puts on lambda, the opacity
    term's square is finite over the whole tau box; 1e154 once overflowed
    the seed grid."""
    algo = dataclasses.replace(preset("RDCA", "grassland"), lam=4.4e153)
    costs, _ = rt._seed_costs(TbPair(230.0, 260.0), algo, GRASS, 290.0, tau_sca,
                              ra.L_BAND_GHZ)
    assert np.isfinite(costs).all()
    assert math.isfinite(rt.retrieve(TbPair(230.0, 260.0), algo, GRASS, 290.0,
                                     tau_sca=tau_sca).cost)


def test_overflowed_lm_step_ends_the_solve_unconverged():
    """At lambda 1e152 the 2x2 system's d11 * d22 overflows, so its
    determinant is inf and the step 0.0 or NaN: the solve stops at once,
    not converged (a 0.0 step is no sign of convergence there), with no
    kernel call after the seed's. At 1e148 the system is finite and the
    solve converges."""
    tb, algo = TbPair(230.0, 260.0), preset("RDCA", "grassland")
    result = rt.retrieve(tb, dataclasses.replace(algo, lam=1e152), GRASS, 290.0, tau_sca=0.2)
    assert (result.converged, result.evaluations) == (False, 4097)
    assert math.isfinite(result.sm)
    result = rt.retrieve(tb, dataclasses.replace(algo, lam=1e148), GRASS, 290.0, tau_sca=0.2)
    assert (result.sm, result.tau, result.converged, result.evaluations) == \
        (0.22412729438918041, 0.2, True, 4102)


@pytest.mark.parametrize("h", [20.0, 40.0, 1000.0])
def test_large_roughness_rdca_with_albedo_converges(h):
    """At a large h with omega > 0, Gauss-Newton curvature underestimates
    RDCA's large-residual cost, so tau zig-zags about its optimum; the
    solve once spent all LM_MAX_STEPS there and reported converged false.
    Gain-ratio damping ends it converged, in fewer Jacobians."""
    algo = dataclasses.replace(preset("RDCA", "grassland"), h=h, omega=0.05)
    result = rt.retrieve(TbPair(230.0, 260.0), algo, GRASS, 290.0, tau_sca=0.2)
    assert result.converged
    assert result.evaluations < rt.SEED_GRID_N ** 2 + 1 + rt.LM_MAX_STEPS
    assert result.cost < 3075.68


@pytest.mark.parametrize("rho,factor", [(0.1, 1.512), (0.5, 1.0), (0.9, 0.488),
                                        (1.0, 1.0 / 3.0)])
def test_gain_damping_follows_the_gain_ratio(rho, factor):
    assert rt._gain_damping(rho * 8.0, 8.0) == pytest.approx(factor, rel=1e-12)


@pytest.mark.parametrize("predicted", [5e-324, 1e-300, 0.0, -0.0, -246.2])
def test_gain_damping_of_a_decrease_the_model_did_not_predict(predicted):
    """Over a predicted decrease that underflows, an uncapped gain ratio
    overflows its cube (OverflowError); one <= 0 divides by zero or flips
    the ratio's sign. Both count as rho = 1, the floor factor."""
    assert rt._gain_damping(855.7, predicted) == 1.0 / 3.0


def test_step_the_model_predicts_as_a_rise_is_kept():
    """Near grazing incidence a clipped step can lower the cost where the
    linear model predicts a rise (here 855.7 K^2 actual against -246.2
    predicted); the solve keeps it and still converges."""
    surface = rt.make_surface(0.13, "bare_soil", 89.9)
    algo = dataclasses.replace(preset("DCA2"), omega=0.05)
    obs = TbPair(178.9894859954121, 101.62964764382505)
    result = rt.retrieve(obs, algo, surface, 290.0)
    assert result.converged and result.sm == rt.SM_BOUNDS[0]
    assert result.cost < rt._seed_costs(obs, algo, surface, 290.0, None, ra.L_BAND_GHZ)[0].min()


def test_dca_kinds_ignore_tau_sca_above_the_opacity_box():
    tb = TbPair(200.0, 240.0)
    algo = preset("DCA1", "grassland")
    assert rt.retrieve(tb, algo, GRASS, 290.0, tau_sca=5.0) == \
        rt.retrieve(tb, algo, GRASS, 290.0)


# ----------------------------------------------------------------------
# Presets and configuration types
# ----------------------------------------------------------------------

EXPECTED_PRESETS = {
    # name -> (cover -> (h, omega)), t_e_source, dielectric
    "SCAV": ({"bare_soil": (0.15, 0.0), "grassland": (0.156, 0.05)},
             rt.TempSource.MEASURED, DielectricModel.MIRONOV),
    "SCAH": ({"bare_soil": (0.15, 0.0), "grassland": (0.156, 0.05)},
             rt.TempSource.MEASURED, DielectricModel.MIRONOV),
    "RDCA": ({"bare_soil": (0.4612, 0.0), "grassland": (0.4612, 0.0608)},
             rt.TempSource.MEASURED, DielectricModel.MIRONOV),
    "DCA0": ({"bare_soil": (0.0, 0.0), "grassland": (0.0, 0.0)},
             rt.TempSource.CONSTANT, DielectricModel.TOPP),
    "DCA1": ({"bare_soil": (0.0, 0.0), "grassland": (0.0, 0.0)},
             rt.TempSource.CONSTANT, DielectricModel.MIRONOV),
    "DCA2": ({"bare_soil": (0.0, 0.0), "grassland": (0.0, 0.0)},
             rt.TempSource.MEASURED, DielectricModel.MIRONOV),
}


def test_shipped_presets_match_expected_parameters():
    assert set(rt.PRESET_NAMES) == set(EXPECTED_PRESETS)
    for name, (by_cover, te_src, diel) in EXPECTED_PRESETS.items():
        for cover, (h, omega) in by_cover.items():
            algo = rt.load_preset(name, cover)
            assert algo.name == name and algo.kind == rt.AlgorithmKind(name)
            assert algo.h == h, (name, cover)
            assert algo.omega == omega, (name, cover)
            assert algo.t_e_source == te_src
            assert algo.dielectric == diel
            assert algo.lam == (20.0 if name == "RDCA" else 0.0)


class _RecordingMap(kvconfig.KeyValueMap):
    """A key-value map that records every key read from it."""

    def __init__(self, kv):
        super().__init__(kv.entries, kv.source)
        self.read = set()

    def raw(self, key, default=None):
        self.read.add(key)
        return super().raw(key, default)


@pytest.mark.parametrize("name", rt.PRESET_NAMES)
def test_shipped_preset_keys_are_all_read(name):
    # a key that parse_preset does not read (as the derived tau_source and
    # polarization were) has no effect and must not ship
    kv = _RecordingMap(rt.read_preset(name))
    rt.parse_preset(kv, "bare_soil")
    assert set(kv.keys()) <= kv.read, name


def test_lambda_is_read_for_rdca_only(tmp_path):
    """A lambda key in a preset of another kind is unread: it neither
    sets a weight that the residual never applies nor is checked."""
    body = "h = 0.1\nomega = 0.0\nt_e_source = measured\ndielectric = mironov\n"
    for kind, lam, want in (("RDCA", "5", 5.0), ("DCA2", "5", 0.0), ("SCAV", "nan", 0.0)):
        path = tmp_path / f"{kind}_lam.cfg"
        path.write_text(f"kind = {kind}\nlambda = {lam}\n" + body)
        assert rt.load_preset(path, "bare_soil").lam == want, kind


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        rt.load_preset("SCAX", "bare_soil")


def test_user_preset_file(tmp_path):
    path = tmp_path / "custom.cfg"
    path.write_text(
        "kind = DCA2\nh = 0.1\nomega = 0.02\nt_e_source = measured\n"
        "dielectric = mironov\n")
    algo = rt.load_preset(path, "anything")
    assert algo.h == 0.1 and algo.omega == 0.02
    assert algo.name == "custom"


def test_user_preset_per_cover_values(tmp_path):
    # a cover's own key wins over the flat one, and every value is parsed
    # whichever cover is asked for
    path = tmp_path / "mixed.cfg"
    path.write_text("kind = DCA2\nh = 0.1\nh.grassland = 0.2\nomega.grassland = 0.05\n"
                    "t_e_source = measured\ndielectric = mironov\n")
    assert rt.load_preset(path, "grassland").h == 0.2
    with pytest.raises(ConfigError, match="no omega for land cover 'bare_soil'"):
        rt.load_preset(path, "bare_soil")
    path.write_text(path.read_text() + "omega.forest = x\n")
    with pytest.raises(ConfigError, match="omega.forest"):
        rt.load_preset(path, "grassland")


@pytest.mark.parametrize("key,value,message", [
    ("h", "nan", "h must be >= 0, got nan"),
    ("h", "-0.1", "h must be >= 0, got -0.1"),
    ("h", "inf", "h must be finite and >= 0, got inf"),
    ("omega", "1.5", "omega must be in [0, 1), got 1.5"),
    ("omega", "1.0", "omega must be in [0, 1), got 1.0"),
    ("omega", "nan", "omega must be in [0, 1), got nan"),
    ("lambda", "nan", "lambda must be finite and >= 0, got nan"),
    ("lambda", "-1", "lambda must be finite and >= 0, got -1.0"),
    ("lambda", "inf", "lambda must be finite and >= 0, got inf"),
    ("lambda", "1e154", "lambda must keep (lambda * 3.0)^2 finite, got 1e+154"),
    ("lambda", "4.5e153", "lambda must keep (lambda * 3.0)^2 finite, got 4.5e+153"),
])
def test_preset_value_out_of_range_names_file_and_cover(tmp_path, key, value, message):
    """The h, omega and lambda that every retrieval inverts with are
    checked when the preset loads."""
    values = {"h": "0.1", "omega": "0.0", "lambda": "20", key: value}
    path = tmp_path / "bad.cfg"
    path.write_text("kind = RDCA\nt_e_source = measured\ndielectric = mironov\n"
                    + "".join(f"{k} = {v}\n" for k, v in values.items()))
    with pytest.raises(ConfigError,
                       match=re.escape(f"{path}: land cover 'bare_soil': {message}")):
        rt.load_preset(path, "bare_soil")


def test_algorithm_config_kind_consistency():
    # the zero-parameter kind pins its fields
    with pytest.raises(ConfigError, match="Topp"):
        rt.AlgorithmConfig("D", rt.AlgorithmKind.DCA0, 0.0, 0.0, rt.TempSource.CONSTANT,
                           DielectricModel.MIRONOV)
    with pytest.raises(ConfigError, match="constant"):
        rt.AlgorithmConfig("D", rt.AlgorithmKind.DCA0, 0.0, 0.0, rt.TempSource.MEASURED,
                           DielectricModel.TOPP)
    with pytest.raises(ConfigError, match="zero"):
        rt.AlgorithmConfig("D", rt.AlgorithmKind.DCA0, 0.1, 0.0, rt.TempSource.CONSTANT,
                           DielectricModel.TOPP)


def test_surface_defaults_per_land_cover():
    assert BARE.h == 0.15
    assert GRASS.h == 0.156
    assert (BARE.h, GRASS.h) == (preset("SCAV").h, preset("SCAV", "grassland").h)
    custom = rt.make_surface(0.3, "grassland", 40.0, h=0.2)
    assert custom.h == 0.2
    with pytest.raises(ConfigError, match="forest"):
        rt.make_surface(0.3, "forest", 40.0)
    explicit = rt.make_surface(0.3, "forest", 40.0, h=0.1)
    assert explicit.land_cover == "forest"


def test_surface_config_invariants():
    with pytest.raises(DomainError):
        rt.SurfaceConfig(1.2, "bare_soil", 40.0, 0.1)
    with pytest.raises(DomainError):
        rt.SurfaceConfig(0.2, "bare_soil", 95.0, 0.1)
    with pytest.raises(DomainError, match="h must be finite and >= 0, got inf"):
        rt.SurfaceConfig(0.2, "bare_soil", 40.0, math.inf)
    for h, shown in ((-1.0, "-1.0"), (math.nan, "nan")):
        with pytest.raises(DomainError, match=f"h must be >= 0, got {shown}$"):
            rt.SurfaceConfig(0.2, "bare_soil", 40.0, h)
