"""Acceptance gate: nine numbered criteria, each printed as a pass/fail
line with its stated tolerance. Run with `pytest tests/test_acceptance.py
-v -s` to see the lines as they complete.
"""

import dataclasses
import functools
import math
import time

import numpy as np
import pytest

from lbandsm import pipeline, radiative as ra, retrieval as rt, synth
from lbandsm.config import load_campaign
from lbandsm.geometry import footprint
from lbandsm.preprocess import FilterThresholds, QualityFlag, Session, filter_tb, flags_of
from lbandsm.radiative import DielectricModel, TbPair, simulate_tb
from lbandsm.validation import metrics

import oracles

BARE = rt.make_surface(0.20, "bare_soil", 40.0)
GRASS = rt.make_surface(0.13, "grassland", 40.0)
SURFACE_FOR = {"SCAV": GRASS, "SCAH": GRASS, "RDCA": GRASS,
               "DCA0": BARE, "DCA1": BARE, "DCA2": BARE}


def criterion(num, text):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[FAIL] criterion {num}: {text}")
                raise
            print(f"\n[PASS] criterion {num}: {text}")
        return wrapper
    return decorate


def resolve(name):
    surface = SURFACE_FOR[name]
    algo = rt.load_preset(name, surface.land_cover)
    t_e = rt.CONSTANT_T_E if algo.t_e_source == rt.TempSource.CONSTANT else 290.0
    return algo, surface, t_e


def forward_pair(sm, tau, algo, surface, t_e):
    tb_h, tb_v = simulate_tb(sm, tau, algo.omega, algo.h, surface.clay_fraction,
                             surface.incidence_deg, t_e, algo.dielectric)
    return TbPair(float(tb_h), float(tb_v))


@criterion(1, "round-trip inversion for all six presets: |dsm| < 1e-3, "
              "|dtau| < 1e-2, under 30 s")
def test_criterion_1_round_trip():
    start = time.perf_counter()
    worst_sm = worst_tau = 0.0
    for name in rt.PRESET_NAMES:
        algo, surface, t_e = resolve(name)
        two_d = algo.kind in rt.DUAL_KINDS
        taus = (0.0, 0.1, 0.2) if two_d else (0.08,)
        for sm0 in np.arange(0.05, 0.551, 0.05):
            for tau0 in taus:
                obs = forward_pair(sm0, tau0, algo, surface, t_e)
                res = rt.retrieve(obs, algo, surface, t_e, tau_sca=tau0)
                worst_sm = max(worst_sm, abs(res.sm - sm0))
                if two_d:
                    worst_tau = max(worst_tau, abs(res.tau - tau0))
    elapsed = time.perf_counter() - start
    print(f"  max|dsm|={worst_sm:.2e}, max|dtau|={worst_tau:.2e}, {elapsed:.1f}s")
    assert worst_sm < 1e-3
    assert worst_tau < 1e-2
    assert elapsed < 30.0


@criterion(2, "5 K perturbation of both channels shifts the zero-parameter "
              "dual-channel retrieval by 0.015 +/- 0.010 m3/m3, under 1 s")
def test_criterion_2_sensitivity():
    start = time.perf_counter()
    algo, surface, t_e = resolve("DCA0")
    # bare-soil operating point: canopy-free baseline, moderate moisture
    base = forward_pair(0.30, 0.0, algo, surface, t_e)
    r0 = rt.retrieve(base, algo, surface, t_e)
    shifts = []
    for delta in (+5.0, -5.0):
        pert = TbPair(base.tb_h + delta, base.tb_v + delta)
        r = rt.retrieve(pert, algo, surface, t_e)
        shifts.append(abs(r.sm - r0.sm))
    elapsed = time.perf_counter() - start
    print(f"  |dsm| = {shifts[0]:.4f} (+5 K), {shifts[1]:.4f} (-5 K), {elapsed:.2f}s")
    for shift in shifts:
        assert 0.005 <= shift <= 0.025
    assert elapsed < 1.0


@criterion(3, "footprint at 1.14 m / 40 deg / 37 deg: major axis in "
              "[1.35, 1.45] m, minor axis matches the trig oracle to 1e-6")
def test_criterion_3_footprint():
    fp = footprint(1.14, 40.0, 37.0)
    want = oracles.footprint_trig(1.14, 40.0, 37.0)
    print(f"  major={fp.major_axis_m:.4f} m, minor={fp.minor_axis_m:.4f} m")
    assert 1.35 <= fp.major_axis_m <= 1.45
    assert abs(fp.minor_axis_m - want[1]) < 1e-6
    assert abs(fp.major_axis_m - want[0]) < 1e-6
    assert abs(fp.center_offset_m - want[2]) < 1e-6


@criterion(4, "physics invariants: Brewster null, nadir symmetry, emission "
              "bound, moisture monotonicity, opaque-canopy limit, under 5 s")
def test_criterion_4_physics_invariants():
    start = time.perf_counter()
    # Brewster null for lossless permittivities
    for eps_r in (2.0, 4.0, 9.0, 16.0, 36.0):
        theta_b = math.degrees(math.atan(math.sqrt(eps_r)))
        _, r_v = ra.fresnel_power(eps_r, 0.0, theta_b)
        assert r_v < 1e-12
    # normal-incidence polarization symmetry
    for eps in ((3.0, 0.0), (12.0, 2.0), (40.0, 9.0)):
        r_h, r_v = ra.fresnel_power(eps[0], eps[1], 0.0)
        assert abs(r_h - r_v) < 1e-12
    # emission never exceeds the physical temperature
    rng = np.random.default_rng(101)
    for _ in range(500):
        t_e = rng.uniform(270.0, 310.0)
        tb_h, tb_v = simulate_tb(
            rng.uniform(0, 1), rng.uniform(0, 3), rng.uniform(0, 0.2),
            rng.uniform(0, 0.5), rng.uniform(0, 1), rng.uniform(0, 89), t_e)
        assert 0.0 < tb_h <= t_e and 0.0 < tb_v <= t_e
    # brightness temperature strictly decreasing in moisture
    sms = np.arange(0.05, 0.551, 0.05)
    for diel in (DielectricModel.MIRONOV, DielectricModel.TOPP):
        tb_h, tb_v = simulate_tb(sms, 0.1, 0.05, 0.15, 0.2, 40.0, 292.15, diel)
        assert np.all(np.diff(tb_h) < 0.0) and np.all(np.diff(tb_v) < 0.0)
    # opaque canopy forgets the soil
    for omega in (0.0, 0.05, 0.12):
        for sm in (0.05, 0.55):
            tb_h, tb_v = simulate_tb(sm, 50.0, omega, 0.2, 0.2, 40.0, 292.15)
            want = (1.0 - omega) * 292.15
            assert abs(tb_h - want) < 1e-6 * 292.15
            assert abs(tb_v - want) < 1e-6 * 292.15
    elapsed = time.perf_counter() - start
    print(f"  all invariants hold, {elapsed:.2f}s")
    assert elapsed < 5.0


@criterion(5, "screening contract on 1e4 random records: acceptance iff all "
              "three predicates hold, flags identify exactly the violations")
def test_criterion_5_filter_contract():
    rng = np.random.default_rng(202)
    thresholds = FilterThresholds(tb_max=320.0, tb_min_h=140.0, tb_min_v=170.0)
    tb_h = rng.uniform(100.0, 340.0, 10_000)
    tb_v = rng.uniform(100.0, 345.0, 10_000)
    flags = filter_tb(Session(np.arange(10_000.0), tb_h, tb_v), thresholds)
    assert len(flags) == 10_000
    n_accepted = 0
    for h, v, bits in zip(tb_h.tolist(), tb_v.tolist(), flags):
        record_flags = flags_of(bits)
        max_ok = h <= 320.0 and v <= 320.0
        min_ok = h >= 140.0 and v >= 170.0
        pol_ok = v > h
        if bits == 0:
            n_accepted += 1
            assert max_ok and min_ok and pol_ok
            assert not record_flags
            continue
        assert not (max_ok and min_ok and pol_ok)
        assert (QualityFlag.MAX_EXCEEDED in record_flags) == (not max_ok)
        assert (QualityFlag.MIN_VIOLATED in record_flags) == (not min_ok)
        assert (QualityFlag.POL_ORDER_VIOLATED in record_flags) == (not pol_ok)
    print(f"  {n_accepted} accepted / {10_000 - n_accepted} rejected, flags exact")


@criterion(6, "metrics identities on 1e3 random series: rmse^2 = bias^2 + "
              "ubrmse^2, affine-invariant r, oracle agreement, all to 1e-12")
def test_criterion_6_metrics_identities():
    rng = np.random.default_rng(303)
    for _ in range(1000):
        n = int(rng.integers(2, 40))
        obs = rng.uniform(0.0, 0.6, n)
        ref = rng.uniform(0.0, 0.6, n)
        report = metrics(obs, ref)
        assert abs(report.rmse**2 - (report.bias**2 + report.ubrmse**2)) < 1e-12
        bias, rmse, ub, r = oracles.direct_metrics(list(obs), list(ref))
        assert abs(report.bias - bias) < 1e-12
        assert abs(report.rmse - rmse) < 1e-12
        assert abs(report.ubrmse - ub) < 1e-12
        if report.r_flag != "zero_variance":
            assert abs(report.r - r) < 1e-12
            scaled = metrics(2.5 * obs + 0.04, ref)
            assert abs(scaled.r - report.r) < 1e-12
    print("  identities hold on 1000 random series")


def _grid_cost_1d(obs_p, pol, tau, algo, surface, t_e, n=500):
    sms = np.linspace(*rt.SM_BOUNDS, n)
    e_h, e_v = ra.soil_emissivity_pair(sms, surface.clay_fraction,
                                       surface.incidence_deg, algo.h,
                                       algo.dielectric)
    gamma = float(ra.canopy_transmissivity(tau, surface.incidence_deg))
    sim = ra.tau_omega_tb(e_h if pol == "H" else e_v, gamma, algo.omega, t_e)
    return float(np.min((sim - obs_p) ** 2))


def _grid_cost_2d(obs, algo, surface, t_e, tau_sca=None, n=200):
    sms = np.linspace(*rt.SM_BOUNDS, n)
    taus = np.linspace(*rt.TAU_BOUNDS, n)
    e_h, e_v = ra.soil_emissivity_pair(sms, surface.clay_fraction,
                                       surface.incidence_deg, algo.h,
                                       algo.dielectric)
    gamma = ra.canopy_transmissivity(taus, surface.incidence_deg)
    tb_h = ra.tau_omega_tb(e_h[:, None], gamma[None, :], algo.omega, t_e)
    tb_v = ra.tau_omega_tb(e_v[:, None], gamma[None, :], algo.omega, t_e)
    cost = (tb_v - obs.tb_v) ** 2 + (tb_h - obs.tb_h) ** 2
    if algo.kind == rt.AlgorithmKind.RDCA:
        cost = cost + algo.lam**2 * (taus[None, :] - tau_sca) ** 2
    return float(np.min(cost))


@criterion(7, "optimizer dominance: production cost at the reported optimum "
              "beats the exhaustive grid minimum + 1e-8 on 50 random "
              "observations per preset")
def test_criterion_7_optimizer_dominance():
    rng = np.random.default_rng(404)
    for name in rt.PRESET_NAMES:
        algo, surface, t_e = resolve(name)
        for _ in range(50):
            sm0 = rng.uniform(0.05, 0.60)
            tau0 = rng.uniform(0.0, 0.6)
            tau_sca = tau0 if algo.kind in rt.TAU_SCA_KINDS else None
            base = forward_pair(sm0, tau0, algo, surface, t_e)
            obs = TbPair(base.tb_h + rng.uniform(-4.0, 4.0),
                         base.tb_v + rng.uniform(-4.0, 4.0))
            res = rt.retrieve(obs, algo, surface, t_e, tau_sca=tau_sca)
            if algo.kind not in rt.DUAL_KINDS:
                pol = "H" if algo.kind == rt.AlgorithmKind.SCAH else "V"
                obs_p = obs.tb_h if pol == "H" else obs.tb_v
                best = _grid_cost_1d(obs_p, pol, tau_sca,
                                     algo, surface, t_e)
            else:
                best = _grid_cost_2d(obs, algo, surface, t_e, tau_sca)
            assert res.cost <= best + 1e-8, (name, sm0, tau0)
    print("  production optimum dominates the grid for all 300 draws")


@criterion(8, "regularized dual-channel limits: weight 1e4 pins opacity to "
              "the optical estimate within 1e-3; weight 0 reproduces the "
              "plain dual-channel minimizer within optimizer tolerance")
def test_criterion_8_rdca_limits():
    algo = rt.load_preset("RDCA", "grassland")
    tau_sca = 0.12
    obs = forward_pair(0.28, 0.25, algo, GRASS, 290.0)

    pinned = rt.retrieve(obs, dataclasses.replace(algo, lam=1e4), GRASS, 290.0,
                         tau_sca=tau_sca)
    assert abs(pinned.tau - tau_sca) < 1e-3

    free = rt.retrieve(obs, dataclasses.replace(algo, lam=0.0), GRASS, 290.0,
                       tau_sca=tau_sca)
    dca_like = dataclasses.replace(algo, kind=rt.AlgorithmKind.DCA2)
    plain = rt.retrieve(obs, dca_like, GRASS, 290.0)
    print(f"  pinned tau={pinned.tau:.5f} (target {tau_sca}), "
          f"free ({free.sm:.5f}, {free.tau:.5f}) vs plain "
          f"({plain.sm:.5f}, {plain.tau:.5f})")
    assert abs(free.sm - plain.sm) <= rt.SM_TOL
    assert abs(free.tau - plain.tau) <= rt.TAU_TOL


@criterion(9, "end-to-end golden run: byte-identical report CSVs across "
              "repeated runs, injected outliers land in the rejection "
              "histogram, matching presets recover the generating moisture")
def test_criterion_9_end_to_end_golden(tmp_path):
    root = tmp_path / "campaign"
    truth = synth.generate_campaign(root, seed=424242, n_days=4, n_samples=50)
    cfg = load_campaign(root / "campaign.cfg")

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    report = pipeline.run_pipeline(cfg, output_dir=out1)
    pipeline.run_pipeline(cfg, output_dir=out2)
    assert not report.data_errors

    names = sorted(p.name for p in out1.iterdir())
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    rejections = (out1 / "rejections.csv").read_text().splitlines()[1:]
    counts = {}
    for line in rejections:
        site, session, flag, count = line.split(",")
        counts[(session, flag)] = int(count)
    for t in truth:
        for flag in ("max_exceeded", "min_violated", "pol_order_violated"):
            assert counts[(t.session_id, flag)] == 1, (t.session_id, flag)

    tmap = {(t.site, t.session_id): t for t in truth}
    for row in report.retrievals:
        if row.preset in ("SCAV", "SCAH"):
            want = tmap[(row.site, row.session_id)].sm_true
            assert abs(row.result.sm - want) < 1e-3
    print(f"  {len(names)} artifacts byte-identical, outliers all counted")
