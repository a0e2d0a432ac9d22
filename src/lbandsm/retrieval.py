"""Soil-moisture inversion of dual-polarization brightness temperatures.

Three inversion families minimize the squared norm of one residual
vector of the same forward model,

    r = (w_h (tbh_sim - tbh_obs), w_v (tbv_sim - tbv_obs), lambda (tau - tau_sca)):

  * SCA: one polarization, (w_h, w_v) = (1, 0) for SCAH and (0, 1) for
    SCAV, canopy opacity held at tau_sca from the optical-index chain;
  * DCA: both polarizations, (sm, tau) retrieved jointly, lambda = 0;
  * RDCA: DCA plus a pull of the retrieved opacity toward the optical
    estimate, lambda = 20.

Minimization is deterministic over sm in [0.01, 0.70] and tau in [0, 3].
A coarse seed starts a box-projected Levenberg-Marquardt solve on r,
which steps sm alone when tau is fixed:

  * dual-channel kinds with omega = 0 and lam = 0 (DCA0/1/2): the 64 sm
    points, each at its closed-form best opacity (_profiled_seed), whose
    cost is never above that of any point of the 64 x 64 grid;
  * the other dual-channel kinds (RDCA): the 64 x 64 (sm, tau) grid;
  * single-channel kinds: the 64 sm points at tau_sca.

The Jacobian chains the partials of tau_omega_tb in e and gamma
(radiative.tau_omega_partials) with d gamma / d tau, gamma =
exp(-tau / cos theta), and with the analytic emissivity slope that every
trial point's kernel call returns with its value
(radiative.emissivity_slope_evaluator). A coordinate with a zero
Jacobian column, or on a bound whose gradient points out of the box, is
held fixed, and a trial point, clipped to the box, is kept only if it
lowers the cost, so the cost never rises above the seed's. `evaluations` is
the number of seed points scored (64, or 4,096 on the grid) plus the
kernel calls of the solve.

The emissivities on the 64 sm points depend on the site and preset only,
so they are built once per (clay, incidence, h, dielectric, frequency)
as read-only arrays in a bounded LRU cache, which both seeds read. The
grid seed scores them through radiative.tau_omega_tb, the one forward
formula that the optimizer evaluates too.

Six named presets cover the operational algorithm configurations (SCAV,
SCAH, RDCA, DCA0, DCA1, DCA2); they ship as key-value files under
``lbandsm/presets``, and a preset loads as the AlgorithmConfig of one
land cover.
"""

import functools
import math
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError
from .kvconfig import parse_kv_text, read_kv_file, read_package_text
from .radiative import (DielectricModel, L_BAND_GHZ, canopy_transmissivity, tau_omega_partials,
                        emissivity_slope_evaluator, soil_emissivity_pair, tau_omega_tb)

SM_BOUNDS = (0.01, 0.70)
TAU_BOUNDS = (0.0, 3.0)
SM_TOL = 1e-5
TAU_TOL = 1e-4
SEED_GRID_N = 64          # coarse-grid points per dimension
LM_MAX_STEPS = 100        # Levenberg-Marquardt Jacobians before giving up
# Marquardt damping mu scales the diagonal of J^T J by (1 + mu); it falls
# by _LM_MU_FACTOR after an accepted step and rises by it after a rejected
# trial. A trial rejected at mu > _LM_MU_MAX, a step of ~1e-8 of the
# Gauss-Newton one, means no damping gives descent.
_LM_MU_START = 1e-3
_LM_MU_FACTOR = 10.0
_LM_MU_MAX = 1e8
RDCA_LAMBDA = 20.0
CONSTANT_T_E = 292.15     # K, fixed effective temperature for the DCA0/DCA1 setups


class AlgorithmKind(str, Enum):
    SCAV = "SCAV"
    SCAH = "SCAH"
    RDCA = "RDCA"
    DCA0 = "DCA0"
    DCA1 = "DCA1"
    DCA2 = "DCA2"


DUAL_KINDS = (AlgorithmKind.RDCA, AlgorithmKind.DCA0, AlgorithmKind.DCA1,
              AlgorithmKind.DCA2)
TAU_SCA_KINDS = (AlgorithmKind.SCAV, AlgorithmKind.SCAH, AlgorithmKind.RDCA)


class TempSource(str, Enum):
    MEASURED = "measured"      # coincident probe soil temperature
    CONSTANT = "constant"      # CONSTANT_T_E


@dataclass(frozen=True)
class SurfaceConfig:
    """Per-site surface: clay and incidence for inversion and screening, and
    the roughness h of the screening floor. Retrievals use the preset's h."""

    clay_fraction: float
    land_cover: str
    incidence_deg: float
    h: float

    def __post_init__(self):
        if not 0.0 <= self.clay_fraction <= 1.0:
            raise DomainError(f"clay_fraction must be in [0, 1], got {self.clay_fraction}")
        if not 0.0 <= self.incidence_deg < 90.0:
            raise DomainError(f"incidence_deg must be in [0, 90), got {self.incidence_deg}")
        if not self.h >= 0.0:
            raise DomainError(f"h must be >= 0, got {self.h}")
        if self.h == math.inf:
            raise DomainError("h must be finite and >= 0, got inf")


def make_surface(clay_fraction, land_cover, incidence_deg, h=None):
    """SurfaceConfig with SCAV's h for the land cover when h is None."""
    if h is None:
        try:
            h = load_preset("SCAV", land_cover).h
        except ConfigError:
            raise ConfigError(f"land cover {land_cover!r} has no default h; "
                              "set it explicitly") from None
    return SurfaceConfig(clay_fraction, land_cover, incidence_deg, h)


@dataclass(frozen=True)
class AlgorithmConfig:
    """One preset as it applies to one land cover. The kind fixes the
    channels it fits and where its opacity comes from (residual_weights,
    TAU_SCA_KINDS)."""

    name: str
    kind: AlgorithmKind
    h: float
    omega: float
    t_e_source: TempSource
    dielectric: DielectricModel
    lam: float = RDCA_LAMBDA   # regularization weight, RDCA only

    def __post_init__(self):
        if not self.h >= 0.0:
            raise ConfigError(f"h must be >= 0, got {self.h}")
        if self.h == math.inf:
            raise ConfigError("h must be finite and >= 0, got inf")
        if not 0.0 <= self.omega < 1.0:
            raise ConfigError(f"omega must be in [0, 1), got {self.omega}")
        if not 0.0 <= self.lam < math.inf:
            raise ConfigError(f"lambda must be finite and >= 0, got {self.lam}")
        if self.kind == AlgorithmKind.DCA0:
            if self.dielectric != DielectricModel.TOPP:
                raise ConfigError("DCA0 pairs with the Topp dielectric")
            if self.t_e_source != TempSource.CONSTANT:
                raise ConfigError("DCA0 uses the constant effective temperature")
            if self.h != 0.0 or self.omega != 0.0:
                raise ConfigError("DCA0 sets h and omega to zero")

    def t_e(self, measured):
        """The effective temperature this preset inverts at: CONSTANT_T_E,
        or the measured one (None when there is none)."""
        return CONSTANT_T_E if self.t_e_source == TempSource.CONSTANT else measured


@dataclass(frozen=True)
class RetrievalResult:
    sm: float
    tau: float          # None for single-channel kinds
    cost: float         # squared kelvin at the optimum
    converged: bool
    boundary_hit: bool
    evaluations: int


# ----------------------------------------------------------------------
# Residual
# ----------------------------------------------------------------------

_CHANNEL_WEIGHTS = {AlgorithmKind.SCAV: (0.0, 1.0), AlgorithmKind.SCAH: (1.0, 0.0)}


def residual_weights(algo):
    """(w_h, w_v, lam) of a kind's residual: both channels for the
    dual-channel kinds, one for the single-channel kinds, and the opacity
    pull lam for RDCA only."""
    w_h, w_v = _CHANNEL_WEIGHTS.get(algo.kind, (1.0, 1.0))
    return w_h, w_v, algo.lam if algo.kind == AlgorithmKind.RDCA else 0.0


def residual(tb_h, tb_v, tau, tb_obs, weights, tau_sca=None):
    """Residual vector (w_h (tb_h - obs_h), w_v (tb_v - obs_v),
    lam (tau - tau_sca)) of simulated brightness temperatures at opacity
    tau, elementwise over broadcastable arrays or on floats. Every kind
    minimizes its squared norm. A weight of 1.0 is not multiplied in, and
    the opacity term is the scalar 0.0 when lam is 0: neither changes a
    bit of the result."""
    w_h, w_v, lam = weights
    r_h, r_v = tb_h - tb_obs.tb_h, tb_v - tb_obs.tb_v
    return (r_h if w_h == 1.0 else w_h * r_h, r_v if w_v == 1.0 else w_v * r_v,
            lam * (tau - tau_sca) if lam else 0.0)


def squared_norm(res):
    """Cost of a residual vector, in squared kelvin. A scalar zero term is
    skipped: the sum of squares before it is >= +0.0, so adding it changes
    no bit."""
    r_h, r_v, r_tau = res
    cost = r_h * r_h + r_v * r_v
    if isinstance(r_tau, float) and r_tau == 0.0:
        return cost
    return cost + r_tau * r_tau


# ----------------------------------------------------------------------
# Seed-grid tables
# ----------------------------------------------------------------------

def _read_only(arrays):
    for array in arrays:
        array.flags.writeable = False
    return arrays


_SM_GRID, _TAU_GRID = _read_only((np.linspace(*SM_BOUNDS, SEED_GRID_N),
                                  np.linspace(*TAU_BOUNDS, SEED_GRID_N)))


@functools.lru_cache(maxsize=64)
def _grid_emissivities(clay_fraction, incidence_deg, h, dielectric, frequency_ghz):
    """Read-only rough-soil (e_h, e_v) on the seed grid's sm axis."""
    return _read_only(soil_emissivity_pair(_SM_GRID, clay_fraction, incidence_deg, h,
                                           dielectric, frequency_ghz))


def _seed_costs(tb_obs, algo, surface, t_e, tau_sca, frequency_ghz):
    """Cost over the seed grid, with the grid's tau axis: the 64 x 64
    (sm, tau) rectangle for the dual-channel kinds, the 64 sm points at
    tau_sca for the single-channel kinds. A channel of weight 0.0 is not
    simulated but scored at its observed value, a 0.0 term either way.
    retrieve seeds the dual-channel kinds with omega = 0 and lam = 0 from
    _profiled_seed instead."""
    weights = residual_weights(algo)
    ts = _TAU_GRID if algo.kind in DUAL_KINDS else np.array([tau_sca])
    gamma = canopy_transmissivity(ts, surface.incidence_deg)[None, :]
    e_hv = _grid_emissivities(surface.clay_fraction, surface.incidence_deg, algo.h,
                              algo.dielectric, frequency_ghz)
    tb_h, tb_v = (tau_omega_tb(e[:, None], gamma, algo.omega, t_e) if w else obs
                  for e, w, obs in zip(e_hv, weights, (tb_obs.tb_h, tb_obs.tb_v)))
    res = residual(tb_h, tb_v, ts[None, :], tb_obs, weights, tau_sca)
    return squared_norm(res), ts


def _profiled_seed(tb_obs, algo, surface, t_e, frequency_ghz):
    """Seed (sm, tau) of a dual-channel kind with omega = 0 and lam = 0,
    and the number of sm points scored: the seed grid's sm point whose
    cost at its best opacity is least, ties to the smallest sm.

    With omega = 0, tau_omega_tb is tb_p = t_e (1 - r_p u), r_p = 1 - e_p,
    u = exp(-2 tau / cos theta), to within 1e-13 K. At fixed sm the cost
    is then a quadratic in u with its minimum on the box at
    u* = clip(sum r_p (t_e - obs_p) / (t_e sum r_p^2), exp(-6 / cos theta), 1),
    and tau* = -(cos theta / 2) ln u*, clipped to TAU_BOUNDS (variable
    projection: Golub & Pereyra 1973)."""
    cos_theta = math.cos(math.radians(surface.incidence_deg))
    e_h, e_v = _grid_emissivities(surface.clay_fraction, surface.incidence_deg, algo.h,
                                  algo.dielectric, frequency_ghz)
    r_h, r_v = 1.0 - e_h, 1.0 - e_v
    # t_e u*, before and after clipping to the box
    t_e_u = (r_h * (t_e - tb_obs.tb_h) + r_v * (t_e - tb_obs.tb_v)) / (r_h * r_h + r_v * r_v)
    t_e_u_box = np.minimum(np.maximum(t_e_u, t_e * math.exp(-2.0 * TAU_BOUNDS[1] / cos_theta)),
                           t_e)
    res = residual(t_e - t_e_u_box * r_h, t_e - t_e_u_box * r_v, None, tb_obs,
                   residual_weights(algo))
    costs = squared_norm(res)
    i = int(costs.argmin())
    u = float(t_e_u[i]) / t_e
    tau = -0.5 * cos_theta * math.log(u) if u > 0.0 else TAU_BOUNDS[1]
    # 0.0 as the first operand turns the -0.0 of ln 1 into 0.0
    return float(_SM_GRID[i]), min(max(TAU_BOUNDS[0], tau), TAU_BOUNDS[1]), costs.size


# ----------------------------------------------------------------------
# Minimization
# ----------------------------------------------------------------------

def _near(x, bound, tol):
    return abs(x - bound) <= tol


def retrieve(tb_obs, algo, surface, t_e, tau_sca=None, frequency_ghz=L_BAND_GHZ):
    """Invert one observed TbPair under an algorithm configuration.

    Args:
        tb_obs: observed TbPair (finite).
        algo: AlgorithmConfig, typically from load_preset.
        t_e: effective soil temperature in K, finite and positive,
            already resolved from the preset's temperature source.
        tau_sca: opacity from the optical chain, finite and non-negative;
            required for the single-channel kinds (fixed opacity) and RDCA
            (regularizer target).

    Returns:
        RetrievalResult, with tau None for the single-channel kinds,
        whose opacity stays at tau_sca. `converged` is True after two
        accepted steps in a row below SM_TOL/100 and TAU_TOL/100, when
        no damped step lowers the cost any more, or on a corner of the
        box that the gradient points out of; it is False when
        LM_MAX_STEPS Jacobians did not get there. The best point found
        is reported either way.
    """
    if not tb_obs.is_finite():
        raise DomainError(f"observed brightness temperatures must be finite, got {tb_obs}")
    if not 0.0 < t_e < math.inf:
        raise DomainError(f"t_e must be finite and positive, got {t_e}")
    if algo.kind in TAU_SCA_KINDS and tau_sca is None:
        raise DomainError(f"{algo.kind.value} requires tau_sca")
    if tau_sca is not None and not 0.0 <= tau_sca < math.inf:
        raise DomainError(f"tau_sca must be finite and non-negative, got {tau_sca}")
    sm_lo, sm_hi = SM_BOUNDS
    tau_lo, tau_hi = TAU_BOUNDS
    weights = residual_weights(algo)
    w_h, w_v, lam = weights
    fit_tau = algo.kind in DUAL_KINDS
    cos_theta = math.cos(math.radians(surface.incidence_deg))

    omega = algo.omega

    # Coarse seed, profiled in tau where that has a closed form; on the
    # grid, sm varies along rows so the first flat minimum has the
    # smallest sm, then the smallest tau.
    if fit_tau and not (lam or omega):
        sm, tau, evaluations = _profiled_seed(tb_obs, algo, surface, t_e, frequency_ghz)
    else:
        costs, ts = _seed_costs(tb_obs, algo, surface, t_e, tau_sca, frequency_ghz)
        i, j = divmod(int(costs.argmin()), costs.shape[1])
        sm, tau, evaluations = float(_SM_GRID[i]), float(ts[j]), costs.size

    # Box-projected Levenberg-Marquardt on the same residual vector.
    e_pair = emissivity_slope_evaluator(surface.clay_fraction, surface.incidence_deg,
                                        algo.h, algo.dielectric, frequency_ghz)

    def state(sm_trial, tau_trial):
        e_and_slope = e_pair(sm_trial)
        (e_h, e_v), _ = e_and_slope
        g = math.exp(-tau_trial / cos_theta)
        res = residual(tau_omega_tb(e_h, g, omega, t_e), tau_omega_tb(e_v, g, omega, t_e),
                       tau_trial, tb_obs, weights, tau_sca)
        return e_and_slope, g, res, squared_norm(res)

    e_and_slope, g, res, cost = state(sm, tau)
    evaluations += 1
    mu = _LM_MU_START
    converged = False
    small_steps = 0
    for _ in range(LM_MAX_STEPS):
        # tau_omega_tb's partials in e and gamma, chained with the kernel's
        # analytic d e / d sm and with d gamma / d tau = -gamma / cos.
        (e_h, e_v), (de_h, de_v) = e_and_slope
        tb_e_h, tb_g_h = tau_omega_partials(e_h, g, omega, t_e)
        tb_e_v, tb_g_v = tau_omega_partials(e_v, g, omega, t_e)
        gamma_per_tau = -g / cos_theta
        js_h, js_v = w_h * tb_e_h * de_h, w_v * tb_e_v * de_v
        jtau_h, jtau_v = w_h * tb_g_h * gamma_per_tau, w_v * tb_g_v * gamma_per_tau
        a11 = js_h * js_h + js_v * js_v
        a12 = js_h * jtau_h + js_v * jtau_v
        a22 = jtau_h * jtau_h + jtau_v * jtau_v + lam * lam
        grad_sm = js_h * res[0] + js_v * res[1]
        grad_tau = jtau_h * res[0] + jtau_v * res[1] + lam * res[2]

        # Active set: a coordinate on a bound whose descent direction
        # points out of the box stays where it is, and so does one whose
        # Jacobian column is zero (at a large h the emissivity is 1 and its
        # slope underflows to 0; at omega = 0 the tau column is then 0 too).
        free_sm = a11 > 0.0 and not ((sm <= sm_lo and grad_sm > 0.0)
                                     or (sm >= sm_hi and grad_sm < 0.0))
        free_tau = fit_tau and a22 > 0.0 and not ((tau <= tau_lo and grad_tau > 0.0)
                                                  or (tau >= tau_hi and grad_tau < 0.0))
        if not (free_sm or free_tau):
            converged = True
            break

        # Raise the (Marquardt-scaled) damping until the clipped trial
        # point lowers the cost.
        while True:
            d11, d22 = a11 * (1.0 + mu), a22 * (1.0 + mu)
            if free_sm and free_tau:
                det = d11 * d22 - a12 * a12
                step_sm = (a12 * grad_tau - d22 * grad_sm) / det
                step_tau = (a12 * grad_sm - d11 * grad_tau) / det
            elif free_sm:
                step_sm, step_tau = -grad_sm / d11, 0.0
            else:
                step_sm, step_tau = 0.0, -grad_tau / d22
            sm_t = min(max(sm + step_sm, sm_lo), sm_hi)
            tau_t = min(max(tau + step_tau, tau_lo), tau_hi) if free_tau else tau
            e_t, g_t, res_t, cost_t = state(sm_t, tau_t)
            evaluations += 1
            if cost_t < cost or mu > _LM_MU_MAX:
                break
            mu *= _LM_MU_FACTOR
        if not cost_t < cost:
            converged = True   # no damping gives descent
            break

        small = abs(sm_t - sm) <= SM_TOL / 100.0 and abs(tau_t - tau) <= TAU_TOL / 100.0
        small_steps = small_steps + 1 if small else 0
        sm, tau, e_and_slope, g, res, cost = sm_t, tau_t, e_t, g_t, res_t, cost_t
        mu /= _LM_MU_FACTOR
        if small_steps >= 2:
            converged = True
            break

    return RetrievalResult(
        sm=sm, tau=tau if fit_tau else None, cost=cost,
        converged=converged,
        boundary_hit=(_near(sm, sm_lo, SM_TOL) or _near(sm, sm_hi, SM_TOL)
                      or fit_tau and (_near(tau, tau_lo, TAU_TOL)
                                      or _near(tau, tau_hi, TAU_TOL))),
        evaluations=evaluations,
    )


# ----------------------------------------------------------------------
# Presets
# ----------------------------------------------------------------------

PRESET_NAMES = ("DCA0", "DCA1", "DCA2", "RDCA", "SCAH", "SCAV")


def parse_preset(kv, land_cover):
    """The AlgorithmConfig of a preset file's key-value map for one land
    cover, named after the file. h and omega are set for every cover
    (`h`) or per cover (`h.<cover>`, which wins); every value is parsed
    whichever cover is asked for. A preset that cannot serve the cover is
    a ConfigError naming the file and the cover."""
    kind = kv.get_enum("kind", AlgorithmKind)
    t_e_source = kv.get_enum("t_e_source", TempSource)
    dielectric = kv.get_enum("dielectric", DielectricModel)
    lam = kv.get_float("lambda", RDCA_LAMBDA)
    surface = {}
    for field in ("h", "omega"):
        by_cover = {key[len(field) + 1:]: kv.get_float(key)
                    for key in kv.keys() if key.startswith(field + ".")}
        surface[field] = by_cover.get(land_cover, kv.get_float(field))
        if surface[field] is None:
            raise ConfigError(f"{kv.source}: no {field} for land cover {land_cover!r}")
    try:
        return AlgorithmConfig(name=Path(kv.source).stem, kind=kind, t_e_source=t_e_source,
                               dielectric=dielectric, lam=lam, **surface)
    except ConfigError as exc:
        raise ConfigError(f"{kv.source}: land cover {land_cover!r}: {exc}") from None


def read_preset(name_or_path):
    """The key-value map of a shipped preset by name or of a user preset
    file by path."""
    name = str(name_or_path)
    if name in PRESET_NAMES:
        text = read_package_text(f"presets/{name}.cfg")
        return parse_kv_text(text, source=f"{name}.cfg")
    path = Path(name_or_path)
    if not path.is_file():
        raise ConfigError(
            f"unknown preset {name!r}: not a shipped name {PRESET_NAMES} and not a file")
    return read_kv_file(path)


def load_preset(name_or_path, land_cover):
    """A shipped or user preset as it applies to one land cover."""
    return parse_preset(read_preset(name_or_path), land_cover)
