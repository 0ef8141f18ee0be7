"""Model-parameter catalog and well-posedness validators.

The market has one bank account and one risky asset whose dynamics are
modulated by an observable finite-state chain (label e) and a CIR-type
stochastic factor X:

    dP0 = P0 r(e) dt
    dP1 = P1 [ (r(e) + lam_hat(e) X) dt + nu(e) sqrt(X) dW_P ]
    dX  = kappa(e) (theta(e) - X) dt + chi(e) sqrt(X) dW_X
    d<W_P, W_X> = rho dt

with power utility U(v) = v**delta / delta, delta < 1, delta != 0.

Three variants are supported:

* ``MMH``      - every coefficient may switch with the regime; lam_hat
                 is given per state.
* ``SMMH``     - separable special case: kappa, chi and the market-price
                 slope d (lam_hat = d * nu) are regime independent and
                 rho = 0.
* ``SMMH_RHO`` - the separable case with leverage (rho != 0 allowed).

SMMH is SMMH_RHO at rho = 0, so the solvers distinguish only MMH from
the separable variants.  Every exponent (the composed A/B of any
variant and the separable D) is the same CIR closed form evaluated on
the tilted parameters that ``exponent_params`` maps out of
HestonRegimeParams.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import AssumptionViolated

__all__ = [
    "Variant",
    "HestonRegimeParams",
    "ExponentParams",
    "CheckResult",
    "ValidationReport",
    "exponent_params",
    "validate_feller",
    "validate_solution_assumptions",
]


class Variant(str, Enum):
    MMH = "mmh"
    SMMH = "smmh"
    SMMH_RHO = "smmh_rho"


def _per_state(name: str, value, l: int) -> np.ndarray:
    arr = np.atleast_1d(np.array(value, dtype=float, copy=True))
    if arr.size == 1:
        arr = np.full(l, float(arr[0]))
    if arr.shape != (l,):
        raise ValueError(f"{name} must be scalar or length {l}, got shape {arr.shape}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class HestonRegimeParams:
    """Per-regime Heston parameters plus the utility power delta and horizon.

    ``kappa``, ``theta``, ``chi``, ``r``, ``nu`` are per-state tables
    (scalars broadcast).  The excess-return slope is ``lam_hat`` per
    state for MMH, or the single market-price slope ``d`` for the
    separable variants (there lam_hat(e) = d * nu(e)).

    Every parameter must be finite; a non-finite one raises ValueError
    naming it.  delta must satisfy delta < 1, delta != 0: log utility
    (delta = 0) is rejected, with no limiting case implemented.  chi = 0
    is allowed here (a deterministic factor, which ``simulate_paths``
    handles); the closed forms need chi > 0, and
    ``validate_solution_assumptions`` fails ``factor_noise_positive``
    without it.
    """

    variant: Variant
    horizon: float
    delta: float
    rho: float
    r: np.ndarray
    nu: np.ndarray
    kappa: np.ndarray
    theta: np.ndarray
    chi: np.ndarray
    lam_hat: np.ndarray | None = None
    d: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "variant", Variant(self.variant))
        l = np.atleast_1d(np.asarray(self.nu)).size
        for name in ("r", "nu", "kappa", "theta", "chi"):
            object.__setattr__(self, name, _per_state(name, getattr(self, name), l))
        for name in ("horizon", "delta", "d", "r", "nu", "kappa", "theta", "chi", "lam_hat"):
            value = getattr(self, name)
            if value is not None and not np.all(np.isfinite(value)):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.delta < 1 or self.delta == 0:
            raise ValueError(f"delta must satisfy delta < 1 and delta != 0, got {self.delta}")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError(f"rho must lie in [-1, 1], got {self.rho}")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if np.any(self.kappa <= 0) or np.any(self.theta <= 0):
            raise ValueError("kappa and theta must be strictly positive in every state")
        if np.any(self.chi < 0) or np.any(self.nu <= 0):
            raise ValueError("chi must be nonnegative and nu strictly positive")
        if self.variant is Variant.MMH:
            if self.lam_hat is None:
                raise ValueError("MMH requires per-state lam_hat")
            object.__setattr__(self, "lam_hat", _per_state("lam_hat", self.lam_hat, l))
            if self.d is not None:
                raise ValueError("MMH takes lam_hat, not d")
        else:
            if self.d is None or self.lam_hat is not None:
                raise ValueError(f"{self.variant.value} requires the scalar slope d")
            if np.any(self.kappa != self.kappa[0]) or np.any(self.chi != self.chi[0]):
                raise ValueError("separable variants need state-independent kappa and chi")
            if self.variant is Variant.SMMH and self.rho != 0.0:
                raise ValueError("SMMH requires rho = 0")

    @property
    def n_states(self) -> int:
        return self.nu.size

    @property
    def delta_ratio(self) -> float:
        """delta / (1 - delta), the risk-aversion tilt."""
        return self.delta / (1.0 - self.delta)

    @property
    def vartheta(self) -> float:
        """Distortion power (1-delta)/(1-delta+delta*rho**2); exactly 1 when rho = 0."""
        if self.rho == 0.0:
            return 1.0
        return (1.0 - self.delta) / (1.0 - self.delta + self.delta * self.rho**2)

    @property
    def excess_slope(self) -> np.ndarray:
        """lam_hat(e): excess return of the asset per unit of X."""
        if self.variant is Variant.MMH:
            return self.lam_hat
        return self.d * self.nu

    @property
    def price_of_risk_slope(self) -> np.ndarray:
        """lam_hat(e)/nu(e): market price of risk per sqrt(X)."""
        return self.excess_slope / self.nu


class ExponentParams(NamedTuple):
    """Per-state CIR parameters of the exponent ODEs (see ``exponent_params``)."""

    kappa: np.ndarray
    theta: np.ndarray
    beta: np.ndarray


@lru_cache(maxsize=32)
def exponent_params(p: HestonRegimeParams) -> ExponentParams:
    """Map model parameters onto the CIR closed form the exponents solve.

    Per state, with the signed market price of risk slope s = lam_hat/nu:

        kappa_t = kappa - (delta/(1-delta)) rho chi s   (tilted rate)
        theta_t = kappa theta / kappa_t                  (so kappa_t theta_t = kappa theta)
        beta    = (delta/(1-delta)) s^2 / (2 vt)

    and alpha = 0 at the horizon.  The composed A/B of every variant use
    these per segment; the separable exponent is D = vt B.  theta_t is
    meaningless where kappa_t <= 0, which the solvability check reports.

    Parameter sets are immutable and hash by identity, so the result is
    cached per set; its arrays are read-only.
    """
    ratio = p.delta_ratio
    vt = p.vartheta
    slope = p.price_of_risk_slope
    kt = p.kappa - ratio * p.rho * p.chi * slope
    tt = p.kappa * p.theta / kt
    beta = ratio * slope**2 / (2.0 * vt)
    for arr in (kt, tt, beta):
        arr.setflags(write=False)
    return ExponentParams(kappa=kt, theta=tt, beta=beta)


@dataclass(frozen=True)
class CheckResult:
    name: str
    state: int | None
    passed: bool
    lhs: float
    rhs: float
    relation: str = "<"

    def describe(self) -> str:
        where = f" state {self.state}" if self.state is not None else ""
        status = "pass" if self.passed else "FAIL"
        return f"{self.name}{where}: {self.lhs:.6g} {self.relation} {self.rhs:.6g} [{status}]"


@dataclass(frozen=True)
class ValidationReport:
    """Deterministic, order-stable list of per-check outcomes."""

    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)

    def raise_if_failed(self, exc_type=AssumptionViolated) -> "ValidationReport":
        if not self.ok:
            raise exc_type("; ".join(c.describe() for c in self.failures))
        return self


def validate_feller(p: HestonRegimeParams) -> ValidationReport:
    """Per-state check of 2*kappa*theta >= chi**2 (non-strict).

    Call ``.raise_if_failed(FellerViolated)`` to turn failures into an
    exception listing the failing states.
    """
    checks = tuple(
        CheckResult(
            name="feller",
            state=e + 1,
            passed=bool(2.0 * p.kappa[e] * p.theta[e] >= p.chi[e] ** 2),
            lhs=float(2.0 * p.kappa[e] * p.theta[e]),
            rhs=float(p.chi[e] ** 2),
            relation=">=",
        )
        for e in range(p.n_states)
    )
    return ValidationReport(checks=checks)


def validate_solution_assumptions(p: HestonRegimeParams) -> ValidationReport:
    """Solvability conditions guaranteeing the closed-form exponents exist.

    Every variant needs chi > 0 in every state (``factor_noise_positive``);
    the bounds below divide by chi and are skipped where it is zero.
    With the tilted rate kt and beta of ``exponent_params``:

    MMH: per state, kt > 0 and beta < kt^2/(2 chi^2), and
    max_e (kt - at)/chi^2 <= min_e (kt + at)/chi^2 with
    at = sqrt(kt^2 - 2 beta chi^2), so the backward recursion never
    leaves the admissible strip.

    Separable variants: kt > 0 and (delta/(1-delta)) d^2 < vt kt^2/chi^2,
    which is beta < kt^2/(2 chi^2) scaled by 2 vt (at rho = 0: kt = kappa,
    vt = 1).
    """
    ep = exponent_params(p)
    kt, beta, vt = ep.kappa, ep.beta, p.vartheta
    chi = p.chi
    checks = [
        CheckResult("factor_noise_positive", e + 1, bool(chi[e] > 0.0), 0.0, float(chi[e]))
        for e in range(p.n_states)
    ]
    if p.variant is Variant.MMH:
        for e in range(p.n_states):
            checks.append(
                CheckResult(
                    "tilted_rate_positive", e + 1, bool(kt[e] > 0.0), 0.0, float(kt[e])
                )
            )
            if chi[e] > 0.0:
                bound = kt[e] ** 2 / (2.0 * chi[e] ** 2)
                checks.append(
                    CheckResult(
                        "riccati_constant_bound", e + 1, bool(beta[e] < bound), float(beta[e]), float(bound)
                    )
                )
        if all(c.passed for c in checks):
            at = np.sqrt(kt**2 - 2.0 * beta * chi**2)
            lo = np.max((kt - at) / chi**2)
            hi = np.min((kt + at) / chi**2)
            checks.append(
                CheckResult("state_bound_compatible", None, bool(lo <= hi), float(lo), float(hi), "<=")
            )
    else:
        checks.append(CheckResult("tilted_rate_positive", None, bool(kt[0] > 0.0), 0.0, float(kt[0])))
        if chi[0] > 0.0:
            bound = kt[0] ** 2 / (2.0 * chi[0] ** 2)
            checks.append(
                CheckResult(
                    "excess_slope_bound",
                    None,
                    bool(beta[0] < bound),
                    float(2.0 * vt * beta[0]),
                    float(2.0 * vt * bound),
                )
            )
    return ValidationReport(checks=tuple(checks))
