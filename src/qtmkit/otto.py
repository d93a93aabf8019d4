"""Canonical-ensemble statistics and quasi-static Otto-cycle energetics.

The cycle alternates two reservoir-contact strokes (levels fixed, occupations
rethermalize) with two isolation strokes (occupations frozen, levels move).
All strokes are treated quasi-statically, so every exchanged energy reduces
to an endpoint difference:

* reservoir stroke:  sum_n E_n * (P_n(end) - P_n(start))
* isolation stroke:  sum_n P_n * (E_n(end) - E_n(start))

Both are the working medium's internal-energy change over the stroke; for a
reservoir stroke that is also the signed reservoir exchange (absorbed
positive), while the outside exchange of an isolation stroke is its negative.

For a two-level medium the full cycle collapses to closed form: with
``x = P_excited(high gap, t_high) - P_excited(low gap, t_low)``,

    e_high_gamma = +gap_high * x
    e_low_gamma  = -gap_low  * x
    e_out        = e_high_gamma + e_low_gamma

so the reservoir exchanges always satisfy
``e_high_gamma / e_low_gamma = -gap_high / gap_low``.

Subtracting the two occupations cancels near the reversible ratio
``gap_high / gap_low = theta_sq`` at high temperature, so with
``b = gap / (k_B T)``, ``w = exp(-b)`` and ``d = b_low - b_high`` the code
evaluates

    x = sign(d) * max(w_low, w_high) * (-expm1(-|d|))
        / ((1 + w_high) * (1 + w_low))

which cannot overflow and takes no difference but ``d``.  In deep freeze-out
``x`` underflows to 0, which :func:`otto_cycle_energies` reports, also for a
sweep, as a unit mismatch away from the reversible ratio.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DegenerateExchangeError,
    DegenerateMediumError,
    InvalidTemperatureError,
    InvalidThetaError,
    ValidationError,
    require_finite,
)
from .regions import ExchangeTriple, _unchecked, in_boundary_band

__all__ = [
    "LevelSpectrum",
    "TwoLevelMedium",
    "occupation",
    "otto_cycle_energies",
    "multilevel_exchange",
    "work_exchange",
]


@dataclass(frozen=True)
class LevelSpectrum:
    """Strictly increasing energy eigenvalues of a working medium (>= 2)."""

    levels: tuple[float, ...]

    def __post_init__(self) -> None:
        if len(self.levels) < 2:
            raise DegenerateMediumError(
                f"a spectrum needs at least two levels, got {len(self.levels)}"
            )
        for level in self.levels:
            require_finite("level", level, ValidationError)
        if any(b <= a for a, b in zip(self.levels, self.levels[1:])):
            raise DegenerateMediumError(
                f"levels must be strictly increasing, got {self.levels!r}"
            )


@dataclass(frozen=True)
class TwoLevelMedium:
    """Two-level medium in its two dimensional configurations.

    ``low_config`` and ``high_config`` are (ground, excited) eigenvalue pairs
    whose gaps are the small and large level separations of the cycle.  Their
    ratio is the energy ratio ``alpha_sq`` the whole framework runs on.
    """

    low_config: tuple[float, float]
    high_config: tuple[float, float]

    def __post_init__(self) -> None:
        for name, config in (
            ("low_config", self.low_config),
            ("high_config", self.high_config),
        ):
            try:
                e_g, e_e = config
            except (TypeError, ValueError):
                raise DegenerateMediumError(
                    f"{name} must be a (ground, excited) pair, got {config!r}"
                ) from None
            require_finite(name, e_g, ValidationError)
            require_finite(name, e_e, ValidationError)
            if not 0.0 < e_e - e_g <= sys.float_info.max:  # an int gap may pass inf
                what = "finite" if e_e > e_g else "positive"
                raise DegenerateMediumError(
                    f"{name} gap must be {what}, got {(e_g, e_e)!r}")

    @property
    def gap_low(self) -> float:
        return self.low_config[1] - self.low_config[0]

    @property
    def gap_high(self) -> float:
        return self.high_config[1] - self.high_config[0]

    @property
    def alpha_sq(self) -> float:
        """Gap ratio ``gap_high / gap_low``."""
        return self.gap_high / self.gap_low


def occupation(
    spectrum: LevelSpectrum, temperature: float, boltzmann_k: float
) -> np.ndarray:
    """Canonical occupation probabilities of every level.

    Boltzmann weights are formed after shifting all eigenvalues by the ground
    energy, so the largest weight is exactly one and deep-gap/low-temperature
    inputs underflow gracefully instead of overflowing.

    Parameters
    ----------
    spectrum : LevelSpectrum
        Energy eigenvalues, ascending.
    temperature : float
        Absolute temperature, > 0.
    boltzmann_k : float
        Boltzmann constant in units matching the eigenvalues (1 in reduced
        units).

    Returns
    -------
    numpy.ndarray
        Probabilities summing to one, non-increasing with level energy.
    """
    require_finite("temperature", temperature, InvalidTemperatureError, 0.0)
    require_finite("boltzmann_k", boltzmann_k, ValidationError, 0.0)
    levels = np.asarray(spectrum.levels, dtype=float)
    weights = np.exp(-(levels - levels[0]) / (boltzmann_k * temperature))
    return weights / weights.sum()


def _exchanges(gap_low, gap_high, t_low, theta_sq, boltzmann_k):
    """``(e_high_gamma, e_low_gamma)`` of the cycle, by the module docstring's
    ``x``, of its checked temperatures as floats; elementwise over gap arrays."""
    require_finite("t_low", t_low, InvalidTemperatureError, 0.0)
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    require_finite("boltzmann_k", boltzmann_k, ValidationError, 0.0)
    t_low, theta_sq, boltzmann_k = float(t_low), float(theta_sq), float(boltzmann_k)
    require_finite("temperature", theta_sq * t_low, InvalidTemperatureError, 0.0)
    require_finite("k_B * t_low", boltzmann_k * t_low, ValidationError, 0.0)
    b_low = gap_low / (boltzmann_k * t_low)
    b_high = gap_high / (boltzmann_k * (theta_sq * t_low))
    d = b_low - b_high
    w_low, w_high = np.exp(-b_low), np.exp(-b_high)
    # Exact max(w_low, w_high) of weights >= +0; np.maximum is slow on scalars.
    x = (np.sign(d) * (w_high * (d > 0.0) + w_low * (d <= 0.0))
         * -np.expm1(-abs(d)) / ((1.0 + w_high) * (1.0 + w_low)))
    return gap_high * x, -gap_low * x


def otto_cycle_energies(
    medium: TwoLevelMedium,
    t_low: float,
    theta_sq: float,
    boltzmann_k: float,
) -> ExchangeTriple:
    """Per-cycle reservoir exchanges of a two-level Otto cycle: the hot
    stroke thermalizes the high gap at ``t_high = theta_sq * t_low``, the cold
    stroke the low gap at ``t_low``; each exchange is its gap times ``x``.
    Exchanges that vanished off the ``theta_sq`` band, or are NaN, raise the
    unit-mismatch error, worded here only: a sweep raises it for its first
    frozen-out point through this function, with that point's rho in front."""
    e_high, e_low = map(float, _exchanges(
        medium.gap_low, medium.gap_high, t_low, theta_sq, boltzmann_k))
    # NaN: both Boltzmann exponents overflowed; 0: the occupations froze out.
    if e_high != e_high or not (e_high and e_low) and not in_boundary_band(
            medium.alpha_sq, theta_sq):
        b_low = medium.gap_low / (boltzmann_k * t_low)
        b_high = medium.gap_high / (boltzmann_k * (theta_sq * t_low))
        why = ("gap / (k_B * t_low) overflowed the largest double, about 1.8e308, "
               "in both" if e_high != e_high else "an exchange, about gap * "
               "exp(-min(b_low, b_high)), fell below the smallest double, about "
               "exp(-745)")
        raise DegenerateExchangeError(
            f"cycle energies vanished: the gaps {medium.gap_low!r} and "
            f"{medium.gap_high!r} are enormous compared to k_B * t_low = "
            f"{boltzmann_k * t_low!r}, with Boltzmann exponents b_low = {b_low:.4g} "
            f"and b_high = {b_high:.4g}: {why} (check units and constants)")
    # Finite: each is a finite gap times |x| <= 1, and NaN was caught above.
    return _unchecked(ExchangeTriple, e_high=e_high, e_low=e_low)


def multilevel_exchange(
    spectrum: LevelSpectrum,
    t_start: float,
    t_end: float,
    boltzmann_k: float,
) -> float:
    """Energy absorbed during a reservoir-contact stroke (released if < 0).

    The stroke keeps ``spectrum`` fixed while the occupations rethermalize
    from ``t_start`` to ``t_end``.  From the occupations ``p`` at the hotter
    end, the colder end holds ``p_n (1 + q_n) / (1 + S)``, with ``S = sum(p q)``
    and ``q_n = expm1(eta (E_n - E_0))``, ``eta = (1/t_hot - 1/t_cold)/k_B``
    taken without its cancellation: the exchange is one shift, not the
    difference of two rounded occupation vectors.
    """
    require_finite("temperature", t_start, InvalidTemperatureError, 0.0)
    require_finite("boltzmann_k", boltzmann_k, ValidationError, 0.0)
    require_finite("temperature", t_end, InvalidTemperatureError, 0.0)
    t_hot, t_cold = max(t_start, t_end), min(t_start, t_end)
    p = occupation(spectrum, t_hot, boltzmann_k)
    eps = np.asarray(spectrum.levels, dtype=float) - spectrum.levels[0]
    q = np.expm1(-eps / (boltzmann_k * t_cold) * ((t_hot - t_cold) / t_hot))
    s = float(np.dot(p, q))
    heat = float(np.dot(eps * p, q - s)) / (1.0 + s)
    return heat if t_end < t_start else -heat


def work_exchange(
    start: LevelSpectrum,
    end: LevelSpectrum,
    occupations: Sequence[float],
) -> float:
    """Medium-side energy change of an isolation stroke.

    The levels move from ``start`` to ``end`` with ``occupations`` frozen, so
    the change is the occupation-weighted shift of each eigenvalue.  A
    positive value means the medium gained energy from the outside; the
    outside-exchange contribution of the stroke is the negative of this value.
    """
    n = len(start.levels)
    if n != len(end.levels):
        raise ValidationError(
            f"spectra must have equal length, got {n} and {len(end.levels)}"
        )
    p = np.asarray(occupations, dtype=float)
    if p.shape != (n,):
        raise ValidationError(
            f"occupations must match the spectrum length {n}, "
            f"got shape {p.shape}"
        )
    shift = np.asarray(end.levels, dtype=float) - np.asarray(start.levels, dtype=float)
    return float(np.dot(p, shift))
