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
``x`` underflows to 0, which the sweep reports as a unit mismatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import (
    DegenerateMediumError,
    InvalidTemperatureError,
    InvalidThetaError,
    OccupationMismatchError,
    SpectrumMismatchError,
    ValidationError,
    require_finite,
)
from .regions import ExchangeTriple

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

    def __len__(self) -> int:
        return len(self.levels)

    def __iter__(self) -> Iterator[float]:
        return iter(self.levels)

    def __getitem__(self, index: int) -> float:
        return self.levels[index]


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
        for name, (e_g, e_e) in (
            ("low_config", self.low_config),
            ("high_config", self.high_config),
        ):
            require_finite(name, e_g, ValidationError)
            require_finite(name, e_e, ValidationError)
            if e_e - e_g <= 0.0:
                raise DegenerateMediumError(
                    f"{name} gap must be positive, got {(e_g, e_e)!r}"
                )

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
    ``x``, after checking its temperatures; elementwise over gap arrays."""
    require_finite("t_low", t_low, InvalidTemperatureError, 0.0)
    require_finite("theta_sq", theta_sq, InvalidThetaError, 1.0)
    require_finite("boltzmann_k", boltzmann_k, ValidationError, 0.0)
    require_finite("temperature", theta_sq * t_low, InvalidTemperatureError, 0.0)
    require_finite("k_B * t_low", boltzmann_k * t_low, ValidationError, 0.0)
    b_low = gap_low / (boltzmann_k * t_low)
    b_high = gap_high / (boltzmann_k * (theta_sq * t_low))
    d = b_low - b_high
    w_low, w_high = np.exp(-b_low), np.exp(-b_high)
    x = (np.sign(d) * np.maximum(w_low, w_high) * -np.expm1(-abs(d))
         / ((1.0 + w_high) * (1.0 + w_low)))
    return gap_high * x, -gap_low * x


def otto_cycle_energies(
    medium: TwoLevelMedium,
    t_low: float,
    theta_sq: float,
    boltzmann_k: float,
) -> ExchangeTriple:
    """Per-cycle reservoir exchanges of a two-level Otto cycle: the hot
    stroke thermalizes the high gap at ``t_high = theta_sq * t_low``, the cold
    stroke the low gap at ``t_low``; each exchange is its gap times ``x``."""
    return ExchangeTriple(*map(float, _exchanges(
        medium.gap_low, medium.gap_high, t_low, theta_sq, boltzmann_k)))


def multilevel_exchange(
    spectrum: LevelSpectrum,
    t_start: float,
    t_end: float,
    boltzmann_k: float,
) -> float:
    """Energy absorbed during a reservoir-contact stroke (released if < 0).

    The stroke keeps ``spectrum`` fixed while the occupations rethermalize
    from ``t_start`` to ``t_end``, so the exchange is the eigenvalue-weighted
    occupation difference between the endpoints.
    """
    p_start = occupation(spectrum, t_start, boltzmann_k)
    p_end = occupation(spectrum, t_end, boltzmann_k)
    return float(np.dot(np.asarray(spectrum.levels, dtype=float), p_end - p_start))


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
    if len(start) != len(end):
        raise SpectrumMismatchError(
            f"spectra must have equal length, got {len(start)} and {len(end)}"
        )
    p = np.asarray(occupations, dtype=float)
    if p.shape != (len(start),):
        raise OccupationMismatchError(
            f"occupations must match the spectrum length {len(start)}, "
            f"got shape {p.shape}"
        )
    shift = np.asarray(end.levels, dtype=float) - np.asarray(start.levels, dtype=float)
    return float(np.dot(p, shift))
