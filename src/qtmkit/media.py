"""Working-medium constructors and physical constants.

Two media are provided: the spinless electron on a one-dimensional ring,
whose eigenvalues scale as (quantum number)^2 / radius^2 with the quantum
number fixed to 1 (ground) and 2 (excited), and a generic medium built from
an explicit gap and gap ratio.  Ring energies come out in joules for SI
constants; reduced units (hbar = k_B = m_e = 1) are available for exact
arithmetic in tests.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    InvalidGapError,
    InvalidRingError,
    ValidationError,
    require_finite,
)
from .otto import TwoLevelMedium

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "ring_levels",
    "ring_medium",
    "gap_medium",
]


@dataclass(frozen=True)
class PhysicalConstants:
    """Constants entering the ring spectrum and Boltzmann weights.

    Defaults are the CODATA 2018 recommended values (SI).
    """

    hbar: float = 1.054571817e-34  # J s
    boltzmann_k: float = 1.380649e-23  # J / K
    electron_mass: float = 9.1093837015e-31  # kg

    def __post_init__(self) -> None:
        for name in ("hbar", "boltzmann_k", "electron_mass"):
            require_finite(name, getattr(self, name), ValidationError, 0.0)

    @classmethod
    def reduced(cls) -> "PhysicalConstants":
        """Reduced-unit constants: hbar = k_B = m_e = 1."""
        return cls(hbar=1.0, boltzmann_k=1.0, electron_mass=1.0)


#: CODATA 2018 SI constants, the package-wide default.
CODATA = PhysicalConstants()


def ring_levels(
    radius: float, constants: PhysicalConstants = CODATA
) -> tuple[float, float]:
    """Ground and excited eigenvalues of a spinless particle of mass
    ``constants.electron_mass`` on a ring of the given radius.

    The quantum numbers are 1 and 2, so the excited level is exactly four
    times the ground level at every radius and the gap is three times the
    ground level.  An effective-mass ring is
    ``replace(constants, electron_mass=m_eff)``.
    """
    require_finite("radius", radius, InvalidRingError, 0.0)
    require_finite(f"2 * mass * radius**2 at radius {radius!r}",
                   2.0 * constants.electron_mass * (radius * radius),
                   InvalidRingError, 0.0)
    return _ring_levels(radius, constants)


def _ring_levels(radius, constants: PhysicalConstants):
    """Ground and excited levels ``hbar^2 m^2 / (2 mass r^2)`` at ``m = 1, 2``;
    elementwise on arrays of radii."""
    ground = constants.hbar**2 / (2.0 * constants.electron_mass * (radius * radius))
    return ground, 4.0 * ground


def ring_medium(
    r_low: float, r_high: float, constants: PhysicalConstants = CODATA
) -> TwoLevelMedium:
    """Two-level medium of a ring Otto cycle, one configuration per radius.

    ``r_low`` is the radius in the small-gap configuration and ``r_high`` the
    radius in the large-gap configuration, so the compression ratio
    ``rho = r_low / r_high`` satisfies ``alpha_sq = rho**2`` (the naming
    follows the gaps, not which radius is larger).
    """
    return TwoLevelMedium(
        low_config=ring_levels(r_low, constants),
        high_config=ring_levels(r_high, constants),
    )


def gap_medium(
    gap_low: float,
    alpha_sq: float,
    e_ground_low: float = 0.0,
    e_ground_high: float = 0.0,
) -> TwoLevelMedium:
    """Generic two-level medium from an explicit gap and gap ratio.

    Ground offsets shift whole configurations without touching the gaps; the
    reservoir exchanges of the resulting Otto cycle depend on the gaps only.
    """
    require_finite("gap_low", gap_low, InvalidGapError, 0.0)
    require_finite("alpha_sq", alpha_sq, InvalidGapError, 0.0)
    require_finite("e_ground_low", e_ground_low, InvalidGapError)
    require_finite("e_ground_high", e_ground_high, InvalidGapError)
    return TwoLevelMedium(
        low_config=(e_ground_low, e_ground_low + gap_low),
        high_config=(e_ground_high, e_ground_high + alpha_sq * gap_low),
    )
