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
from typing import ClassVar, Optional

from .errors import (
    InvalidGapError,
    InvalidRingError,
    InvalidTemperatureError,
    InvalidThetaError,
    ValidationError,
    require_finite,
)
from .otto import TwoLevelMedium

__all__ = [
    "PhysicalConstants",
    "CODATA",
    "QuantumRing",
    "RingOttoSetup",
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


@dataclass(frozen=True)
class QuantumRing:
    """Spinless electron on a one-dimensional ring of the given radius.

    Only the two lowest angular-momentum states enter the cycle; their
    quantum numbers are fixed class-wide.  ``effective_mass`` of ``None``
    defers to the electron mass of whatever constants are supplied.
    """

    radius: float
    effective_mass: Optional[float] = None

    M_GROUND: ClassVar[int] = 1
    M_EXCITED: ClassVar[int] = 2

    def __post_init__(self) -> None:
        require_finite("radius", self.radius, InvalidRingError, 0.0)
        if self.effective_mass is not None:
            require_finite(
                "effective_mass", self.effective_mass, InvalidRingError, 0.0
            )


def ring_levels(
    ring: QuantumRing, constants: PhysicalConstants = CODATA
) -> tuple[float, float]:
    """Ground and excited ring eigenvalues ``hbar^2 m^2 / (2 mass r^2)``.

    With quantum numbers 1 and 2, the excited level is exactly four times the
    ground level at every radius, so the gap is three times the ground level.
    """
    mass = (
        constants.electron_mass
        if ring.effective_mass is None
        else ring.effective_mass
    )
    require_finite(f"2 * mass * radius**2 at radius {ring.radius!r}",
                   2.0 * mass * (ring.radius * ring.radius), InvalidRingError, 0.0)
    return _ring_levels(ring.radius, mass, constants)


def _ring_levels(radius, mass: float, constants: PhysicalConstants):
    """Ground and excited levels ``hbar^2 m^2 / (2 mass r^2)`` at
    ``m = M_GROUND, M_EXCITED``; elementwise on arrays of radii."""
    m_ground, m_excited = QuantumRing.M_GROUND, QuantumRing.M_EXCITED
    ground = m_ground**2 * constants.hbar**2 / (2.0 * mass * (radius * radius))
    return ground, (m_excited / m_ground) ** 2 * ground


@dataclass(frozen=True)
class RingOttoSetup:
    """Full parameter set of a ring-based Otto cycle.

    ``r_low`` is the radius in the small-gap configuration and ``r_high`` the
    radius in the large-gap configuration, so the compression ratio
    ``rho = r_low / r_high`` satisfies ``alpha_sq = rho**2`` (the naming
    follows the gaps, not which radius is larger).
    """

    r_low: float
    r_high: float
    t_low: float
    theta_sq: float

    def __post_init__(self) -> None:
        require_finite("r_low", self.r_low, InvalidRingError, 0.0)
        require_finite("r_high", self.r_high, InvalidRingError, 0.0)
        require_finite("t_low", self.t_low, InvalidTemperatureError, 0.0)
        require_finite("theta_sq", self.theta_sq, InvalidThetaError, 1.0)

    @property
    def rho(self) -> float:
        """Compression ratio ``r_low / r_high``."""
        return self.r_low / self.r_high


def ring_medium(
    setup: RingOttoSetup, constants: PhysicalConstants = CODATA
) -> TwoLevelMedium:
    """Two-level medium of a ring Otto cycle, one configuration per radius."""
    return TwoLevelMedium(
        low_config=ring_levels(QuantumRing(setup.r_low), constants),
        high_config=ring_levels(QuantumRing(setup.r_high), constants),
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
