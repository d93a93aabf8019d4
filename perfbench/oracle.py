"""Independent oracle and output checker for the qtmkit benchmark.

Nothing here imports qtmkit.  The facts the checker needs are written down
again from the paper:

* the cycle energies come from a 50-digit ``mpmath`` evaluation of the
  two-level Otto exponential closed form;
* the region follows from the gap ratio alone, because for a two-level
  medium ``sign(x) = sign(theta_sq - alpha_sq)``; the relative boundary band
  (1e-9) is the documented classifier default;
* each design's efficiency is its target exchange over its source exchange,
  evaluated on exchanges with the region's sign pattern.

Outputs are checked as columns (numpy arrays named like the sweep CSV
columns), so a 1e5-point sweep and a pool of scalar queries go through the
same code.  :func:`problems` returns one failure kind per row, ``""`` for a
correct row.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np

DIGITS = 50

#: Relative half-width of the boundary band (the classifier's default).
BAND_TOL = 1e-9

#: Relative tolerance of energies and efficiencies, multiplied by
#: ``1 + condition number`` of the quantity at the point.  A correct float64
#: evaluation sits near 1e-15 times the condition number; CSV output at 12
#: significant digits adds 5e-13.
REL_TOL = 1e-9

# CODATA 2018 values (SI).
HBAR = "1.054571817e-34"
BOLTZMANN_K = "1.380649e-23"
ELECTRON_MASS = "9.1093837015e-31"

REGIONS = ("TwoAcquirersOut", "TwoAcquirersHigh", "OutTransfers", "Pumpers")
BOUNDARIES = ("Boundary2AcqSubregions", "Boundary2AcqOutT", "BoundaryOutTPump")

#: design -> (region, target exchange, source exchange), in presentation order
DESIGNS = {
    "QCO": ("TwoAcquirersOut", "absorb_high", "receive_outside"),
    "QHT": ("TwoAcquirersOut", "release_low", "receive_outside"),
    "QDP": ("TwoAcquirersHigh", "receive_outside", "absorb_high"),
    "QHO": ("TwoAcquirersHigh", "release_low", "absorb_high"),
    "QEN": ("OutTransfers", "generate_outside", "absorb_high"),
    "QLL": ("OutTransfers", "release_low", "absorb_high"),
    "QRE": ("Pumpers", "absorb_low", "receive_outside"),
    "QHP": ("Pumpers", "release_high", "receive_outside"),
}

#: Columns of a checked table; design columns hold "" / nan when empty.
COLUMNS = (
    "alpha_sq", "e_high", "e_low", "e_out", "region",
    "design1", "eff1", "design2", "eff2", "carnot1", "carnot2",
)


def analytic_regions(alpha_sq, theta_sq) -> np.ndarray:
    """Region of a two-level Otto cycle from its gap ratio alone."""
    a = np.asarray(alpha_sq, dtype=float)
    th = np.broadcast_to(np.asarray(theta_sq, dtype=float), a.shape)
    band = BAND_TOL * a
    conditions = [
        np.abs(a - 1.0 / th) <= band,
        np.abs(a - 1.0) <= band,
        np.abs(a - th) <= band,
        a < 1.0 / th,
        a < 1.0,
        a < th,
    ]
    choices = list(BOUNDARIES) + list(REGIONS[:3])
    return np.select(conditions, choices, default=REGIONS[3]).astype(object)


def design_interval(design: str, theta_sq: float) -> tuple[float, float]:
    """Admissible open alpha_sq interval of a design (its region's)."""
    edges = (0.0, 1.0 / theta_sq, 1.0, theta_sq, math.inf)
    i = REGIONS.index(DESIGNS[design][0])
    return edges[i], edges[i + 1]


def _exchange(role: str, e_high, e_low):
    return {
        "absorb_high": lambda: e_high,
        "release_high": lambda: -e_high,
        "absorb_low": lambda: e_low,
        "release_low": lambda: -e_low,
        "generate_outside": lambda: e_high + e_low,
        "receive_outside": lambda: -(e_high + e_low),
    }[role]()


def design_efficiency(design: str, alpha_sq):
    """Target over source exchange at energy ratio ``alpha_sq`` (elementwise)."""
    region, target, source = DESIGNS[design]
    a = np.asarray(alpha_sq, dtype=float)
    # Forward orientation (absorb hot, release cold) below theta_sq,
    # reversed in the Pumpers region; only the ratio matters.
    sign = -1.0 if region == "Pumpers" else 1.0
    e_high, e_low = sign * a, np.full_like(a, -sign)
    return _exchange(target, e_high, e_low) / _exchange(source, e_high, e_low)


def carnot_efficiency(design: str, theta_sq):
    """Efficiency at the design's reversible ratio."""
    th = np.asarray(theta_sq, dtype=float)
    low = DESIGNS[design][0].startswith("TwoAcquirers")
    return design_efficiency(design, 1.0 / th if low else th)


def energy_condition(alpha_sq: float, theta_sq: float) -> float:
    """Relative condition number of the cycle energies w.r.t. the gap ratio."""
    gap = abs(theta_sq - alpha_sq)
    return math.inf if gap == 0.0 else 1.0 + alpha_sq / gap


def _closed_form(low, high, beta, theta_sq):
    """Exponential closed form of ``(e_high, e_low)``; mpmath arguments."""
    (l_g, l_e), (h_g, h_e) = low, high
    bh = beta / theta_sq
    num = mp.exp(-beta * l_g - bh * h_e) - mp.exp(-bh * h_g - beta * l_e)
    den = (mp.exp(-bh * h_g) + mp.exp(-bh * h_e)) * (
        mp.exp(-beta * l_g) + mp.exp(-beta * l_e)
    )
    x = num / den
    return (h_e - h_g) * x, -(l_e - l_g) * x


def ring_energies(rho: float, r_low: float, t_low: float, theta_sq: float):
    """SI cycle energies of the ring medium (m = 1, 2) at ratio ``rho``."""
    with mp.workdps(DIGITS):
        ground = mp.mpf(HBAR) ** 2 / (2 * mp.mpf(ELECTRON_MASS) * mp.mpf(r_low) ** 2)
        high = ground * mp.mpf(rho) ** 2
        beta = 1 / (mp.mpf(BOLTZMANN_K) * mp.mpf(t_low))
        return _closed_form(
            (ground, 4 * ground), (high, 4 * high), beta, mp.mpf(theta_sq)
        )


def gap_energies(gap_low: float, alpha_sq: float, theta_sq: float):
    """Reduced-unit (k_B = t_low = 1) cycle energies of a bare gap medium."""
    with mp.workdps(DIGITS):
        g = mp.mpf(gap_low)
        return _closed_form(
            (mp.mpf(0), g), (mp.mpf(0), mp.mpf(alpha_sq) * g), mp.mpf(1),
            mp.mpf(theta_sq),
        )


def e_high_rel_err(e_high: float, exact) -> float:
    """Relative error of a float against an mpmath value."""
    with mp.workdps(DIGITS):
        if exact == 0:
            return 0.0 if e_high == 0.0 else math.inf
        return float(abs((mp.mpf(e_high) - exact) / exact))


def energy_ok(e_high: float, e_low: float, exact, alpha_sq: float,
              theta_sq: float) -> bool:
    """Energies within the conditioning-scaled tolerance of the oracle."""
    tol = REL_TOL * energy_condition(alpha_sq, theta_sq)
    return (
        e_high_rel_err(e_high, exact[0]) <= tol
        and e_high_rel_err(e_low, exact[1]) <= tol
    )


def _rel_dev(value, expected):
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(value - expected) / np.abs(expected)


def problems(table: dict, theta_sq) -> np.ndarray:
    """Failure kind of every row of ``table``; ``""`` marks a correct row.

    ``table`` maps each name in :data:`COLUMNS` to an array.  Energies are
    checked through the identities every two-level cycle keeps
    (``e_out = e_high + e_low``, ``e_high / e_low = -alpha_sq``); their
    magnitude against the mpmath oracle is :func:`energy_ok`.
    """
    a = np.asarray(table["alpha_sq"], dtype=float)
    th = np.broadcast_to(np.asarray(theta_sq, dtype=float), a.shape)
    region = np.asarray(table["region"], dtype=object)
    e_high = np.asarray(table["e_high"], dtype=float)
    e_low = np.asarray(table["e_low"], dtype=float)
    e_out = np.asarray(table["e_out"], dtype=float)
    expected = analytic_regions(a, th)
    boundary = np.isin(expected, BOUNDARIES)
    out = np.full(a.shape, "", dtype=object)

    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = -e_high / e_low
    # 1e-11 leaves room for values re-read from 12-digit CSV.
    bad_energy = ~boundary & (
        ~(np.abs(e_out - (e_high + e_low)) <= 1e-11 * (np.abs(e_high) + np.abs(e_low)))
        | ~(np.abs(ratio - a) <= 1e-11 * a)
    )

    bad_design = np.zeros(a.shape, dtype=bool)
    with np.errstate(divide="ignore"):
        eff_cond = 1.0 + np.maximum(1.0, a) / np.abs(1.0 - a)
    for slot, column in ((0, "1"), (1, "2")):
        names = np.asarray(table["design" + column], dtype=object)
        effs = np.asarray(table["eff" + column], dtype=float)
        carnots = np.asarray(table["carnot" + column], dtype=float)
        want = np.full(a.shape, "", dtype=object)
        for home in REGIONS:
            pair = [d for d, v in DESIGNS.items() if v[0] == home]
            want[expected == home] = pair[slot]
        bad_design |= names != want
        for design in DESIGNS:
            rows = names == design
            if not rows.any():
                continue
            eff = design_efficiency(design, a[rows])
            carnot = carnot_efficiency(design, th[rows])
            bad_design[rows] |= ~(
                _rel_dev(effs[rows], eff) <= REL_TOL * eff_cond[rows]
            ) | ~(_rel_dev(carnots[rows], carnot) <= REL_TOL)

    out[bad_design] = "wrong_design"
    out[bad_energy] = "wrong_energy"
    out[region != expected] = "wrong_region"
    return out
