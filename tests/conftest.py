"""Shared independent oracles for the test suite.

These helpers deliberately avoid the library's own code paths: the cycle
oracles evaluate the raw closed forms term by term, in double precision or
at 50 digits with mpmath, so they can arbitrate the library's
cancellation-free implementation.
"""

import math

import mpmath


def exponential_cycle_energies(medium, t_low, theta_sq, boltzmann_k):
    """Two-level cycle exchanges from the explicit exponential closed form."""
    e_l_g, e_l_e = medium.low_config
    e_h_g, e_h_e = medium.high_config
    beta = 1.0 / (boltzmann_k * t_low)
    num = math.exp(-beta * e_l_g) * math.exp(-beta * e_h_e / theta_sq) - math.exp(
        -beta * e_h_g / theta_sq
    ) * math.exp(-beta * e_l_e)
    den = (
        math.exp(-beta * e_h_g / theta_sq) + math.exp(-beta * e_h_e / theta_sq)
    ) * (math.exp(-beta * e_l_g) + math.exp(-beta * e_l_e))
    x = num / den
    return ((e_h_e - e_h_g) * x, -(e_l_e - e_l_g) * x)


def boltzmann_probabilities(levels, temperature, boltzmann_k):
    """Direct partition-sum evaluation, no stabilization tricks."""
    weights = [math.exp(-e / (boltzmann_k * temperature)) for e in levels]
    z = sum(weights)
    return [w / z for w in weights]


def mpmath_cycle_energies(gap_low, gap_high, kt_low, kt_high):
    """``(e_high, e_low)`` of a two-level cycle at 50 significant digits.

    The closed form is evaluated as written, a difference of two
    occupations, on the exact values of the float inputs; at 50 digits its
    cancellation still leaves far more than double precision.
    """
    with mpmath.workdps(50):
        g_low, g_high = mpmath.mpf(gap_low), mpmath.mpf(gap_high)
        b_low = g_low / mpmath.mpf(kt_low)
        b_high = g_high / mpmath.mpf(kt_high)
        x = (
            mpmath.exp(-b_high) / (1 + mpmath.exp(-b_high))
            - mpmath.exp(-b_low) / (1 + mpmath.exp(-b_low))
        )
        return +(g_high * x), -(g_low * x)


def mpmath_ring_energies(rho, r_low, t_low, theta_sq, constants):
    """``(e_high, e_low)`` of the ring cycle at 50 digits, with the high-gap
    radius ``r_low / rho`` exact, so ``gap_high = rho**2 * gap_low``."""
    with mpmath.workdps(50):
        gap_low = (3 * mpmath.mpf(constants.hbar) ** 2
                   / (2 * mpmath.mpf(constants.electron_mass)
                      * mpmath.mpf(r_low) ** 2))
        kt_low = mpmath.mpf(constants.boltzmann_k) * mpmath.mpf(t_low)
        return mpmath_cycle_energies(
            gap_low, gap_low * mpmath.mpf(rho) ** 2, kt_low,
            kt_low * mpmath.mpf(theta_sq))
