"""One rule per input: every theta_sq entry point raises the same class, and
a sweep config or constants file with a wrong type or an unknown key exits 1
with a message that names the key."""

import json
import math

import pytest

from qtmkit import (
    ExchangeTriple,
    InvalidThetaError,
    QtmDesign,
    RingOttoSetup,
    SweepSpec,
    alpha_bounds,
    boundary_report,
    carnot_efficiency,
    classify_region,
    default_rho_grid,
    gap_medium,
    intersections,
    otto_cycle_energies,
    region_boundaries_rho,
    relation_residuals,
)
from qtmkit.cli import main

THETA_ENTRY_POINTS = {
    "classify_region": lambda t: classify_region(ExchangeTriple(2.0, -1.0), t),
    "carnot_efficiency": lambda t: carnot_efficiency(QtmDesign.QEN, t),
    "alpha_bounds": lambda t: alpha_bounds(QtmDesign.QEN, t),
    "intersections": intersections,
    "relation_residuals": lambda t: relation_residuals(2.0, t),
    "otto_cycle_energies": lambda t: otto_cycle_energies(
        gap_medium(1.0, 2.0), 1.0, t, 1.0
    ),
    "RingOttoSetup": lambda t: RingOttoSetup(1e-7, 1e-7, 1.0, t),
    "SweepSpec": lambda t: SweepSpec(
        t_low=1.0, theta_sq=t, rho_grid=(1.0,), r_low=1e-7
    ),
    "region_boundaries_rho": region_boundaries_rho,
    "boundary_report": boundary_report,
    "default_rho_grid": default_rho_grid,
}


@pytest.mark.parametrize("theta_sq", [1.0, 0.5, math.nan, math.inf])
@pytest.mark.parametrize("entry", sorted(THETA_ENTRY_POINTS))
def test_every_theta_entry_point_raises_invalid_theta(entry, theta_sq):
    with pytest.raises(InvalidThetaError):
        THETA_ENTRY_POINTS[entry](theta_sq)


def run_sweep_cli(tmp_path, capsys, config):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps(config))
    code = main(["sweep", "--config", str(path), "--out",
                 str(tmp_path / "records.csv")])
    return code, capsys.readouterr().err


@pytest.mark.parametrize(
    "config, key",
    [
        ({"t_low": None, "theta_sq": 5, "r_low": 1e-7}, "t_low"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": 3}, "rho_grid"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "rho_grid": "123"},
         "rho_grid"),
        ({"t_low": 1, "theta_sq": 5, "r_low": 1e-7, "hbar": [1]}, "hbar"),
    ],
)
def test_wrong_type_in_config_exits_one_naming_the_key(
    tmp_path, capsys, config, key
):
    code, err = run_sweep_cli(tmp_path, capsys, config)
    assert code == 1
    assert err.startswith("qtmkit: error: ")
    assert key in err


def test_unknown_key_in_constants_file_exits_one(tmp_path, capsys,
                                                  monkeypatch):
    constants = tmp_path / "constants.json"
    constants.write_text(json.dumps({"boltzman_k": 2}))
    monkeypatch.setenv("QTM_CONSTANTS", str(constants))
    code, err = run_sweep_cli(
        tmp_path, capsys, {"t_low": 1, "theta_sq": 5, "r_low": 1e-7}
    )
    assert code == 1
    assert "boltzman_k" in err
