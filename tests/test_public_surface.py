"""The package's public names, pinned as literal sets.

Adding or removing a public name means editing a set below, so it shows up
in review; the test-only references of ``oracles`` cannot drift back in.
"""

import importlib
import types

import pytest

import qbmlab
import oracles

MODULE_ALL = {
    "model": {
        "InitialState", "ModelError", "ModelFormatError", "QbmlabError", "SpectralModel",
        "ValidityReport",
        "build_equidistant_bath", "load_model", "lorentzian_coupling", "paper_default_model",
        "save_model", "thermal_occupancy", "validate_dissipation",
    },
    "eigensolve": {
        "ConditioningWarning", "EigensolveError", "NormalModes", "REL_TOL", "solve_normal_modes",
    },
    "dynamics": {
        "OBSERVABLES", "TimeGrid", "TimeSeries", "asymptotic_mean_occupation", "evolve_series",
        "mean_bath_occupation", "mean_bath_occupations", "mean_momentum_tilde", "mean_position",
        "mean_subsystem_occupation", "mode_sum", "p_nm", "p_omega_n", "p_omega_omega",
        "survival_amplitude",
    },
    "langevin": {
        "KernelSample", "WRONSKIAN_TOL", "kernels", "langevin_table",
    },
    "recurrence": {
        "ExponentialFit", "Peak", "PoincareTime", "RecurrenceError", "RecurrenceReport",
        "analyze", "detect_revivals", "fit_exponential", "poincare_time",
    },
    "continuum": {
        "ContinuumError", "ContinuumModel", "ContinuumValidityReport", "PoleEstimate",
        "QUAD_TOL", "WeightTable", "asymptotic_occupation", "build_weight_table",
        "density_from_discrete", "khalfin_tail", "lorentzian_density", "pole_estimate",
        "pv_shift", "refine_pole", "resolvent_boundary", "survival_amplitude_continuum",
        "ullersma_density", "validate_continuum", "width", "width_from_discrete",
    },
}

PACKAGE_NAMES = set().union(*MODULE_ALL.values())


@pytest.mark.parametrize("name", sorted(MODULE_ALL))
def test_module_all(name):
    names = importlib.import_module(f"qbmlab.{name}").__all__
    assert len(names) == len(set(names))
    assert set(names) == MODULE_ALL[name]


def test_package_reexports():
    public = {name for name, value in vars(qbmlab).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert public == PACKAGE_NAMES
    assert sum(map(len, MODULE_ALL.values())) == 66


ORACLES = {
    "dense_oracle", "verify_closure", "ClosureReport", "secular_value", "bath_matrix",
    "verify_langevin_ode", "OdeResidualReport", "theta_profile", "long_time_average_survival",
}


def test_oracles_stay_out_of_the_package():
    assert ORACLES <= set(vars(oracles))
    for name in MODULE_ALL:
        assert not ORACLES & set(vars(importlib.import_module(f"qbmlab.{name}")))
    assert not ORACLES & set(vars(qbmlab))
    assert not hasattr(qbmlab.NormalModes, "bath_matrix")
