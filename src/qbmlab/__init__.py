"""qbmlab: exact relaxation dynamics of an oscillator in a finite bath.

The package solves the one-quantum sector of a subsystem oscillator linearly
coupled (quanta-conserving) to a finite oscillator bath: exact normal modes
from the secular equation, closed-form evolution of mean observables,
time-dependent damping coefficients, recurrence-time analysis, and the
dense-bath analytics of the decay law.
"""

from .model import (
    InitialState,
    ModelError,
    ModelFormatError,
    SpectralModel,
    ValidityReport,
    build_equidistant_bath,
    load_model,
    lorentzian_coupling,
    paper_default_model,
    save_model,
    thermal_occupancy,
    validate_dissipation,
)
from .eigensolve import (
    ConditioningWarning,
    EigensolveError,
    NormalModes,
    solve_normal_modes,
)
from .dynamics import (
    TimeGrid,
    TimeSeries,
    asymptotic_mean_occupation,
    evolve_series,
    mean_bath_occupation,
    mean_bath_occupations,
    mean_momentum_tilde,
    mean_position,
    mean_subsystem_occupation,
    mode_sum,
    p_nm,
    p_omega_n,
    p_omega_omega,
    survival_amplitude,
)
from .langevin import (
    KernelSample,
    LangevinSample,
    kernels,
    langevin_coefficients,
    langevin_table,
)
from .recurrence import (
    ExponentialFit,
    Peak,
    PoincareTime,
    RecurrenceError,
    RecurrenceReport,
    analyze,
    detect_revivals,
    fit_exponential,
    poincare_time,
)
from .continuum import (
    ContinuumError,
    ContinuumModel,
    ContinuumValidityReport,
    PoleEstimate,
    WeightTable,
    asymptotic_occupation,
    build_weight_table,
    density_from_discrete,
    khalfin_tail,
    lorentzian_density,
    pole_estimate,
    pv_shift,
    refine_pole,
    resolvent_boundary,
    survival_amplitude_continuum,
    ullersma_density,
    validate_continuum,
    width,
    width_from_discrete,
)

__version__ = "0.1.0"
