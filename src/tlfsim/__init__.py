"""Coherence decay of an oscillator exchange-coupled to a TLS that is dephased
by thermal two-level fluctuators.

Closed-form solutions, regime approximations and a dense-matrix reference
implementation, plus samplers and a CSV-emitting command-line front end.
"""
from .errors import (
    CapacityError,
    DegenerateEigensystemError,
    InvalidInputError,
    NumericalError,
    RegimeWarning,
    TlfsimError,
    UndefinedCoherenceError,
)
from .model import (
    CoherenceTrace,
    JcEigensystem,
    JcParams,
    ThermalContext,
    coherence_gr,
    coherence_gr_short_time,
    jc_eigensystem,
    thermal_population,
)
from .single_fluctuator import (
    TlfSpec,
    coherence_exact_single,
    coherence_strong_higher,
    coherence_strong_leading,
    coherence_weak_envelope,
)
from .oracle import (
    DenseState,
    HilbertSpec,
    annihilation,
    annihilation_full,
    build_hamiltonian,
    coherence_from_state,
    evolve_lindblad,
    evolve_unitary,
    expect_a,
    initial_state,
)
from .dissipative import (
    DampingCharacter,
    DampingRegime,
    classify_regime,
    coherence_strong_damped,
    coherence_weak_damped,
    damping_character,
    integrate_reduced,
    slow_root_cubic,
)
from .ensemble import (
    EnsembleStats,
    TlfEnsemble,
    coherence_broad_erfc,
    coherence_broad_integral,
    coherence_broad_linear,
    coherence_continuum,
    coherence_exact_ensemble,
    coherence_narrow,
    ensemble_stats,
    sample_spatial_couplings,
    sample_uniform_couplings,
)
from .microscopic import (
    MaterialParams,
    McEstimate,
    TlsMicro,
    average_variance_mc,
    coupling_from_geometry,
    relaxation_rate,
)

__version__ = "0.1.0"
