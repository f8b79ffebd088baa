"""Numerical laboratory for a three-body dispersive quantum model.

One massless particle (kinetic energy |k|) and one non-relativistic particle
(kinetic energy p^2) around a fixed center, with decaying pair potentials.
The package provides the periodic-grid substrate, spectral solvers with a
dense oracle, fibered reduced Hamiltonians and thresholds, dilation-generator
commutator forms, a configuration-space partition of unity, split-step
propagation, and the dynamical estimates (local decay, minimal velocity,
channel decomposition) built from them.
"""

from .clusters import ClusterId, TWO_CLUSTERS, cluster_coordinates, cluster_count
from .commutators import (
    MourreReport,
    analytic_commutator_apply,
    apply_dilation,
    commutator_form,
    continuum_edge,
    mourre_report,
    sqrt_lemma_eval,
)
from .errors import (
    BoundaryBreachError,
    BoundaryConcentrationError,
    ChecksSkippedError,
    ClusterError,
    ConfigError,
    GridError,
    HypothesisError,
    PotentialError,
    QuadratureError,
    ScatterError,
    SolverError,
    SpectralWindowError,
)
from .lattice import (
    GridSpec,
    WaveFunction,
    gaussian_packet,
    make_grid,
    random_state,
    read_wavefunction,
    write_wavefunction,
)
from .model import ThreeBodyModel, default_model, free_model
from .operators import (
    DispersionSymbol,
    HamiltonianSpec,
    PotentialSpec,
    absolute_symbol,
    apply_hamiltonian,
    check_boundary_decay,
    constant_symbol,
    free_symbol,
    gaussian_well,
    poschl_teller,
    quadratic_symbol,
    zero_potential,
)
from .partition import PartitionSet, build_partition, verify_partition
from .propagation import (
    CutoffSpec,
    PropagatorSpec,
    TraceSeries,
    channel_cutoff,
    completeness_defect,
    evolve,
    local_decay_trace,
    minimal_velocity_trace,
)
from .spectral import (
    DispersionCurve,
    EigenResult,
    ThresholdTable,
    dense_spectrum,
    dispersion_scan,
    distance_to_threshold,
    iterative_lowest,
    spectral_filter,
    threshold_table,
)

__version__ = "0.1.0"
