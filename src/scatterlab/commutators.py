"""The dilation generator, commutator quadratic forms, and positivity reports.

The conjugate operator is the dilation generator A = (P.X + X.P)/2, one per
grid (:func:`apply_dilation`), applied with the momentum factor spectral and
the position factor pointwise.  The commutator [H, iA] is never assembled as
a matrix; its quadratic form is evaluated from two inner products, and the
closed-form right-hand side of the commutator is applied directly as
multiplier plus multiplication operators for cross-checking.
They are addressed by cluster: ``ClusterId.TOGETHER`` for [H, iA] on the
two-particle grid, a 2-cluster for the fiber of [H_a, iA] at external
momentum s, read from one hand-written row per 2-cluster.  One FFT helper
applies every momentum multiplier, the dilation's included.

Position weights on a periodic lattice see the sawtooth jump at the box edge,
so every X-weighted operation requires the state to be concentrated away from
the boundary.  The default tolerance is strict; callers handling states with
slow power-law tails (the |k|-kinetic subsystems) may relax it explicitly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .clusters import ClusterId, require_two_cluster
from .errors import (
    BoundaryConcentrationError,
    ClusterError,
    GridError,
    HypothesisError,
    QuadratureError,
)
from .lattice import GridSpec, WaveFunction, random_state
from .model import ThreeBodyModel
from .operators import HamiltonianSpec, apply_hamiltonian, coordinate_field
from .spectral import (
    ThresholdTable,
    deflate_against,
    distance_to_threshold,
    localized_eigenvectors,
    spectral_filter,
)

DEFAULT_BOUNDARY_TOL = 1e-8


# Each 2-cluster's closed forms in its internal grid coordinate u: its
# potential V_a(u), the first-commutator multiplier m1(q, s) at external
# momentum s, and the constant c(s) that the external coordinate adds to the
# fiber.  Written out by hand, not derived from model.reduced: they are the
# oracle that the fibers' (and so the subsystems') lattice commutators are
# checked against.  V23 acts on the (xy)(0) coordinate u as V23(2u), and the
# singular mode q = s of sign(q - s) takes the mean of its one-sided limits
# (numpy's sign at zero).  c(0) = 0 and q sign(q) = |q|, so s = 0 gives the
# internal commutators [h_a, i A^a].
_CLOSED_FORMS = {
    ClusterId.PHOTON_FREE: (lambda m: m.v12, lambda q, s: 2.0 * q ** 2, abs),
    ClusterId.ELECTRON_FREE: (lambda m: m.v13, lambda q, s: np.abs(q), lambda s: 2.0 * s * s),
    ClusterId.PAIR_FREE: (
        ThreeBodyModel.pair_potential,
        lambda q, s: 0.5 * q ** 2 + 0.5 * s * q + 0.5 * q * np.sign(q - s), lambda s: 0.0),
}


def _in_momentum(values: np.ndarray, multiplier: np.ndarray) -> np.ndarray:
    """Apply the Fourier multiplier ``multiplier`` to the position-space ``values``."""
    return np.fft.ifftn(multiplier * np.fft.fftn(values))


def require_boundary_tol(tol: float) -> None:
    """Raise :class:`GridError` unless the concentration guard's ``tol`` is a mass
    fraction in (0, 1]; a NaN tolerance, or one above 1, would switch the guard off."""
    if not 0.0 < tol <= 1.0:
        raise GridError(f"boundary_tol must lie in (0, 1], got {tol}")


def check_boundary_concentration(wf: WaveFunction, tol: float = DEFAULT_BOUNDARY_TOL) -> float:
    require_boundary_tol(tol)
    mass = wf.boundary_mass(0.8)
    if mass > tol:
        raise BoundaryConcentrationError(
            f"state carries {mass:.3e} of its mass outside 0.8 L; X.P is not "
            f"compatible with wraparound (tolerance {tol:.1e})",
            boundary_mass=mass,
        )
    return mass


def apply_dilation(wf: WaveFunction,
                   boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> WaveFunction:
    """Apply A = (1/2)(P.X + X.P), summed over the grid's axes.

    On the two-particle grid that is the full generator, the sum of the x and
    y dilations; on a one-particle grid it is the lattice dilation, which on
    a 2-cluster's internal grid is the internal generator A^a.
    """
    check_boundary_concentration(wf, boundary_tol)
    out = np.zeros(wf.grid.shape, dtype=np.complex128)
    for pos, mom in zip(wf.grid.position_mesh(), wf.grid.momentum_mesh()):
        out = out + 0.5 * (_in_momentum(pos * wf.values, mom)
                           + pos * _in_momentum(wf.values, mom))
    return WaveFunction(wf.grid, out)


def commutator_form(wf: WaveFunction, ham: HamiltonianSpec,
                    boundary_tol: float = DEFAULT_BOUNDARY_TOL) -> float:
    """Quadratic form <psi, [H, iA] psi> = -2 Im <H psi, A psi>.

    The inner product conjugates its first argument; with H and A both
    Hermitian lattice operators the value is real by construction, and it
    vanishes on exact eigenvectors of H (the virial identity).
    """
    apsi = apply_dilation(wf, boundary_tol)
    hpsi = apply_hamiltonian(wf, ham)
    return -2.0 * hpsi.inner(apsi).imag


def analytic_commutator_apply(wf: WaveFunction, cluster: ClusterId, model: ThreeBodyModel,
                              s: float = 0.0) -> WaveFunction:
    """Apply the closed-form first commutator of ``cluster``'s Hamiltonian.

    ``ClusterId.TOGETHER`` on the two-particle grid gives [H, iA] with the
    two-particle A: 2 p^2 + |k| minus the sum of x^a . grad I^a terms (with
    :func:`~scatterlab.model.free_model`, the free 2 p^2 + |k|).  A 2-cluster
    on a one-particle grid gives the fiber of [H_a, iA] at external momentum
    s, m1(q, s) - u V_a'(u) + c(s) with the row of :data:`_CLOSED_FORMS`; at
    s = 0 that is the internal commutator [h_a, i A^a].
    """
    grid = wf.grid
    if cluster is ClusterId.TOGETHER:
        if grid.particles != 2:
            raise ClusterError(f"the {cluster} formula lives on the two-particle grid")
        p, k = grid.momentum_mesh()
        fld = functools.reduce(np.add, (
            pot.virial_field(coordinate_field(grid, tag))
            for pot, tag in ((model.v12, "x"), (model.v13, "y"), (model.v23, "x-y"))))
        return WaveFunction(grid, _in_momentum(wf.values, 2.0 * p ** 2 + np.abs(k))
                            - fld * wf.values)

    require_two_cluster(cluster)
    if grid.particles != 1:
        raise ClusterError("2-cluster formulas live on one-particle grids")
    potential, m1, c = _CLOSED_FORMS[cluster]
    fld = potential(model).virial_field(grid.position_mesh()[0])
    out = _in_momentum(wf.values, m1(grid.momentum_mesh()[0], s)) - fld * wf.values
    const = c(s)
    if const:
        out = out + const * wf.values
    return WaveFunction(grid, out)


def sqrt_lemma_eval(k: float, tol: float = 1e-8, max_evals: int = 200000) -> float:
    """Evaluate |k| through its resolvent integral representation.

    The integral (1/pi) int_0^inf s^(-1/2) k^2/(s+k^2) ds is split at s = k^2;
    the substitution s = u^2 tames the endpoint on [0, k^2], and s = k^2/t^2
    maps the tail to [0, 1].  QUADPACK (``scipy.integrate.quad``) integrates
    both pieces to the absolute tolerance tol * k / 2.  ``max_evals`` caps its
    subintervals, 21 integrand evaluations each, at max_evals // 42 per piece;
    an error estimate above the tolerance raises :class:`QuadratureError`.
    """
    if k < 0:
        raise QuadratureError("k must be nonnegative")
    if k == 0.0:
        return 0.0
    # lazy: importing scipy.integrate at module level adds ~20 MB to every run
    from scipy.integrate import quad

    abs_tol = 0.5 * tol * k
    # full_output turns quad's warning into data; the error estimates are checked below
    opts = {"epsabs": abs_tol, "epsrel": 0.0, "limit": max(1, max_evals // 42),
            "full_output": 1}
    # s = u^2 on [0, k^2]:   integrand 2 k^2 / (u^2 + k^2) du on [0, k]
    # s = k^2/t^2 on tail:   integrand 2 k / (1 + t^2) dt on [0, 1]
    head, head_err, *_ = quad(lambda u: 2.0 * k * k / (u * u + k * k), 0.0, k, **opts)
    tail, tail_err, *_ = quad(lambda t: 2.0 * k / (1.0 + t * t), 0.0, 1.0, **opts)
    if max(head_err, tail_err) > abs_tol:
        raise QuadratureError(
            f"quadrature error estimate above tol={tol:.1e} within max_evals={max_evals}",
            achieved=abs((head + tail) / np.pi - k) / k,
        )
    return (head + tail) / np.pi


def continuum_edge(s: float) -> float:
    """Bottom of the pair cluster's fibered continuum at external momentum s.

    The closed form of min_q [(1/4)(q+s)^2 + (1/2)|q-s|]: the kink at q = s
    wins for |s| <= 1/2 giving s^2, the smooth branch wins beyond, giving
    |s| - 1/4.
    """
    s = abs(float(s))
    if s <= 0.5:
        return s * s
    return s - 0.25


@dataclass(frozen=True)
class MourreReport:
    """Sampled commutator positivity on a spectral window.

    A report, not a pass/fail oracle: the localized estimate holds modulo a
    compact remainder, whose finite-grid footprint shows up as the margin.
    """

    E: float
    window: tuple[float, float]
    epsilon: float
    bound: float                  # d(E) - epsilon
    form_values: np.ndarray       # one per unit-norm filtered sample
    deflated_count: int
    violations: int               # samples with form value below the bound
    worst_margin: float           # min(form - bound)
    boundary_masses: np.ndarray
    gap: float                    # d(E) from the threshold table

    @property
    def min_form(self) -> float:
        return float(np.min(self.form_values))


def derive_seed(seed: int, index: int) -> int:
    """Deterministic per-sample seed from (report seed, sample index)."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def require_sample_count(samples: int) -> None:
    """Raise :class:`HypothesisError` unless a report draws at least one sample."""
    if samples < 1:
        raise HypothesisError("samples must be >= 1")


def mourre_report(E: float, window: tuple[float, float], model: ThreeBodyModel,
                  grid: GridSpec, table: ThresholdTable, samples: int = 20,
                  seed: int = 0, deflation_count: int = 24,
                  boundary_tol: float = 1e-3) -> MourreReport:
    """Sample <psi, [H, iA] psi> over filtered random states near energy E.

    Random states are filtered into the window, the localized (bound-state
    like) eigenvectors of ``model.full()`` inside the window are projected
    out, and the commutator form with the full dilation generator A of each
    unit-norm survivor is compared against the predicted bound
    d(E) - epsilon, epsilon = d(E)/10.
    """
    require_sample_count(samples)
    require_boundary_tol(boundary_tol)
    e_lo, e_hi = float(window[0]), float(window[1])
    if not e_lo < E < e_hi:
        raise HypothesisError("E must lie inside the window")
    if table.is_threshold(E):
        raise HypothesisError(f"E = {E} is a threshold; the estimate needs E nonthreshold")
    table.require_clear((e_lo, e_hi))
    gap = distance_to_threshold(E, table)
    if max(E - e_lo, e_hi - E) > gap / 2.0 + 1e-12:
        raise HypothesisError(
            f"window must stay within d(E)/2 = {gap / 2.0:.4g} of E"
        )
    epsilon = 0.1 * gap
    ham = model.full()
    bound = gap - epsilon

    eig_in_window = localized_eigenvectors(
        ham, grid, deflation_count, window=(e_lo, e_hi),
    ) if deflation_count > 0 else []
    deflators = [vec for _, vec in eig_in_window]

    def one_sample(i: int):
        rng = np.random.default_rng(derive_seed(seed, i))
        psi = random_state(grid, rng, envelope_sigma=grid.half_extent / 8.0)
        filtered = spectral_filter(psi, ham, (e_lo, e_hi))
        filtered = deflate_against(filtered, deflators)
        nrm = filtered.norm()
        if nrm < 1e-9:
            return None
        unit = filtered.scaled(1.0 / nrm)
        return (unit.boundary_mass(0.8),
                commutator_form(unit, ham, boundary_tol=boundary_tol))

    outcomes = [one_sample(i) for i in range(samples)]
    masses = [m for out in outcomes if out is not None for m in [out[0]]]
    forms = [f for out in outcomes if out is not None for f in [out[1]]]
    if not forms:
        raise HypothesisError("every sample filtered to zero; window misses the spectrum")
    form_values = np.array(forms)
    margins = form_values - bound
    return MourreReport(
        E=E, window=(e_lo, e_hi), epsilon=float(epsilon), bound=float(bound),
        form_values=form_values, deflated_count=len(deflators),
        violations=int(np.sum(margins < 0)), worst_margin=float(np.min(margins)),
        boundary_masses=np.array(masses), gap=float(gap),
    )
