"""Continuous-time walk dynamics on weighted graphs.

Conventions: hbar = 1 and the hopping frequency is normalized to 1, so all
times, rates and couplings are dimensionless.  The quantum Hamiltonian is the
adjacency matrix itself; detection attaches an absorbing sink node to the
target via a single collapse operator |sink><target| with rate gamma.  The
graph block then evolves under H_eff = A - i*gamma/2*|target><target| (the
no-jump picture of Caruso et al., J. Chem. Phys. 131, 105106, 2009):
d(rho)/dt = -i(H_eff rho - rho H_eff^dagger) + gamma*rho_tt*|sink><sink|.
Nothing flows back out of the sink, so the graph block stays the pure state
psi(t) = exp(-i*H_eff*t)|start> and the sink holds 1 - |psi(t)|^2.  Every
production sink walk (sink_evolve, races, reduction chains) propagates that
state exactly, one scaling-and-squaring exponential per walk (Moler & Van
Loan, SIAM Rev. 45, 3, 2003); lindblad_evolve integrates the full master
equation with RK4 and is kept as the reference the tests hold it to.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graphs import Graph, GraphValidationError, write_text

DEFAULT_SUBSTEP = 1e-3  # lindblad_evolve's RK4 step; the exact propagator has none

# exp(Y) - I is summed to this Taylor degree once |Y|_1 <= 1/2; the first
# omitted term is below 0.5**17 / 17! < 3e-20.
_TAYLOR_THETA = 0.5
_TAYLOR_DEGREE = 16


class EigendecompositionError(RuntimeError):
    """Symmetric eigendecomposition failed or is not orthonormal enough."""


class IntegrationAccuracyError(RuntimeError):
    """Integrator drifted beyond tolerance; retry with a smaller step."""


class NumericalFailureError(RuntimeError):
    """State left the physical set (negative population beyond tolerance)."""


class ThresholdConfigError(ValueError):
    """Hitting threshold is not a usable probability level."""


@dataclass(frozen=True, slots=True)
class TimeGrid:
    """Uniform sample times 0, dt, 2*dt, ..., t_max."""

    t_max: float
    dt: float

    def __post_init__(self):
        if not (0 < self.dt < math.inf and 0 < self.t_max < math.inf):
            raise ValueError(f"t_max and dt must be positive and finite, got {self.t_max}, {self.dt}")
        if self.dt > self.t_max:
            raise ValueError(f"dt={self.dt} exceeds t_max={self.t_max}")
        ratio = self.t_max / self.dt
        if not math.isfinite(ratio):
            raise ValueError(f"t_max/dt = {self.t_max}/{self.dt} overflows; not a finite sample count")
        if abs(ratio - round(ratio)) > 1e-9:
            raise ValueError(f"t_max/dt = {ratio} is not an integer")

    @property
    def sample_count(self) -> int:
        return round(self.t_max / self.dt) + 1

    def times(self) -> np.ndarray:
        return np.arange(self.sample_count) * self.dt


@dataclass(frozen=True)
class SinkSpec:
    """Absorbing detector: sink node appended after the graph, fed from target."""

    target: int
    sink: int
    rate: float = 1.0

    def __post_init__(self):
        if not 0 <= self.rate < math.inf:
            raise ValueError(f"decay rate must be nonnegative and finite, got {self.rate}")
        if self.target >= self.sink:
            raise ValueError("sink must be the appended node (target < sink)")


@dataclass(frozen=True, slots=True)
class ThresholdPolicy:
    """Hitting threshold 1/log(n) with a configurable logarithm base."""

    base: str = "natural"

    _LOGS = {"natural": math.log, "base2": math.log2, "base10": math.log10}

    def __post_init__(self):
        if self.base not in self._LOGS:
            raise ThresholdConfigError(f"unknown threshold base {self.base!r}")

    def value(self, n: int) -> float:
        if n < 2:
            raise ThresholdConfigError(f"threshold needs at least 2 nodes, got {n}")
        p = 1.0 / self._LOGS[self.base](n)
        if p >= 1.0:
            raise ThresholdConfigError(
                f"threshold 1/log({n}) = {p:.4f} >= 1 under base {self.base!r}; "
                "use a larger graph or a different base"
            )
        return p


@dataclass(frozen=True)
class WalkCurve:
    """Per-node probability series on a time grid.

    probabilities has one row per sample time; lindblad curves carry one extra
    trailing column for the sink population.  Rows are clamped to
    [-1e-9, 1 + 1e-9] and must each sum to 1 within 1e-6.
    """

    grid: TimeGrid
    probabilities: np.ndarray
    kind: str

    def __post_init__(self):
        if self.kind not in ("unitary", "lindblad", "classical"):
            raise ValueError(f"unknown curve kind {self.kind!r}")
        probs = np.asarray(self.probabilities, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != self.grid.sample_count:
            raise ValueError(
                f"probabilities shape {probs.shape} does not match "
                f"{self.grid.sample_count} sample times"
            )
        row_sums = probs.sum(axis=1)
        bad = np.argmax(np.abs(row_sums - 1.0))
        if abs(row_sums[bad] - 1.0) > 1e-6:
            raise ValueError(
                f"row {bad} sums to {row_sums[bad]!r}, not 1 within 1e-6"
            )
        probs = np.clip(probs, -1e-9, 1.0 + 1e-9)
        probs.setflags(write=False)
        object.__setattr__(self, "probabilities", probs)

    @property
    def has_sink(self) -> bool:
        return self.kind == "lindblad"

    @property
    def node_count(self) -> int:
        return self.probabilities.shape[1] - (1 if self.has_sink else 0)

    def series(self, node: int) -> np.ndarray:
        return self.probabilities[:, node]

    def sink_series(self) -> np.ndarray:
        if not self.has_sink:
            raise ValueError("curve has no sink column")
        return self.probabilities[:, -1]

    def to_csv(self, destination) -> None:
        """Write `t,node_0,...,node_{n-1}[,sink]` rows, 12 significant digits, LF."""
        header = ["t"] + [f"node_{i}" for i in range(self.node_count)]
        if self.has_sink:
            header.append("sink")
        lines = [",".join(header)]
        for t, row in zip(self.grid.times(), self.probabilities):
            lines.append(",".join(f"{x:.12g}" for x in [t, *row]))
        write_text("\n".join(lines) + "\n", destination)


def _check_start(g: Graph, start: int) -> None:
    if not 0 <= start < g.node_count:
        raise GraphValidationError(f"start node {start} out of range")


def _check_sink_walk(g: Graph, start: int, sink: SinkSpec) -> None:
    _check_start(g, start)
    if not 0 <= sink.target < g.node_count:
        raise GraphValidationError(f"sink target {sink.target} out of range")
    if sink.sink != g.node_count:
        raise GraphValidationError(
            f"sink node must be appended as node {g.node_count}, got {sink.sink}"
        )


def _symmetric_eigh(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    try:
        vals, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise EigendecompositionError(f"symmetric eigendecomposition failed: {exc}") from exc
    residual = np.abs(vecs.T @ vecs - np.eye(a.shape[0])).max()
    if residual > 1e-10:
        raise EigendecompositionError(
            f"eigenvector orthonormality residual {residual:.3e} above 1e-10"
        )
    return vals, vecs


def unitary_probabilities(g: Graph, start: int, times) -> np.ndarray:
    """Node probabilities |<v|exp(-i*A*t)|start>|^2, one row per time in times.

    Uses the real-symmetric eigendecomposition of the adjacency matrix, so
    the times may be arbitrary (no time stepping involved).
    """
    _check_start(g, start)
    vals, vecs = _symmetric_eigh(g.adjacency_matrix())
    coeff = vecs[start, :]  # V^T e_start
    phases = np.exp(-1j * np.outer(times, vals))
    amps = (phases * coeff) @ vecs.T
    return np.abs(amps) ** 2


def unitary_evolve(g: Graph, start: int, grid: TimeGrid) -> WalkCurve:
    """Schroedinger evolution exp(-i*A*t) from a single-node start state."""
    return WalkCurve(grid, unitary_probabilities(g, start, grid.times()), "unitary")


def _lindblad_diagonals(
    a_sys: np.ndarray,
    starts,
    targets,
    gamma: float,
    grid: TimeGrid,
    substep: float,
) -> np.ndarray:
    """RK4-integrate the master equation for a batch of pure starts.

    targets is a single node index or one per start.  Returns real diagonals
    with shape (len(starts), samples, n+1); each batch member is an
    independent run, batched only for throughput.
    """
    n = a_sys.shape[0]
    m = n + 1
    sink = n

    b = len(starts)
    rows = np.arange(b)
    targets = np.broadcast_to(np.asarray(targets, dtype=int), (b,))
    h_eff = np.zeros((b, m, m), dtype=complex)
    h_eff[:, :n, :n] = a_sys
    h_eff[rows, targets, targets] -= 0.5j * gamma
    h_eff_dag = h_eff.conj()  # A is real symmetric, so H_eff^dagger = conj(H_eff)

    def rhs(rho: np.ndarray) -> np.ndarray:
        drho = -1j * (h_eff @ rho - rho @ h_eff_dag)
        drho[rows, sink, sink] += gamma * rho[rows, targets, targets]
        return drho

    steps_per_sample = max(1, round(grid.dt / substep))
    dt = grid.dt / steps_per_sample

    rho = np.zeros((b, m, m), dtype=complex)
    rho[rows, starts, starts] = 1.0

    samples = grid.sample_count
    out = np.empty((b, samples, m))

    def record(s_idx: int) -> None:
        diag = np.einsum("rii->ri", rho).real
        out[:, s_idx, :] = diag
        traces = diag.sum(axis=1)
        drift = np.abs(traces - 1.0).max()
        if drift > 1e-8:
            raise IntegrationAccuracyError(
                f"density-matrix trace drifted by {drift:.3e} (> 1e-8); "
                f"reduce the integration step (currently {dt:g})"
            )
        min_eig = np.linalg.eigvalsh(rho).min()
        if min_eig < -1e-6:
            raise NumericalFailureError(
                f"density matrix lost positivity (min eigenvalue {min_eig:.3e})"
            )

    record(0)
    for s_idx in range(1, samples):
        for _ in range(steps_per_sample):
            k1 = rhs(rho)
            k2 = rhs(rho + (dt / 2.0) * k1)
            k3 = rhs(rho + (dt / 2.0) * k2)
            k4 = rhs(rho + dt * k3)
            rho += (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        record(s_idx)
    return out


def _expm_minus_identity(x: np.ndarray) -> np.ndarray:
    """exp(X) - I for each matrix of a stack, by scaling and squaring.

    Each member is scaled by its own power of two to a 1-norm of at most
    1/2, summed as a Taylor series and squared back up (Moler & Van Loan,
    SIAM Rev. 45, 3, 2003).  The squaring runs on F = exp(Y) - I as
    F <- 2F + F^2, so the part of exp(Y) near the identity keeps its relative
    precision instead of rounding against the 1 on the diagonal; a large sink
    rate needs many squarings, and that rounding would grow with each one.
    """
    norms = np.abs(x).sum(axis=-2).max(axis=-1)
    squarings = np.maximum(np.frexp(norms / _TAYLOR_THETA)[1], 0)
    y = x * (0.5 ** squarings)[:, np.newaxis, np.newaxis]
    term = f = y
    for k in range(2, _TAYLOR_DEGREE + 1):
        term = term @ y / k
        f = f + term
    for level in range(squarings.max()):
        r = squarings > level
        f[r] = f[r] + f[r] + f[r] @ f[r]
    return f


def _sink_diagonals(
    a_sys: np.ndarray,
    starts,
    targets,
    gamma: float,
    grid: TimeGrid,
) -> np.ndarray:
    """Propagate a batch of sink-detected walks exactly, sample to sample.

    Same contract as _lindblad_diagonals: targets is a single node index or
    one per start; returns real diagonals with shape (len(starts), samples,
    n+1), sink population last.  Each member's graph block is the pure state
    psi, stepped by its own U = exp(-i*dt*H_eff) with
    H_eff = A - i*gamma/2*|target><target|; the sink holds 1 - |psi|^2.
    Positivity and trace hold by construction, so the guards are a finite
    result and a norm |psi|^2 that never grows by more than 1e-12 between
    samples (a contraction cannot grow it).
    """
    n = a_sys.shape[0]
    b = len(starts)
    rows = np.arange(b)
    targets = np.broadcast_to(np.asarray(targets, dtype=int), (b,))
    h_eff = np.repeat(a_sys[np.newaxis].astype(complex), b, axis=0)
    h_eff[rows, targets, targets] -= 0.5j * gamma
    with np.errstate(over="ignore", invalid="ignore"):  # reported below as non-finite
        step = np.eye(n) + _expm_minus_identity(-1j * grid.dt * h_eff)

    out = np.zeros((b, grid.sample_count, n + 1))
    out[rows, 0, starts] = 1.0
    psi = out[:, 0, :n, np.newaxis].astype(complex)
    for s_idx in range(1, grid.sample_count):
        psi = step @ psi
        out[:, s_idx, :n] = (psi.real**2 + psi.imag**2)[..., 0]
    norms = out[..., :n].sum(axis=2)
    out[..., n] = 1.0 - norms if gamma else 0.0
    if not np.isfinite(out).all():
        raise NumericalFailureError(
            f"sink propagation at rate {gamma:g} and step {grid.dt:g} produced non-finite values"
        )
    growth = np.diff(norms, axis=1).max()
    if growth > 1e-12:
        raise NumericalFailureError(
            f"graph-block norm grew by {growth:.3e} between samples (> 1e-12)"
        )
    return out


def sink_evolve(g: Graph, start: int, sink: SinkSpec, grid: TimeGrid) -> WalkCurve:
    """Sink-detected walk, propagated exactly in the no-jump picture.

    With one collapse operator |sink><target| the graph block stays pure:
    psi(t) = exp(-i*H_eff*t)|start> with H_eff = A - i*rate/2*|target><target|,
    and the sink population is 1 - |psi(t)|^2 (Caruso et al., J. Chem. Phys.
    131, 105106, 2009).  One propagator exp(-i*H_eff*grid.dt), by scaling
    and squaring (Moler & Van Loan, SIAM Rev. 45, 3, 2003), steps the state
    from sample to sample, so there is no integration step to choose.  The
    curve has the same layout as lindblad_evolve's: the sink is appended as
    node n and is the last column.
    """
    _check_sink_walk(g, start, sink)
    diags = _sink_diagonals(g.adjacency_matrix(), [start], sink.target, sink.rate, grid)
    return WalkCurve(grid, diags[0], "lindblad")


def lindblad_evolve(
    g: Graph,
    start: int,
    sink: SinkSpec,
    grid: TimeGrid,
    substep: float = DEFAULT_SUBSTEP,
) -> WalkCurve:
    """Sink-detected walk: master equation integrated by fixed-step RK4.

    The reference integrator that the tests hold sink_evolve to; every
    production path uses sink_evolve, which has no integration error.  The
    sink is appended as node n, coupled to the graph only through the
    collapse operator; the curve's last column is the sink population.  The
    right-hand side is -i(H_eff rho - rho H_eff^dagger) with
    H_eff = A - i*rate/2*|target><target|, plus rate*rho_tt fed into the
    sink (Caruso et al., J. Chem. Phys. 131, 105106, 2009).  The
    internal RK4 step is grid.dt split into substeps no longer than
    ``substep``; trace drift beyond 1e-8 or a negative eigenvalue beyond
    -1e-6 abort the run.
    """
    _check_sink_walk(g, start, sink)
    diags = _lindblad_diagonals(g.adjacency_matrix(), [start], sink.target, sink.rate, grid, substep)
    return WalkCurve(grid, diags[0], "lindblad")


def transition_matrix(g: Graph) -> np.ndarray:
    """Column-stochastic jump matrix: T[j, i] = w_ij / total weight at i."""
    strengths = g.strengths()
    if np.any(strengths == 0):
        isolated = int(np.argmax(strengths == 0))
        raise GraphValidationError(f"node {isolated} is isolated; no transition probabilities")
    t = g.adjacency_matrix() / strengths[np.newaxis, :]
    return t


def classical_evolve(g: Graph, start: int, grid: TimeGrid) -> WalkCurve:
    """Classical continuous-time walk p(t) = exp((T - I) t) p(0).

    exp(T t) is evaluated through the symmetrized similarity transform
    D^{-1/2} W D^{-1/2} of the weight matrix, which shares T's spectrum and is
    exactly diagonalizable as a real symmetric matrix.
    """
    _check_start(g, start)
    strengths = g.strengths()
    if np.any(strengths == 0):
        raise GraphValidationError("graph has an isolated node")
    root = np.sqrt(strengths)
    sym = g.adjacency_matrix() / np.outer(root, root)
    vals, vecs = _symmetric_eigh(sym)
    # p(t) = e^{-t} D^{1/2} V e^{vals t} V^T D^{-1/2} e_start
    v0 = vecs[start, :] / root[start]
    times = grid.times()
    modes = np.exp(np.outer(times, vals - 1.0)) * v0
    probs = (modes @ vecs.T) * root
    return WalkCurve(grid, probs, "classical")


def hitting_step(
    curve: WalkCurve,
    watch: int,
    policy: ThresholdPolicy,
    n_for_threshold: int,
    threshold: float | None = None,
) -> int | None:
    """First grid index where the watched series reaches the hitting threshold.

    watch is the sink column for lindblad curves and the target node for
    classical ones.  Returns None when the series never crosses on the grid.
    ``threshold`` overrides the policy value (used by tests with forced
    levels); either way the level must be < 1.
    """
    p_th = policy.value(n_for_threshold) if threshold is None else threshold
    if p_th >= 1.0:
        raise ThresholdConfigError(f"threshold {p_th} >= 1 can never be crossed")
    series = curve.probabilities[:, watch]
    hits = np.nonzero(series >= p_th)[0]
    return int(hits[0]) if hits.size else None
