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
state exactly, one scaling-and-squaring exponential per distinct sink target
(Moler & Van Loan, SIAM Rev. 45, 3, 2003); lindblad_evolve integrates the
full master equation with RK4 and is kept as the reference the tests hold it
to.  sink_hitting_steps and classical_hitting_steps run each distinct walk
of a batch once and read its hitting step with the one threshold scan
(_first_crossings), which hitting_step also uses.
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

# _sink_diagonals exponentiates at most this many distinct targets at once,
# and _propagate keeps about this many bytes of amplitude history: a few
# samples' worth, so the per-sample reduction to |psi|^2 is amortized while
# the transient memory stays below that of the output.  sink_hitting_steps
# hands _sink_diagonals at most _RACE_BATCH_BYTES of output per call, which
# holds every walk of a race on the 6x6 torus (35) or its lattice (240).
_TARGETS_PER_EXPM = 8
_HISTORY_BYTES = 1 << 18
_RACE_BATCH_BYTES = 1 << 24


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
        probs = np.array(self.probabilities, dtype=float)
        if probs.ndim != 2 or probs.shape[0] != self.grid.sample_count:
            raise ValueError(
                f"probabilities shape {probs.shape} does not match "
                f"{self.grid.sample_count} sample times"
            )
        _clamp_rows(probs)
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


def _clamp_rows(probs: np.ndarray) -> None:
    """Check that probability rows (last axis) sum to 1 within 1e-6, then
    clamp them to [-1e-9, 1 + 1e-9] in place; leading axes are a batch."""
    sums = probs.sum(axis=-1)
    bad = np.unravel_index(np.argmax(np.abs(sums - 1.0)), sums.shape)
    if abs(sums[bad] - 1.0) > 1e-6:
        where = ", ".join(str(int(i)) for i in bad)
        raise ValueError(f"row {where} sums to {sums[bad]!r}, not 1 within 1e-6")
    np.clip(probs, -1e-9, 1.0 + 1e-9, out=probs)


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
    psi, stepped by U = exp(-i*dt*H_eff) with H_eff = A - i*gamma/2*|t><t|;
    the sink holds 1 - |psi|^2.  U depends only on the target, so it is
    formed once per distinct target (_TARGETS_PER_EXPM at a time), and all
    members on those targets are stepped together, one batched product per
    sample (_propagate).  A race batch on a translation-invariant graph has
    every member on one target (harness.run_hitting_races relabels it so), so
    it needs one exponential and one stepping loop.  Positivity and trace
    hold by construction, so the guards are a finite result and a norm
    |psi|^2 that never grows by more than 1e-12 between samples (a
    contraction cannot grow it).
    """
    n = a_sys.shape[0]
    starts = np.asarray(starts, dtype=int)
    targets = np.broadcast_to(np.asarray(targets, dtype=int), starts.shape)
    out = np.zeros((len(starts), grid.sample_count, n + 1))
    distinct = sorted(set(targets.tolist()))
    for lo in range(0, len(distinct), _TARGETS_PER_EXPM):
        sinks = distinct[lo : lo + _TARGETS_PER_EXPM]
        h_eff = np.repeat(a_sys[np.newaxis].astype(complex), len(sinks), axis=0)
        h_eff[np.arange(len(sinks)), sinks, sinks] -= 0.5j * gamma
        with np.errstate(over="ignore", invalid="ignore"):  # reported below as non-finite
            step = np.eye(n) + _expm_minus_identity(-1j * grid.dt * h_eff)
        # members[i, j]: the j-th batch member with target sinks[i]; -1 pads
        groups = [np.flatnonzero(targets == t) for t in sinks]
        members = np.full((len(groups), max(map(len, groups))), -1)
        for i, group in enumerate(groups):
            members[i, : len(group)] = group
        _propagate(step, starts, members, out)

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


def _propagate(step: np.ndarray, starts: np.ndarray, members: np.ndarray, out: np.ndarray) -> None:
    """Step one block of _sink_diagonals and write its |psi|^2 into out.

    step[i] propagates the batch members in row i of members (-1 entries
    are padding), each started at its own node.  One matmul per sample steps
    the whole block into a preallocated history, step[i] broadcast over its
    row; |psi|^2 is taken once per span of samples that fits in
    _HISTORY_BYTES.  Each member is its own matrix-vector product, because a
    matrix-matrix product rounds a column differently depending on its
    neighbours, and a member must come out bit for bit the same in any batch
    as alone (sink_evolve).
    """
    samples, n = out.shape[1], step.shape[1]
    used = members >= 0
    row, col = np.nonzero(used)
    batch = members[used]
    out[batch, 0, starts[batch]] = 1.0
    psi = np.zeros((*members.shape, n, 1), dtype=complex)
    psi[row, col, starts[batch], 0] = 1.0
    span = min(max(1, _HISTORY_BYTES // psi.nbytes), samples - 1)
    history = np.empty((span, *psi.shape), dtype=complex)
    step = step[:, np.newaxis]
    for lo in range(1, samples, span):
        chunk = history[: samples - lo]
        for j in range(len(chunk)):
            np.matmul(step, chunk[j - 1] if j else psi, out=chunk[j])
        psi = chunk[-1].copy()
        prob = (chunk.real**2 + chunk.imag**2)[..., 0]
        out[batch, lo : lo + len(chunk), :n] = prob.transpose(1, 2, 0, 3)[row, col]


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


def classical_probabilities(g: Graph, starts, times) -> np.ndarray:
    """Classical walk distributions exp((T - I) t) e_start for several starts.

    Returns shape (len(starts), len(times), n).  exp(T t) is evaluated
    through the symmetrized similarity transform D^{-1/2} W D^{-1/2} of the
    weight matrix, which shares T's spectrum and is exactly diagonalizable
    as a real symmetric matrix; one eigendecomposition serves every start.
    """
    for start in starts:
        _check_start(g, start)
    strengths = g.strengths()
    if np.any(strengths == 0):
        raise GraphValidationError("graph has an isolated node")
    root = np.sqrt(strengths)
    sym = g.adjacency_matrix() / np.outer(root, root)
    vals, vecs = _symmetric_eigh(sym)
    # p(t) = e^{-t} D^{1/2} V e^{vals t} V^T D^{-1/2} e_start
    v0 = vecs[starts, :] / root[starts, np.newaxis]
    modes = np.exp(np.outer(times, vals - 1.0)) * v0[:, np.newaxis, :]
    return (modes @ vecs.T) * root


def classical_evolve(g: Graph, start: int, grid: TimeGrid) -> WalkCurve:
    """Classical continuous-time walk p(t) = exp((T - I) t) p(0)."""
    return WalkCurve(grid, classical_probabilities(g, [start], grid.times())[0], "classical")


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
    return _first_crossings(curve.probabilities[np.newaxis, :, watch], p_th)[0]


def _first_crossings(series: np.ndarray, level: float) -> list[int | None]:
    """First index at which each row of a (walks, samples) array reaches level."""
    if level >= 1.0:
        raise ThresholdConfigError(f"threshold {level} >= 1 can never be crossed")
    crossed = series >= level
    return [int(i) if hit else None for i, hit in zip(crossed.argmax(axis=1), crossed.any(axis=1))]


def _distinct_walks(g: Graph, walks) -> list[tuple[int, int]]:
    """The distinct (start, watched node) walks, sorted; nodes must be in range."""
    walks = sorted(set(walks))
    bad = [v for walk in walks for v in walk if not 0 <= v < g.node_count]
    if bad:
        raise GraphValidationError(f"walk node {bad[0]} out of range for {g.node_count} nodes")
    return walks


def sink_hitting_steps(g: Graph, walks, gamma: float, grid: TimeGrid,
                       level: float) -> dict[tuple[int, int], int | None]:
    """hitting_step of the sink of each distinct (start, sink target) walk.

    The walks go to _sink_diagonals sorted by target, so that walks sharing a
    propagator share a batch, in batches within _RACE_BATCH_BYTES of output.
    """
    n = g.node_count
    adjacency = g.adjacency_matrix()
    walks = sorted(_distinct_walks(g, walks), key=lambda walk: (walk[1], walk[0]))
    size = max(1, _RACE_BATCH_BYTES // (8 * grid.sample_count * (n + 1)))
    steps = {}
    for lo in range(0, len(walks), size):
        batch = walks[lo : lo + size]
        diags = _sink_diagonals(adjacency, [s for s, _ in batch], [t for _, t in batch], gamma, grid)
        _clamp_rows(diags)
        steps.update(zip(batch, _first_crossings(diags[:, :, n], level)))
    return steps


def classical_hitting_steps(g: Graph, walks, grid: TimeGrid,
                            level: float) -> dict[tuple[int, int], int | None]:
    """hitting_step of each distinct (start, watched node) classical walk;
    one classical_probabilities call evolves every distinct start."""
    walks = _distinct_walks(g, walks)
    starts = sorted({s for s, _ in walks})
    probs = classical_probabilities(g, starts, grid.times())
    _clamp_rows(probs)
    row = {s: i for i, s in enumerate(starts)}
    series = probs[[row[s] for s, _ in walks], :, [w for _, w in walks]]
    return dict(zip(walks, _first_crossings(series, level)))
