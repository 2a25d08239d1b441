"""Independent reference results for checking qwfold outputs.

Nothing here imports qwfold.  Graphs are rebuilt from their definitions,
reductions are the symmetrized quotient D^-1/2 S^T A S D^-1/2 of the
partition S, and walks are stepped with scipy.linalg.expm propagators:

- sink-detected walk: the no-jump (non-Hermitian) picture of the absorbing
  sink of Caruso et al., J. Chem. Phys. 131, 105106 (2009),
  psi(t + dt) = exp(-i (A - i gamma/2 |t><t|) dt) psi(t), sink = 1 - |psi|^2;
- classical walk: p(t + dt) = exp((T - I) dt) p(t), T column-stochastic.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

# A hit index that differs from the oracle's is excused only when the oracle
# value at the first disputed sample lies this close to the threshold.
THRESHOLD_SLACK = 1e-6


def torus_adjacency(k: int) -> np.ndarray:
    """k x k torus, node (x, y) at index x * k + y, unit weights."""
    a = np.zeros((k * k, k * k))
    for x in range(k):
        for y in range(k):
            u = x * k + y
            for v in (((x + 1) % k) * k + y, x * k + (y + 1) % k):
                a[u, v] = a[v, u] = 1.0
    return a


def hypercube_adjacency(dim: int) -> np.ndarray:
    """Binary dim-cube, node index = bitstring value, unit weights."""
    n = 1 << dim
    a = np.zeros((n, n))
    for u in range(n):
        for b in range(dim):
            a[u, u ^ (1 << b)] = 1.0
    return a


def quotient(a: np.ndarray, assignment) -> np.ndarray:
    """Symmetrized quotient of an equitable partition (cell = assignment[v])."""
    cells = max(assignment) + 1
    s = np.zeros((a.shape[0], cells))
    s[np.arange(a.shape[0]), list(assignment)] = 1.0
    root = np.sqrt(s.sum(axis=0))
    return (s.T @ a @ s) / np.outer(root, root)


def torus_lattice_assignment(k: int) -> list[int]:
    """Torus (x, y) -> lattice site (ring distance of x, ring distance of y)."""
    side = k // 2 + 1
    return [min(x, k - x) * side + min(y, k - y) for x in range(k) for y in range(k)]


def lattice_fold_assignment(side: int) -> list[int]:
    """Lattice site (a, b) -> unordered pair {a, b}, pairs a <= b in row-major order."""
    pairs = [(a, b) for a in range(side) for b in range(a, side)]
    index = {ab: p for p, ab in enumerate(pairs)}
    return [index[(min(a, b), max(a, b))] for a in range(side) for b in range(side)]


def bfs_distances(a: np.ndarray, source: int) -> list[int]:
    dist = [-1] * a.shape[0]
    dist[source] = 0
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in np.nonzero(a[u])[0]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    nxt.append(int(v))
        frontier = nxt
    return dist


def sink_curve(a: np.ndarray, start: int, target: int, gamma: float, dt: float, samples: int) -> np.ndarray:
    """Sink population at samples 0, dt, 2 dt, ..."""
    h_eff = a.astype(complex)
    h_eff[target, target] -= 0.5j * gamma
    step = expm(-1j * h_eff * dt)
    psi = np.zeros(a.shape[0], dtype=complex)
    psi[start] = 1.0
    out = np.empty(samples)
    for i in range(samples):
        out[i] = 1.0 - np.vdot(psi, psi).real
        psi = step @ psi
    return out


def classical_curve(a: np.ndarray, start: int, dt: float, samples: int) -> np.ndarray:
    """Occupation probabilities, one row per sample."""
    t = a / a.sum(axis=0)[np.newaxis, :]
    step = expm((t - np.eye(a.shape[0])) * dt)
    p = np.zeros(a.shape[0])
    p[start] = 1.0
    out = np.empty((samples, a.shape[0]))
    for i in range(samples):
        out[i] = p
        p = step @ p
    return out


def first_crossing(series: np.ndarray, threshold: float) -> int | None:
    hits = np.nonzero(series >= threshold)[0]
    return int(hits[0]) if hits.size else None


def hit_index_agrees(program: int | None, series: np.ndarray, threshold: float) -> bool:
    """True when the program's first-crossing index equals the oracle's, or
    the two differ only where the oracle series is within THRESHOLD_SLACK of
    the threshold (a crossing that rounding may legitimately move)."""
    expected = first_crossing(series, threshold)
    if program == expected:
        return True
    disputed = min(i for i in (program, expected) if i is not None)
    if disputed >= series.size:
        return False
    return abs(series[disputed] - threshold) <= THRESHOLD_SLACK


def race_winner(classical: int | None, quantum: int | None) -> str:
    """Earlier crossing wins; a crossing beats none; equal indices tie."""
    if classical is None and quantum is None:
        return "both_failed"
    if quantum is None or (classical is not None and classical < quantum):
        return "classical"
    if classical is None or quantum < classical:
        return "quantum"
    return "tie"


def natural_threshold(n: int) -> float:
    return 1.0 / math.log(n)
