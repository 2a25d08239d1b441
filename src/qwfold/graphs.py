"""Weighted undirected graphs for continuous-time walk experiments.

Graphs are stored as canonical edge lists (i < j, sorted) with strictly
positive weights, no self-loops and no parallel edges, so the induced
adjacency matrix is always real symmetric with zero diagonal.
"""

from __future__ import annotations

import json
import math
from collections import deque
from itertools import chain
from dataclasses import dataclass, field

import numpy as np

# Constructors refuse graphs larger than this: everything downstream works on
# dense matrices and should stay desk-scale.
MAX_NODES = 4096

# Hypercubes get their own documented limit (2^20 nodes is already absurd for
# dense dynamics).
MAX_HYPERCUBE_DIM = 19


class GraphValidationError(ValueError):
    """A graph document or constructor argument violates an invariant."""


def _check_scale(n: int) -> None:
    if n > MAX_NODES:
        raise GraphValidationError(
            f"graph would have {n} nodes, above the {MAX_NODES}-node dense-matrix limit"
        )


def _is_int(x) -> bool:
    """Python or NumPy integer; bool is an int subclass but not a node index."""
    return isinstance(x, (int, np.integer)) and not isinstance(x, bool)


def _int_types(types: set) -> bool:
    """_is_int for values of these types: one test per type, not per node."""
    return all(issubclass(t, (int, np.integer)) and t is not bool for t in types)


@dataclass(frozen=True)
class Graph:
    """Weighted undirected graph with a canonical edge list.

    node_count : number of nodes, indexed 0..node_count-1
    edges      : tuple of (i, j, w) with i < j, sorted by (i, j), w > 0
    labels     : optional coordinate tuple per node (bitstring, torus coords, ...)
    meta       : free-form provenance (family name, parameters); ignored by ==
    """

    node_count: int
    edges: tuple[tuple[int, int, float], ...]
    labels: tuple[tuple[int, ...], ...] | None = None
    meta: dict | None = field(default=None, compare=False)

    def __post_init__(self):
        if not _is_int(self.node_count) or self.node_count < 1:
            raise GraphValidationError(f"node_count must be a positive integer, got {self.node_count!r}")
        object.__setattr__(self, "node_count", int(self.node_count))
        edges = tuple(self.edges)
        ends = {type(i) for i, _, _ in edges} | {type(j) for _, j, _ in edges}
        if not _int_types(ends) or {type(w) for _, _, w in edges} & {bool, np.bool_}:
            raise GraphValidationError(f"edges need integer endpoints and numeric weights: {edges!r}")
        canonical = []
        seen = set()
        for i, j, w in edges:
            if not (0 <= i < self.node_count and 0 <= j < self.node_count):
                raise GraphValidationError(f"edge ({i},{j}) out of range for {self.node_count} nodes")
            if i == j:
                raise GraphValidationError(f"self-loop on node {i}")
            if w <= 0:
                raise GraphValidationError(f"edge ({i},{j}) has non-positive weight {w}")
            if not math.isfinite(w):
                raise GraphValidationError(f"edge ({i},{j}) has non-finite weight {w}")
            a, b = (i, j) if i < j else (j, i)
            if (a, b) in seen:
                raise GraphValidationError(f"duplicate edge for pair ({a},{b})")
            seen.add((a, b))
            canonical.append((a, b, float(w)))
        canonical.sort()  # by (i, j): pairs are distinct
        if ends - {int}:  # NumPy integers
            canonical = [(int(a), int(b), w) for a, b, w in canonical]
        object.__setattr__(self, "edges", tuple(canonical))
        if self.labels is not None:
            if len(self.labels) != self.node_count:
                raise GraphValidationError("labels length must equal node_count")
            if not _int_types(set(map(type, chain.from_iterable(self.labels)))):
                raise GraphValidationError(f"label entries must be integers: {self.labels!r}")
            object.__setattr__(self, "labels", tuple(tuple(map(int, lab)) for lab in self.labels))

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def adjacency_matrix(self) -> np.ndarray:
        """Dense symmetric adjacency matrix A with A[i, j] = A[j, i] = w."""
        a = np.zeros((self.node_count, self.node_count))
        for i, j, w in self.edges:
            a[i, j] = w
            a[j, i] = w
        return a

    def neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j, _ in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return adj

    def degrees(self) -> np.ndarray:
        """Unweighted degree of every node."""
        d = np.zeros(self.node_count, dtype=int)
        for i, j, _ in self.edges:
            d[i] += 1
            d[j] += 1
        return d

    def strengths(self) -> np.ndarray:
        """Weighted degree (total incident weight) of every node."""
        s = np.zeros(self.node_count)
        for i, j, w in self.edges:
            s[i] += w
            s[j] += w
        return s

    def is_connected(self) -> bool:
        return all(d is not None for d in bfs_distances(self, 0))


@dataclass(frozen=True)
class GroupMap:
    """Surjection from original node indices onto reduced node indices.

    The witness of a graph reduction: assignment[v] is the reduced node that
    original node v merges into.
    """

    source_count: int
    target_count: int
    assignment: tuple[int, ...]

    def __post_init__(self):
        bad = [a for a in self.assignment if not _is_int(a)]
        if bad:
            raise GraphValidationError(f"assignment entries must be integers, got {bad[0]!r}")
        object.__setattr__(self, "assignment", tuple(int(a) for a in self.assignment))
        if len(self.assignment) != self.source_count:
            raise GraphValidationError(
                f"assignment has {len(self.assignment)} entries for {self.source_count} source nodes"
            )
        hit = set()
        for v, t in enumerate(self.assignment):
            if not 0 <= t < self.target_count:
                raise GraphValidationError(f"node {v} mapped to out-of-range target {t}")
            hit.add(t)
        if len(hit) != self.target_count:
            missing = sorted(set(range(self.target_count)) - hit)
            raise GraphValidationError(f"map not surjective, unhit targets {missing}")

    def preimages(self) -> list[list[int]]:
        pre: list[list[int]] = [[] for _ in range(self.target_count)]
        for v, t in enumerate(self.assignment):
            pre[t].append(v)
        return pre

    @staticmethod
    def identity(n: int) -> "GroupMap":
        return GroupMap(n, n, tuple(range(n)))


# ---------------------------------------------------------------------------
# constructors


def build_cycle(k: int) -> Graph:
    """k-node ring with unit weights; k must be even and at least 4."""
    if k < 4 or k % 2 != 0:
        raise GraphValidationError(f"cycle size must be an even integer >= 4, got {k}")
    _check_scale(k)
    edges = [(j, (j + 1) % k, 1.0) for j in range(k)]
    labels = tuple((j,) for j in range(k))
    return Graph(k, tuple(edges), labels, meta={"family": "cycle", "k": k})


def build_hypercube(dim: int) -> Graph:
    """Binary hypercube: 2^dim nodes labelled by bitstrings, unit weights.

    Node index equals the integer value of its bitstring; two nodes are
    adjacent iff their labels differ in exactly one bit.
    """
    if dim < 1:
        raise GraphValidationError(f"hypercube dimension must be >= 1, got {dim}")
    if dim > MAX_HYPERCUBE_DIM:
        raise GraphValidationError(
            f"hypercube dimension {dim} above the documented limit {MAX_HYPERCUBE_DIM}"
        )
    n = 1 << dim
    edges = []
    for u in range(n):
        for b in range(dim):
            v = u ^ (1 << b)
            if u < v:
                edges.append((u, v, 1.0))
    labels = tuple(tuple((u >> (dim - 1 - p)) & 1 for p in range(dim)) for u in range(n))
    return Graph(n, tuple(edges), labels, meta={"family": "hypercube", "dim": dim})


def build_weighted_line(couplings) -> Graph:
    """Path graph on len(couplings)+1 nodes; edge (i, i+1) carries couplings[i]."""
    couplings = [float(c) for c in couplings]
    if not couplings:
        raise GraphValidationError("couplings list must be non-empty")
    if any(c <= 0 for c in couplings):
        raise GraphValidationError("all couplings must be strictly positive")
    n = len(couplings) + 1
    _check_scale(n)
    edges = tuple((i, i + 1, couplings[i]) for i in range(n - 1))
    labels = tuple((i,) for i in range(n))
    return Graph(n, edges, labels, meta={"family": "weighted_line", "couplings": couplings})


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian (box) product: A(G x H) = A(G) (x) I + I (x) A(H).

    Node (u, v) gets index u * |H| + v; it couples to (u', v) with weight
    A_G(u, u') and to (u, v') with weight A_H(v, v').  Labels of the factors
    are concatenated, so iterated products carry full coordinate tuples.
    """
    n = g.node_count * h.node_count
    _check_scale(n)
    edges = []
    for u1, u2, w in g.edges:
        for v in range(h.node_count):
            edges.append((u1 * h.node_count + v, u2 * h.node_count + v, w))
    for v1, v2, w in h.edges:
        for u in range(g.node_count):
            edges.append((u * h.node_count + v1, u * h.node_count + v2, w))
    glab = g.labels if g.labels is not None else tuple((u,) for u in range(g.node_count))
    hlab = h.labels if h.labels is not None else tuple((v,) for v in range(h.node_count))
    labels = tuple(glab[u] + hlab[v] for u in range(g.node_count) for v in range(h.node_count))
    return Graph(n, tuple(edges), labels)


def cartesian_power(g: Graph, times: int) -> Graph:
    if times < 1:
        raise GraphValidationError("cartesian_power needs at least one factor")
    out = g
    for _ in range(times - 1):
        out = cartesian_product(out, g)
    return out


def build_hypercycle(dim: int, k: int) -> Graph:
    """dim-fold Cartesian power of the k-ring: k^dim nodes, 2*dim-regular.

    dim = 2 is the torus.  Coordinate tuples are encoded row-major, so node
    (j_1, ..., j_D) has index ((j_1 * k + j_2) * k + ...) + j_D.
    """
    if dim < 1:
        raise GraphValidationError(f"hypercycle dimension must be >= 1, got {dim}")
    if k < 4 or k % 2 != 0:
        raise GraphValidationError(f"hypercycle needs even k >= 4, got {k}")
    _check_scale(k**dim)
    g = cartesian_power(build_cycle(k), dim)
    return Graph(g.node_count, g.edges, g.labels, meta={"family": "hypercycle", "dim": dim, "k": k})


def build_weighted_lattice(row_couplings, col_couplings) -> Graph:
    """Cartesian product of two weighted lines (a 2D lattice)."""
    return cartesian_product(build_weighted_line(row_couplings), build_weighted_line(col_couplings))


@dataclass(frozen=True)
class GraphFamilySpec:
    """Parametric description of a graph family, buildable on demand."""

    family: str
    dim: int | None = None
    k: int | None = None
    couplings: tuple[float, ...] | None = None
    row_couplings: tuple[float, ...] | None = None
    col_couplings: tuple[float, ...] | None = None

    def build(self) -> Graph:
        if self.family == "hypercube":
            if self.dim is None:
                raise GraphValidationError("hypercube needs dim")
            return build_hypercube(self.dim)
        if self.family == "cycle":
            if self.k is None:
                raise GraphValidationError("cycle needs k")
            return build_cycle(self.k)
        if self.family == "hypercycle":
            if self.dim is None or self.k is None:
                raise GraphValidationError("hypercycle needs dim and k")
            return build_hypercycle(self.dim, self.k)
        if self.family == "weighted_line":
            if not self.couplings:
                raise GraphValidationError("weighted_line needs couplings")
            return build_weighted_line(self.couplings)
        if self.family == "weighted_lattice":
            if not self.row_couplings or not self.col_couplings:
                raise GraphValidationError("weighted_lattice needs row and column couplings")
            return build_weighted_lattice(self.row_couplings, self.col_couplings)
        raise GraphValidationError(f"unknown graph family {self.family!r}")


# ---------------------------------------------------------------------------
# queries


def bfs_distances(g: Graph, source: int) -> list[int | None]:
    """Unweighted shortest-path distance from source to every node (None if unreachable)."""
    if not 0 <= source < g.node_count:
        raise GraphValidationError(f"node {source} out of range")
    adj = g.neighbors()
    dist: list[int | None] = [None] * g.node_count
    dist[source] = 0
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if dist[v] is None:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def graph_distance(g: Graph, u: int, v: int) -> int | None:
    """Shortest-path edge count between u and v, ignoring weights.

    Returns None for a disconnected pair (an explicit "unreachable" answer
    rather than a sentinel number).
    """
    if not 0 <= v < g.node_count:
        raise GraphValidationError(f"node {v} out of range")
    return bfs_distances(g, u)[v]


@dataclass(frozen=True)
class TranslationGroup:
    """The translations of Z_k^D acting on the k^D nodes of a graph.

    Node u carries the coordinates of u written in base k with dim digits
    (row-major); translations add coordinates componentwise mod k.
    """

    k: int
    dim: int

    def difference(self, u: int, v: int) -> int:
        """The node whose coordinates are those of u minus those of v (mod k)."""
        out, place = 0, 1
        for _ in range(self.dim):
            out += (u // place - v // place) % self.k * place
            place *= self.k
        return out


def translation_group(g: Graph) -> TranslationGroup | None:
    """The group Z_k^D of translations of g, if they are automorphisms.

    That holds when the labels are the k^D points of Z_k^D in row-major node
    order and a unit shift along every axis maps each edge onto an edge of
    the same weight; g is then a Cayley graph of Z_k^D.  Rings, toruses and
    higher hypercycles (Cartesian powers of the k-ring) and hypercubes
    (k = 2, where a shift is an XOR) qualify.  Returns None for anything else,
    such as unlabelled graphs, lines and lattices with open boundaries, or
    uneven weights.
    """
    if g.labels is None:
        return None
    dim = len(g.labels[0])
    if dim == 0 or any(len(lab) != dim for lab in g.labels):
        return None
    k = max(max(lab) for lab in g.labels) + 1
    if k < 2 or k**dim != g.node_count:
        return None
    places = [k ** (dim - 1 - axis) for axis in range(dim)]
    if any(lab != tuple(u // p % k for p in places) for u, lab in enumerate(g.labels)):
        return None
    weights = {(i, j): w for i, j, w in g.edges}
    for p in places:
        # unit shift along the axis with place value p, wrapping k - 1 to 0
        moved = [(i + p if i // p % k < k - 1 else i - (k - 1) * p,
                  j + p if j // p % k < k - 1 else j - (k - 1) * p, w) for i, j, w in g.edges]
        if any(weights.get((min(a, b), max(a, b))) != w for a, b, w in moved):
            return None
    return TranslationGroup(k, dim)


def distance_matrix(g: Graph) -> np.ndarray:
    """All-pairs unweighted distances; unreachable pairs become -1."""
    out = np.full((g.node_count, g.node_count), -1, dtype=int)
    for u in range(g.node_count):
        for v, d in enumerate(bfs_distances(g, u)):
            if d is not None:
                out[u, v] = d
    return out


# ---------------------------------------------------------------------------
# serialization

# Graph document: {"nodes": n, "edges": [[i, j, w], ...] (i < j, sorted),
#                  "labels": [[...], ...]?, "meta": {...}?}


def graph_to_document(g: Graph) -> dict:
    doc = {
        "nodes": g.node_count,
        "edges": [[i, j, w] for i, j, w in g.edges],
    }
    if g.labels is not None:
        doc["labels"] = [list(lab) for lab in g.labels]
    if g.meta is not None:
        doc["meta"] = g.meta
    return doc


def _list_field(doc: dict, key: str) -> list:
    value = doc[key]
    if not isinstance(value, list):
        raise GraphValidationError(f"{key!r} must be an array, got {type(value).__name__}")
    return value


def graph_from_document(doc) -> Graph:
    if not isinstance(doc, dict):
        raise GraphValidationError("graph document must be a JSON object")
    for key in ("nodes", "edges"):
        if key not in doc:
            raise GraphValidationError(f"graph document missing required key {key!r}")
    edges = _list_field(doc, "edges")
    for pos, entry in enumerate(edges):
        if not (isinstance(entry, (list, tuple)) and len(entry) == 3):
            raise GraphValidationError(f"edge #{pos} is not an [i, j, w] triple: {entry!r}")
        if not isinstance(entry[2], (int, float)) or isinstance(entry[2], bool):
            raise GraphValidationError(f"edge #{pos} weight must be a number: {entry!r}")
    labels = doc.get("labels")
    if labels is not None:
        for pos, lab in enumerate(_list_field(doc, "labels")):
            if not isinstance(lab, list):
                raise GraphValidationError(f"label #{pos} must be an array: {lab!r}")
    meta = doc.get("meta")
    if meta is not None and not isinstance(meta, dict):
        raise GraphValidationError("'meta' must be an object")
    return Graph(doc["nodes"], tuple(edges), labels, meta)


def write_text(text: str, destination) -> None:
    """Write text to a path (UTF-8, no newline translation) or to a text stream."""
    if hasattr(destination, "write"):
        destination.write(text)
    else:
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _read_json(source, kind: str):
    """Parse the JSON document at a path (UTF-8) or in a text stream."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphValidationError(f"malformed {kind} document: {exc}") from exc


def save_graph(g: Graph, destination) -> None:
    """Write the graph document as UTF-8 JSON to a path or file object."""
    write_text(json.dumps(graph_to_document(g), indent=1), destination)


def load_graph(source) -> Graph:
    """Read a graph document from a path or file object; validates invariants."""
    return graph_from_document(_read_json(source, "graph"))


def save_group_map(m: GroupMap, destination) -> None:
    """Write a map document: {"assignment": [...]} of length source_count."""
    write_text(json.dumps({"assignment": list(m.assignment)}), destination)


def load_group_map(source) -> GroupMap:
    doc = _read_json(source, "map")
    if not isinstance(doc, dict) or "assignment" not in doc:
        raise GraphValidationError("map document must be an object with an 'assignment' array")
    assignment = _list_field(doc, "assignment")
    if not assignment:
        raise GraphValidationError("'assignment' must be a non-empty array")
    top = max((a for a in assignment if _is_int(a)), default=0)
    return GroupMap(len(assignment), top + 1, tuple(assignment))
