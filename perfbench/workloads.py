"""The benchmark's workloads: race, reproduce and cli.

A workload is built from the workload seed and a scratch directory.  setup()
builds its inputs and makes one warm-up call; round() runs one timed round
and returns {sample label: [seconds, ...]}; check() compares every output
the rounds produced with the independent oracle (oracle.py) and returns
(operations attempted, operations failed, notes).  The end-to-end op_s is
the median of the MAIN samples divided by PER_OP; named() gives the
workload's named metrics from all its samples.  The qwfold modules come in
as a namespace ``q`` so that the traced run can hand in traced stand-ins.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

TORUS_K = 6  # 6 x 6 torus, 36 nodes; its reduction is the 4 x 4 lattice
RACE_PAIRS = 8  # one run_hitting_races chunk
REPRODUCE_WARMUP_TMAX = 0.5
SINK_TOLERANCE = 1e-6  # acceptance bound on sink-curve deviations
UNITARY_TOLERANCE = 1e-8  # acceptance bound on unitary group-sum deviations
CLI_TORUS_K = 40  # 1600 nodes
CLI_CUBE_DIM = 7  # 128 nodes
STARTUP_RUNS = 5


# A race CSV row, field for field as HittingRecord.
RaceRow = namedtuple("RaceRow", "pair_index source target d classical_steps quantum_steps winner")


def _failure(label: str) -> str:
    """Report an exception raised by an operation; the run goes on."""
    traceback.print_exc(file=sys.stderr)
    return f"{label}: raised {sys.exc_info()[1]!r}"


def _reduced_line_spec(q):
    """Weighted-lattice spec of the torus reduction: the 6-ring's reduced line squared."""
    couplings = tuple(w for _, _, w in q.convolve.cycle_to_line(TORUS_K).reduced.edges)
    return q.graphs.GraphFamilySpec("weighted_lattice", row_couplings=couplings, col_couplings=couplings)


class _Oracles:
    """Oracle torus, its lattice quotient and the lattice's fold."""

    def __init__(self):
        from oracle import lattice_fold_assignment, quotient, torus_adjacency, torus_lattice_assignment

        self.torus = torus_adjacency(TORUS_K)
        self.lattice = quotient(self.torus, torus_lattice_assignment(TORUS_K))
        self.fold = quotient(self.lattice, lattice_fold_assignment(TORUS_K // 2 + 1))


def check_races(a, records, dt: float, samples: int, gamma: float, pair_count: int) -> list[str]:
    """Notes on every race record that disagrees with the oracle (empty: all agree)."""
    import oracle

    n = a.shape[0]
    threshold = oracle.natural_threshold(n)
    if len(records) != pair_count:
        return [f"{len(records)} race records for {pair_count} pairs"] * pair_count
    notes = []
    for idx, rec in enumerate(records):
        src, tgt = rec.source, rec.target
        if rec.pair_index != idx or not (0 <= src < n and 0 <= tgt < n) or src == tgt:
            notes.append(f"race {idx}: bad pair {rec}")
            continue
        sink = oracle.sink_curve(a, src, tgt, gamma, dt, samples)
        occupation = oracle.classical_curve(a, src, dt, samples)[:, tgt]
        problems = []
        if rec.d != oracle.bfs_distances(a, src)[tgt]:
            problems.append(f"distance {rec.d}")
        if not oracle.hit_index_agrees(rec.quantum_steps, sink, threshold):
            problems.append(f"quantum index {rec.quantum_steps} vs {oracle.first_crossing(sink, threshold)}")
        if not oracle.hit_index_agrees(rec.classical_steps, occupation, threshold):
            problems.append(
                f"classical index {rec.classical_steps} vs {oracle.first_crossing(occupation, threshold)}"
            )
        if rec.winner != oracle.race_winner(rec.classical_steps, rec.quantum_steps):
            problems.append(f"winner {rec.winner}")
        if problems:
            notes.append(f"race {idx} ({src}->{tgt}): " + ", ".join(problems))
    return notes


class Race:
    """run_hitting_races on seeded 8-pair batches, torus and lattice in turn."""

    name = "race"
    MAIN, PER_OP = "torus", RACE_PAIRS  # op_s is seconds per torus pair

    def __init__(self, seed: int, workdir: Path, inprocess: bool = False):
        self.rng = random.Random(seed)
        self.results = []  # (label, config, records or error note)

    def _config(self, q, spec):
        return q.harness.ExperimentConfig(
            source=spec,
            seed=self.rng.getrandbits(64),
            pair_count=RACE_PAIRS,
            grid=q.dynamics.TimeGrid(20.0, 0.1),
            gamma=1.0,
        )

    def setup(self, q) -> None:
        self.specs = {
            "torus": q.graphs.GraphFamilySpec("hypercycle", dim=2, k=TORUS_K),
            "lattice": _reduced_line_spec(q),
        }
        self.graphs = {label: spec.build() for label, spec in self.specs.items()}
        # The warm-up is one full torus batch: the first full torus batch of
        # a process runs ~1.5x slower than later ones (allocator state), and
        # shorter calls do not take that cost away.
        q.harness.run_hitting_races(self._config(q, self.specs["torus"]))

    def round(self, q) -> dict[str, list[float]]:
        times = {}
        for label, spec in self.specs.items():
            config = self._config(q, spec)
            start = time.perf_counter()
            try:
                records, _ = q.harness.run_hitting_races(config)
            except Exception:
                records = _failure(f"{label} race")
            times[label] = [time.perf_counter() - start]
            self.results.append((label, config, records))
        return times

    def check(self) -> tuple[int, int, list[str]]:
        import numpy as np

        oracles = _Oracles()
        expected = {"torus": oracles.torus, "lattice": oracles.lattice}
        notes = []
        lattice_ok = np.abs(self.graphs["lattice"].adjacency_matrix() - oracles.lattice).max() <= 1e-12
        if not lattice_ok:
            notes.append("lattice input differs from the torus quotient")
        attempted, failed = 1, int(not lattice_ok)
        for label, config, records in self.results:
            attempted += RACE_PAIRS
            if isinstance(records, str):
                failed += RACE_PAIRS
                notes.append(records)
                continue
            grid = config.grid
            bad = check_races(expected[label], records, grid.dt, grid.sample_count, config.gamma, RACE_PAIRS)
            failed += len(bad)
            notes += [f"{label}: {note}" for note in bad]
        return attempted, failed, notes

    @staticmethod
    def named(samples: dict[str, list[float]]) -> dict[str, float]:
        return {
            "race_torus_pairs_per_s": RACE_PAIRS / statistics.median(samples["torus"]),
            "race_lattice_pairs_per_s": RACE_PAIRS / statistics.median(samples["lattice"]),
        }


class Reproduce:
    """run_equivalence_experiment on the torus -> lattice -> fold sink chain
    (acceptance criterion 3).

    The chain is fixed by the acceptance criterion, so the seed does not
    change this workload's inputs.
    """

    name = "reproduce"
    MAIN, PER_OP = "chain", 1
    NAMES = ("hypercycle", "lattice", "ultimate")

    def __init__(self, seed: int, workdir: Path, inprocess: bool = False):
        self.seed = seed
        self.results = []  # outcome or error note per round

    def _config(self, q, tmax: float = 10.0):
        return q.harness.ExperimentConfig(
            source=self.spec, seed=self.seed, grid=q.dynamics.TimeGrid(tmax, 1e-3), gamma=1.0, substep=1e-3
        )

    def setup(self, q) -> None:
        self.spec = q.graphs.GraphFamilySpec("hypercycle", dim=2, k=TORUS_K)
        q.harness.equivalence_chain(self.spec)
        q.harness.run_equivalence_experiment(self._config(q, REPRODUCE_WARMUP_TMAX))

    def round(self, q) -> dict[str, list[float]]:
        config = self._config(q)
        start = time.perf_counter()
        try:
            outcome = q.harness.run_equivalence_experiment(config)
        except Exception:
            outcome = _failure("chain")
        elapsed = time.perf_counter() - start
        self.results.append(outcome)
        return {"chain": [elapsed]}

    def check(self) -> tuple[int, int, list[str]]:
        import numpy as np

        import oracle

        oracles = _Oracles()
        graphs = {"hypercycle": oracles.torus, "lattice": oracles.lattice, "ultimate": oracles.fold}
        expected = {}  # name -> (target, sink curve): corner start, farthest target
        for name, a in graphs.items():
            dist = oracle.bfs_distances(a, 0)
            target = dist.index(max(dist))
            expected[name] = (target, oracle.sink_curve(a, 0, target, 1.0, 1e-3, 10001))
        attempted = failed = 0
        notes = []
        names = self.NAMES
        for outcome in self.results:
            attempted += 1
            if isinstance(outcome, str):
                failed += 1
                notes.append(outcome)
                continue
            problems = []
            if tuple(outcome.names) != names:
                problems.append(f"names {outcome.names}")
            else:
                for name in names:
                    target, sink = expected[name]
                    curve = outcome.curves[name]
                    if outcome.targets[name] != target:
                        problems.append(f"{name} target {outcome.targets[name]} != {target}")
                    elif curve.probabilities.shape != (10001, graphs[name].shape[0] + 1):
                        problems.append(f"{name} curve shape {curve.probabilities.shape}")
                    elif np.abs(curve.sink_series() - sink).max() >= SINK_TOLERANCE:
                        problems.append(f"{name} sink curve off the oracle")
                for i, a in enumerate(names):
                    for b in names[i + 1 :]:
                        dev = np.abs(outcome.curves[a].sink_series() - outcome.curves[b].sink_series()).max()
                        if dev >= SINK_TOLERANCE:
                            problems.append(f"{a}/{b} deviation {dev:.3e}")
                reported = [row["max_deviation"] for row in outcome.deviations]
                if len(reported) != len(names) * (len(names) - 1) // 2 or max(reported) >= SINK_TOLERANCE:
                    problems.append(f"reported deviations {reported}")
            if problems:
                failed += 1
                notes.append("chain: " + "; ".join(problems))
        return attempted, failed, notes

    @staticmethod
    def named(samples: dict[str, list[float]]) -> dict[str, float]:
        return {"reproduce_s": statistics.median(samples["chain"])}


class Cli:
    """A fixed pipeline of fresh `python -m qwfold.cli` processes.

    With inprocess=True (the traced run) the same argument lists go through
    qwfold.cli.cli_dispatch in this process instead.
    """

    name = "cli"
    MAIN, PER_OP = "pipeline", 1

    def __init__(self, seed: int, workdir: Path, inprocess: bool = False):
        self.race_seed = random.Random(seed).getrandbits(32)
        self.workdir = workdir
        self.inprocess = inprocess
        self.rounds = []  # (round dir, {label: (exit code, stdout, stderr)})
        self.startup = []  # (exit code, stdout)

    def commands(self, d: Path) -> list[tuple[str, list[str]]]:
        torus = ["--family", "hypercycle", "--dim", "2", "--k", str(CLI_TORUS_K)]
        curve = ["--in", str(d / "torus.json"), "--tmax", "20", "--dt", "0.1"]
        cube = ["--in", str(d / "cube.json")]
        return [
            ("torus_build", ["graph", "build", *torus, "--out", str(d / "torus.json")]),
            ("unitary", ["simulate", *curve, "--kind", "unitary", "--out", str(d / "unitary.csv")]),
            ("classical", ["simulate", *curve, "--kind", "classical", "--out", str(d / "classical.csv")]),
            ("cube_build", ["graph", "build", "--family", "hypercube", "--dim", str(CLI_CUBE_DIM),
                            "--out", str(d / "cube.json")]),
            ("convolve", ["convolve", "--family", "hypercube", "--dim", str(CLI_CUBE_DIM),
                          "--out", str(d / "line.json"), "--map", str(d / "map.json")]),
            ("compare", ["compare", "--orig", str(d / "cube.json"), "--reduced", str(d / "line.json"),
                         "--map", str(d / "map.json")]),
            ("spectrum", ["spectrum", *cube, "--out", str(d / "spectrum.json")]),
            ("minimality", ["minimality", *cube, "--out", str(d / "minimality.json")]),
            ("groups", ["groups", *cube, "--out", str(d / "groups.json")]),
            ("couplings", ["export-couplings", "--in", str(d / "line.json"), "--out", str(d / "couplings.csv")]),
            ("compare_sink", ["compare", "--family", "hypercycle", "--dim", "2", "--k", str(TORUS_K), "--sink"]),
            ("race", ["race", "--family", "hypercycle", "--dim", "2", "--k", str(TORUS_K), "--pairs", "2",
                      "--seed", str(self.race_seed), "--out", str(d / "race.csv")]),
        ]

    def _run(self, q, argv: list[str]) -> tuple[int, str, str]:
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = q.cli.cli_dispatch(argv)
            return code, out.getvalue(), err.getvalue()
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "qwfold.cli", *argv], capture_output=True, text=True, env=env, check=False
        )
        return proc.returncode, proc.stdout, proc.stderr

    def setup(self, q) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        if not self.inprocess:
            code, _, err = self._run(q, ["--help"])
            if code != 0:
                raise RuntimeError(f"qwfold --help exited {code}: {err}")

    def round(self, q) -> dict[str, float]:
        d = self.workdir / f"round{len(self.rounds)}"
        d.mkdir(parents=True, exist_ok=True)
        outputs = {}
        start = time.perf_counter()
        for label, argv in self.commands(d):
            try:
                outputs[label] = self._run(q, argv)
            except Exception:
                outputs[label] = (-1, "", _failure(label))
        elapsed = time.perf_counter() - start
        self.rounds.append((d, outputs))
        return {"pipeline": [elapsed]}

    def measure_startup(self, q) -> list[float]:
        times = []
        for _ in range(STARTUP_RUNS):
            start = time.perf_counter()
            code, out, _ = self._run(q, ["--help"])
            times.append(time.perf_counter() - start)
            self.startup.append((code, out))
        return times

    def check(self) -> tuple[int, int, list[str]]:
        attempted = failed = 0
        notes = []
        for d, outputs in self.rounds:
            for label, argv in self.commands(d):
                attempted += 1
                code, out, err = outputs[label]
                if code != 0:
                    problem = f"exit {code}: {err.strip()[-300:]}"
                else:
                    try:
                        problem = _CLI_CHECKS[label](d, out)
                    except Exception:
                        problem = _failure(f"checking {label}")
                if problem:
                    failed += 1
                    notes.append(f"{d.name} {label}: {problem}")
        for code, out in self.startup:
            attempted += 1
            if code != 0 or not out.startswith("usage: qwfold"):
                failed += 1
                notes.append(f"--help exit {code}")
        return attempted, failed, notes

    def cleanup(self) -> None:
        for d, _ in self.rounds:
            for path in d.iterdir():
                path.unlink()
            d.rmdir()

    @staticmethod
    def named(samples: dict[str, list[float]]) -> dict[str, float]:
        return {
            "cli_pipeline_s": statistics.median(samples["pipeline"]),
            "cli_startup_s": statistics.median(samples["startup"]),
        }


# -- cli output checks: each returns None when the output is right, else a note


def _edge_set(doc) -> set:
    return {(i, j, w) for i, j, w in doc["edges"]}


def _oracle_edges(a) -> set:
    import numpy as np

    rows, cols = np.nonzero(np.triu(a))
    return {(int(i), int(j), float(a[i, j])) for i, j in zip(rows, cols)}


def _check_torus(d, out):
    from oracle import torus_adjacency

    doc = json.loads((d / "torus.json").read_text())
    if doc["nodes"] != CLI_TORUS_K**2 or _edge_set(doc) != _oracle_edges(torus_adjacency(CLI_TORUS_K)):
        return "torus document differs from the oracle torus"
    return None


def _check_curve(path: Path, nodes: int, samples: int, dt: float):
    import numpy as np

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    if header != ["t"] + [f"node_{i}" for i in range(nodes)]:
        return f"{path.name}: bad header"
    if rows.shape != (samples, nodes + 1):
        return f"{path.name}: shape {rows.shape}"
    if np.abs(rows[:, 0] - dt * np.arange(samples)).max() > 1e-9:
        return f"{path.name}: bad time column"
    if np.abs(rows[:, 1:].sum(axis=1) - 1.0).max() > 1e-6 or rows[:, 1:].min() < -1e-9:
        return f"{path.name}: rows are not probability distributions"
    return None


def _check_cube(d, out):
    from oracle import hypercube_adjacency

    doc = json.loads((d / "cube.json").read_text())
    if doc["nodes"] != 1 << CLI_CUBE_DIM or _edge_set(doc) != _oracle_edges(hypercube_adjacency(CLI_CUBE_DIM)):
        return "hypercube document differs from the oracle hypercube"
    return None


def _line_couplings(dim: int) -> list[float]:
    return [math.sqrt((h + 1) * (dim - h)) for h in range(dim)]


def _check_convolve(d, out):
    line = json.loads((d / "line.json").read_text())
    assignment = json.loads((d / "map.json").read_text())["assignment"]
    edges = [(i, j) for i, j, _ in line["edges"]]
    weights = [w for _, _, w in line["edges"]]
    if line["nodes"] != CLI_CUBE_DIM + 1 or edges != [(h, h + 1) for h in range(CLI_CUBE_DIM)]:
        return "reduced line has the wrong shape"
    if any(abs(w - c) > 1e-12 * c for w, c in zip(weights, _line_couplings(CLI_CUBE_DIM))):
        return "reduced line couplings differ from sqrt((h+1)(D-h))"
    if assignment != [bin(u).count("1") for u in range(1 << CLI_CUBE_DIM)]:
        return "witness map is not the Hamming weight"
    return None


def _check_compare(d, out):
    dev = float(out.strip())
    return None if 0 <= dev < UNITARY_TOLERANCE else f"deviation {dev}"


def _cube_eigenvalues():
    import numpy as np

    from oracle import hypercube_adjacency

    return np.sort(np.linalg.eigvalsh(hypercube_adjacency(CLI_CUBE_DIM)))[::-1]


def _check_spectrum(d, out):
    import numpy as np

    doc = json.loads((d / "spectrum.json").read_text())
    values = np.array(doc["eigenvalues"])
    if values.shape != (1 << CLI_CUBE_DIM,) or np.abs(values - _cube_eigenvalues()).max() > 1e-9:
        return "eigenvalues differ from numpy.linalg.eigvalsh"
    distinct = [CLI_CUBE_DIM - 2 * h for h in range(CLI_CUBE_DIM + 1)]
    if len(doc["distinct"]) != len(distinct) or np.abs(np.array(doc["distinct"]) - distinct).max() > 1e-9:
        return f"distinct eigenvalues {doc['distinct']}"
    return None


def _hamming_classes() -> list[list[int]]:
    return [[u for u in range(1 << CLI_CUBE_DIM) if bin(u).count("1") == h] for h in range(CLI_CUBE_DIM + 1)]


def _check_minimality(d, out):
    doc = json.loads((d / "minimality.json").read_text())
    groups = [g["nodes"] for g in doc["groups"]]
    if (doc["group_count"], doc["distinct_eigenvalue_count"], doc["verdict"]) != (8, 8, "CONSISTENT"):
        return f"verdict {doc['group_count']}/{doc['distinct_eigenvalue_count']} {doc['verdict']}"
    return None if groups == _hamming_classes() else "groups are not the Hamming weight classes"


def _check_groups(d, out):
    import numpy as np

    doc = json.loads((d / "groups.json").read_text())
    if [g["nodes"] for g in doc["groups"]] != _hamming_classes():
        return "groups are not the Hamming weight classes"
    series = np.array([g["probability_series"] for g in doc["groups"]])
    if np.abs(series.sum(axis=0) - 1.0).max() > 1e-9:
        return "group probabilities do not sum to 1"
    return None


def _check_couplings(d, out):
    lines = (d / "couplings.csv").read_text().splitlines()
    expected = _line_couplings(CLI_CUBE_DIM)
    if lines[0] != "edge,coupling" or len(lines) != len(expected) + 1:
        return "bad coupling table"
    for h, (line, c) in enumerate(zip(lines[1:], expected)):
        edge, value = line.split(",")
        if edge != f"{h + 1}-{h + 2}" or abs(float(value) - c) > 1e-9 * c:
            return f"coupling row {line!r} != sqrt((h+1)(D-h)) = {c}"
    return None


def _check_compare_sink(d, out):
    rows = json.loads(out)
    devs = [row["max_deviation"] for row in rows]
    return None if len(devs) == 3 and max(devs) < SINK_TOLERANCE else f"deviations {devs}"


def _check_race(d, out):
    from oracle import torus_adjacency

    lines = (d / "race.csv").read_text().splitlines()
    if lines[0] != "pair,source,target,d,classical_steps,quantum_steps,winner":
        return "bad race header"
    records = []
    for line in lines[1:]:
        pair, src, tgt, dist, c, q, winner = line.split(",")
        steps = [None if int(s) < 0 else int(s) for s in (c, q)]
        records.append(RaceRow(int(pair), int(src), int(tgt), int(dist), *steps, winner))
    notes = check_races(torus_adjacency(TORUS_K), records, 0.1, 201, 1.0, 2)
    return "; ".join(notes) or None


_CLI_CHECKS = {
    "torus_build": _check_torus,
    "unitary": lambda d, out: _check_curve(d / "unitary.csv", CLI_TORUS_K**2, 201, 0.1),
    "classical": lambda d, out: _check_curve(d / "classical.csv", CLI_TORUS_K**2, 201, 0.1),
    "cube_build": _check_cube,
    "convolve": _check_convolve,
    "compare": _check_compare,
    "spectrum": _check_spectrum,
    "minimality": _check_minimality,
    "groups": _check_groups,
    "couplings": _check_couplings,
    "compare_sink": _check_compare_sink,
    "race": _check_race,
}

WORKLOADS = {w.name: w for w in (Race, Reproduce, Cli)}
