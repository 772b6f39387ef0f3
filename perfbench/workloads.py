"""The benchmark workloads: seeded inputs, one session each, and checks.

A session is a fixed short sequence of operations, run by a generator
that yields after each one, so the runner can time operations one by
one.  An operation is one CLI call, made in-process through
``spectral_walks.cli.run`` with stdout captured, or one library call.
Each yields an OpResult that says whether it failed (it raised, exited
with code 2, produced output of the wrong shape, or stepped along a
zero-probability transition), how many check verdicts it produced and
which of them failed, and a sha256 digest of its output for the
determinism replay.

Inputs are drawn from the workload seed with the benchmark's own
``random.Random``; the program only sees the generated files and words.
Layer functions are always looked up on their module at call time, so
the wrappers a Tracer installs see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import traceback
from dataclasses import dataclass, field

import numpy as np

from spectral_walks import circle, cli, graphs, walks

# a sampled check row that misses its exact value by no more than this is
# a rounding difference, not a sampling one (see the martingale false failure)
ROUNDING = 1e-12

# kinds of failed check rows that are known false failures of the walks
# checks at the parent commit; they are counted, never filtered
FALSE_FAILURES = {
    "rounding": "martingale_check: h constant over the neighbours, estimate and exact differ by rounding while se is rounding noise",
    "unsampled_transition": "a rare transition (p ~ 0.01) never drawn among >= 100 visits: the mean misses that branch and se ignores it (se = 0 gives markov_check an infinite sigma)",
    "zero_se": "walk sim: a rare state (mass ~ 1e-4) never visited, so estimate and se are both 0 and the sigma is infinite",
}


@dataclass
class OpResult:
    label: str
    failed: bool = False
    verdicts: int = 0
    verdict_fails: list = field(default_factory=list)  # one category per failed verdict
    digest: str = ""
    note: str = ""


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else str(p).encode())
        h.update(b"\0")
    return h.hexdigest()


def parse_tables(text: str) -> dict:
    """CSV output of the CLI as {table name: list of rows (header first)}."""
    tables = {}
    current = None
    for line in text.splitlines():
        if line.startswith("# table="):
            current = tables.setdefault(line[len("# table="):], [])
        elif line.startswith("#"):
            current = None
        elif current is not None:
            current.append(line.split(","))
    return tables


def run_cli(label: str, argv: list, shape: dict) -> OpResult:
    """One CLI call; shape maps each expected table to its data-row count."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run(argv)
    except Exception:
        return OpResult(label, failed=True, note=traceback.format_exc(limit=3))
    text = out.getvalue()
    res = OpResult(label, verdicts=1, digest=_digest(rc, text))
    if rc not in (0, 1):
        res.failed = True
        res.note = f"exit {rc}: {err.getvalue().strip()}"
        return res
    tables = parse_tables(text)
    if rc == 1:
        res.verdict_fails.append(f"{label}.{failed_rows_kind(tables)}")
    for name, rows in shape.items():
        got = len(tables.get(name, [])) - 1
        if got != rows:
            res.failed = True
            res.note = f"table {name}: {got} rows, expected {rows}"
    return res


def failed_rows_kind(tables: dict) -> str:
    """Kind of the rows beyond 5 sigma in CLI check tables: zero_se, 5sigma, or exit1 if none."""
    kinds = set()
    for rows in tables.values():
        if "sigmas" not in rows[0]:
            continue
        se, sig = rows[0].index("se"), rows[0].index("sigmas")
        for row in rows[1:]:
            if row[sig] not in ("", "nan") and float(row[sig]) > 5.0:
                kinds.add("zero_se" if float(row[se]) == 0.0 else "5sigma")
    return "+".join(sorted(kinds)) or "exit1"


def run_lib(label: str, fn) -> tuple:
    """One library call; fn returns (value, OpResult fields as a dict)."""
    try:
        value, fields = fn()
    except Exception:
        return None, OpResult(label, failed=True, note=traceback.format_exc(limit=3))
    return value, OpResult(label, **fields)


def report_verdict(label: str, rep, unsampled) -> dict:
    """Digest and verdict of a CheckReport, naming the kind of each failed row.

    rounding: estimate and exact differ only by rounding (h constant over
    the neighbours, so se is rounding noise too).  unsampled_transition:
    a positive-probability transition out of the row's state was never
    drawn, so the sample mean is off by that branch and se ignores it
    (se = 0 gives an infinite sigma).  5sigma: neither.
    """
    rows = [(r.label, float(r.estimate).hex(), float(r.exact).hex(), float(r.se).hex()) for r in rep.rows]
    fields = {"verdicts": 1, "digest": _digest(rows, rep.skipped)}
    if not rep.passed:
        bad = [r for r in rep.rows if r.sigmas > rep.threshold]
        kinds = set()
        for r in bad:
            if abs(r.estimate - r.exact) <= ROUNDING:
                kinds.add("rounding")
            elif unsampled(r.label):
                kinds.add("unsampled_transition")
            else:
                kinds.add("5sigma")
        fields["verdict_fails"] = [f"{label}.{'+'.join(sorted(kinds))}"]
        fields["note"] = f"{len(bad)} of {len(rep.rows)} rows beyond {rep.threshold} sigma"
    return fields


def unsampled_transitions(chain, here: np.ndarray, there: np.ndarray):
    """Predicate on a row label: some transition out of that state was never drawn."""
    index = {str(s): i for i, s in enumerate(chain.states)}

    def check(label) -> bool:
        i = index[label]
        drawn = np.unique(there[here == i])
        return bool(np.setdiff1d(np.nonzero(chain.kernel[i] > 0)[0], drawn).size)

    return check


def words_up_to(depth: int) -> list:
    """Nonempty binary words of length <= depth, shortest first."""
    out, level = [], [""]
    for _ in range(depth):
        level = [w + d for w in level for d in "01"]
        out.extend(level)
    return out


# ---------------------------------------------------------------- inputs

def dyadic_graph(rng: random.Random, depth: int = 8, chords: int = 128, cmax: int = 59) -> dict:
    """A depth-`depth` dyadic tree plus random chords, integer conductances 1..cmax.

    Vertex v > 0 hangs below (v - 1) // 2, so the tree keeps all its
    leaves; chords join distinct, not yet adjacent vertices.  Mixed
    conductances give the skewed rows the sampler has to resolve.
    """
    n = (1 << (depth + 1)) - 1
    edges = {((v - 1) // 2, v): rng.randint(1, cmax) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        a, b = sorted((rng.randrange(n), rng.randrange(n)))
        if a != b and (a, b) not in edges:
            edges[(a, b)] = rng.randint(1, cmax)
    return {
        "vertices": list(range(n)),
        "edges": [{"u": a, "v": b, "c": c} for (a, b), c in edges.items()],
        "origin": 0,
    }


def farthest_vertex(doc: dict) -> int:
    """The vertex farthest from the origin in hops; the smallest id on ties."""
    adj = {v: [] for v in doc["vertices"]}
    for e in doc["edges"]:
        adj[e["u"]].append(e["v"])
        adj[e["v"]].append(e["u"])
    dist = {doc["origin"]: 0}
    frontier = [doc["origin"]]
    while frontier:
        nxt = []
        for x in frontier:
            for y in adj[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    far = max(dist.values())
    return min(v for v, d in dist.items() if d == far)


# ---------------------------------------------------------------- workloads

class WalkSparse:
    """walk sim on a 511-vertex tree-plus-chords graph, then the walks layer on it."""

    threads = 1
    paths = 5000

    def __init__(self, seed: int, tmpdir: str):
        doc = dyadic_graph(random.Random(seed))
        self.graph_path = os.path.join(tmpdir, "graph.json")
        with open(self.graph_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        self.n = len(doc["vertices"])
        fm = walks.FiniteMarkov.from_graph(graphs.load_graph(doc))
        self.origin, self.far = doc["origin"], farthest_vertex(doc)
        kernel = fm.kernel.copy()
        for x in (self.origin, self.far):
            i = fm.index[x]
            kernel[i] = 0.0
            kernel[i, i] = 1.0
        self.chain = walks.FiniteMarkov(fm.states, kernel, fm.mu0)
        self.path_steps = 32 * self.paths + 16 * self.paths

    def session(self, seed: int):
        yield run_cli("walk_sim", ["walk", "sim", "--graph", self.graph_path, "--steps", "32",
                                   "--paths", str(self.paths), "--seed", str(seed)],
                      {"stationary": self.n, "covariance": 9})
        chain = self.chain

        def solve():
            h = walks.harmonic_solve(chain, {self.origin: 0.0, self.far: 1.0})
            vals = np.array([h[s] for s in chain.states])
            ok = h[self.origin] == 0.0 and h[self.far] == 1.0 and bool(np.all((vals >= 0) & (vals <= 1)))
            return h, {"failed": not ok, "digest": _digest(vals.tobytes())}

        h, res = run_lib("harmonic_solve", solve)
        yield res

        def sim():
            ens = walks.simulate(chain, 16, self.paths, seed)
            traj = ens.trajectories
            zero = int(np.count_nonzero(chain.kernel[traj[:, :-1], traj[:, 1:]] <= 0.0))
            note = f"{zero} zero-probability transitions" if zero else ""
            return ens, {"failed": zero > 0, "digest": _digest(traj.tobytes()), "note": note}

        ens, res = run_lib("simulate", sim)
        yield res
        if h is None or ens is None:
            for label in ("markov_check", "martingale_check"):
                yield OpResult(label, failed=True, note="no input")
            return
        traj = ens.trajectories
        step = 8
        yield run_lib("markov_check", lambda: (None, report_verdict(
            "markov_check", walks.markov_check(ens, chain, h, step),
            unsampled_transitions(chain, traj[:, step], traj[:, step + 1]))))[1]
        yield run_lib("martingale_check", lambda: (None, report_verdict(
            "martingale_check", walks.martingale_check(ens, h),
            unsampled_transitions(chain, traj[:, :-1], traj[:, 1:]))))[1]


class SolenoidFir:
    """Three solenoid walks on the thread pool: a 4-tap filter file, haar, half."""

    threads = 2
    steps = 40
    paths = 40000

    def __init__(self, seed: int, tmpdir: str):
        self.filter_path = os.path.join(tmpdir, "four_tap.json")
        with open(self.filter_path, "w", encoding="utf-8") as fh:
            json.dump({"a": list(circle.four_tap_filter().taps), "degree": 2}, fh)
        self.path_steps = 3 * self.steps * self.paths

    def session(self, seed: int):
        common = ["--steps", str(self.steps), "--paths", str(self.paths), "--seed", str(seed)]
        for name, w in (("four_tap", self.filter_path), ("haar", "haar"), ("half", "half")):
            yield run_cli(f"solenoid_{name}", ["solenoid", "walk", "--w", w] + common, {"covariance": 9})


class ExactForms:
    """verify all, a 131 KB dipole table and a 40-word Gram eigensystem."""

    threads = 1
    dipole_depth = 12
    word_depth = 6
    path_steps = 0

    def __init__(self, seed: int, tmpdir: str):
        rng = random.Random(seed)
        self.w6 = "".join(rng.choice("01") for _ in range(6))
        # exactly 40 distinct words, so the work per session does not depend on the seed
        self.f40 = rng.sample(words_up_to(self.word_depth), 40)

    def session(self, seed: int):
        s = ["--seed", str(seed)]
        yield run_cli("verify_all", ["verify", "all"] + s, {})
        yield run_cli("tree_dipole", ["tree", "dipole", "--x", self.w6, "--depth", str(self.dipole_depth)] + s,
                      {"dipole": (1 << (self.dipole_depth + 1)) - 1})
        yield run_cli("spectra_gram", ["spectra", "gram", "--words", ",".join(self.f40),
                                       "--depth", str(self.word_depth)] + s,
                      {"gram": 40, "eigensystem": 40})


WORKLOADS = {
    "walk_sparse": WalkSparse,
    "solenoid_fir": SolenoidFir,
    "exact_forms": ExactForms,
}
