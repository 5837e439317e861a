"""Seeded problem files and the request list of each benchmark workload.

Every workload turns ``--seed`` into JSON problem files written with the
standard library, so the program under test sees only its file format.
A request is one ``minimaxpi`` command line plus what the check needs to
judge its answer: the expected exit code, the oracle table it must match
and the accuracy the algorithm documents.
"""

import json
import os
from dataclasses import dataclass, field

import numpy as np

TOL = 1e-8
ALPHA = 0.9
ALGOS = ("vi", "async", "hk", "poa", "aggregate")


@dataclass(frozen=True)
class Request:
    """One CLI invocation and how to judge it."""

    name: str
    argv: tuple
    algo: str
    exit_code: int = 0
    oracle: str | None = None   # key into the oracle tables; None: no table check
    bound: float = 0.0          # allowed sup-norm miss, in the scale the CLI prints
    outputs: tuple = ()         # files the request writes, hashed across passes

    @property
    def kind(self):
        """Which part of solve_s the request counts towards."""
        return "async" if self.algo == "async" else "baseline"


@dataclass
class Workload:
    problems: list = field(default_factory=list)      # problem file paths
    requests: list = field(default_factory=list)
    oracle_specs: dict = field(default_factory=dict)  # key: (oracle kind, path)


def _rng(seed, stream):
    return np.random.default_rng([int(seed), stream])


def _write(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def _residual_bound(modulus, scale=1.0):
    """Accuracy of a residual-stopped iteration: tol*a/(1-a), times the CLI's scale."""
    return scale * TOL * modulus / (1.0 - modulus)


def _balanced_counts(rng, n, low, high):
    """n counts from low..high, each value equally often, in random order.

    Drawing each count independently would let the total, and with it the
    work of a solve, differ between seeds by several percent."""
    counts = np.resize(np.arange(low, high + 1), n)
    rng.shuffle(counts)
    return [int(c) for c in counts]


def separated_payload(rng, size1, size2, max_actions, alpha):
    def side(size, targets):
        nxt, cost = [], []
        for k in _balanced_counts(rng, size, 1, max_actions):
            nxt.append([int(v) for v in rng.integers(0, targets, k)])
            cost.append([float(v) for v in rng.uniform(-1.0, 1.0, k)])
        return nxt, cost

    next1, cost1 = side(size1, size2)
    next2, cost2 = side(size2, size1)
    return {"format": 1, "kind": "separated_model", "alpha": alpha,
            "size1": size1, "size2": size2,
            "next1": next1, "cost1": cost1, "next2": next2, "cost2": cost2}


def game_payload(rng, states, n, m, alpha, cyclic=False):
    """Random discounted Markov game.  With ``cyclic`` (n == m) each stage
    payoff is a rock-paper-scissors cycle plus noise of the same size, so
    that every stage game has a mixed saddle and goes to the LP."""
    payoffs = rng.uniform(-1.0, 1.0, (states, n, m))
    if cyclic:
        index = np.arange(n)
        payoffs[:, index, (index + 1) % n] += 1.0
        payoffs[:, index, (index - 1) % n] -= 1.0
    q = rng.uniform(0.05, 1.0, (states, n, m, states))
    q /= q.sum(axis=3, keepdims=True)
    return {"format": 1, "kind": "discounted_markov_game", "alpha": alpha,
            "payoffs": payoffs.tolist(), "transitions": q.tolist()}


def control_payload(rng, states, max_u, max_v, alpha):
    controls = _balanced_counts(rng, states, 1, max_u)
    moves = _balanced_counts(rng, sum(controls), 1, max_v)
    branches = iter(_balanced_counts(rng, sum(moves), 2, 3))
    moves = iter(moves)
    outcomes = []
    for n_u in controls:
        per_u = []
        for _ in range(n_u):
            per_v = []
            for _ in range(next(moves)):
                k = next(branches)
                p = rng.dirichlet(np.ones(k))
                per_v.append([[float(p[i]), float(rng.uniform(-1.0, 1.0)),
                               int(rng.integers(states))] for i in range(k)])
            per_u.append(per_v)
        outcomes.append(per_u)
    return {"format": 1, "kind": "minimax_control", "alpha": alpha,
            "outcomes": outcomes}


def _solve(path, algo, *extra):
    return ("solve", path, "--algo", algo, "--tol", repr(TOL)) + tuple(extra)


# Problem sizes: small enough that a pass takes a few seconds, so that a
# run repeats every request four times or more and its medians are not
# those of one or two samples (see run.py).
SEP_STATES = 250          # per side of the separated model
SEP_REPS = 25             # aggregation representatives per side
CONTROL_STATES = 100
GAME_STATES = 10


def separated_set(seed, workdir):
    """Separated model, SEP_STATES per side: vi, async round robin, aggregate-solve."""
    wl = Workload()
    payload = separated_payload(_rng(seed, 1), SEP_STATES, SEP_STATES, 3, ALPHA)
    reps = list(range(0, SEP_STATES, SEP_STATES // SEP_REPS))
    payload["aggregation"] = {"reps1": reps, "reps2": reps}
    path = os.path.join(workdir, "sep.json")
    _write(path, payload)
    wl.problems.append(path)
    wl.oracle_specs["sep"] = ("separated", path)
    wl.oracle_specs["sep.agg"] = ("aggregate", path)
    # unit weights: the separated problem's modulus is alpha
    wl.requests += [
        Request("sep.vi", _solve(path, "vi"), "vi", oracle="sep",
                bound=_residual_bound(ALPHA)),
        Request("sep.async", _solve(path, "async", "--schedule", "round_robin:k=10"),
                "async", oracle="sep", bound=TOL),
        Request("sep.aggregate", ("aggregate-solve", path, "--tol", repr(TOL)),
                "aggregate", oracle="sep.agg", bound=TOL),
    ]
    return wl


BASELINE_GAMES = 3


def games_set(seed, workdir):
    """GAME_STATES-state 3x3 discounted Markov games: hk, poa and Shapley vi
    on each of three, async on the first.

    The stage games are cyclic (see ``game_payload``).  In fully random
    games the share of stage games with a pure saddle varies, and with it
    Shapley VI's LP count: by ~11% between instances, against ~6% for
    cyclic ones.  Three instances average the rest.
    """
    wl = Workload()
    beta = 1.0 / np.sqrt(ALPHA)   # the CLI's default half-stage scaling
    rng = _rng(seed, 2)
    for g in range(BASELINE_GAMES):
        key = f"game{g}"
        path = os.path.join(workdir, f"{key}.json")
        _write(path, game_payload(rng, GAME_STATES, 3, 3, ALPHA, cyclic=True))
        wl.problems.append(path)
        wl.oracle_specs[key] = ("game", path)
        # quick requests first, so that their re-timing spans the pass
        wl.requests += [
            Request(f"{key}.{algo}", _solve(path, algo), algo, oracle=key,
                    bound=_residual_bound(ALPHA))
            for algo in ("hk", "poa", "vi")]
    first = wl.problems[0]
    wl.requests.append(Request("game0.async", _solve(first, "async"), "async",
                               oracle="game0", bound=beta * TOL))
    return wl


# Each small game runs under one of the three schedules, in turn.
SMALL_GAMES = 3
COUNTEREXAMPLE = "counterexample.json"


def small_games_set(seed, workdir):
    """Seeded 4-state 2x2 games, each under one of three async schedules,
    plus the counterexample on which poa must cycle and async must converge.

    The counterexample file is the one ``minimaxpi counterexample`` writes;
    the driver generates it into ``workdir`` first.  Quick requests come
    first, so that their re-timing spans the rest of the pass."""
    wl = Workload()
    counterexample_path = os.path.join(workdir, COUNTEREXAMPLE)
    beta = 1.0 / np.sqrt(ALPHA)
    wl.problems.append(counterexample_path)
    wl.oracle_specs["cx"] = ("game", counterexample_path)
    wl.requests += [
        Request("cx.poa", _solve(counterexample_path, "poa"), "poa", exit_code=2),
        Request("cx.async", _solve(counterexample_path, "async"), "async",
                oracle="cx", bound=beta * TOL),
    ]
    rng = _rng(seed, 3)
    for g in range(SMALL_GAMES):
        key = f"small{g}"
        path = os.path.join(workdir, f"{key}.json")
        _write(path, game_payload(rng, 4, 2, 2, ALPHA))
        wl.problems.append(path)
        wl.oracle_specs[key] = ("game", path)
        schedules = (f"random:seed={int(rng.integers(1 << 20))}", "partitioned:p=4",
                     "delayed:B=5,inner=round_robin")
        sched = schedules[g % len(schedules)]
        wl.requests.append(Request(
            f"{key}.async.{sched.split(':')[0]}",
            _solve(path, "async", "--schedule", sched), "async",
            oracle=key, bound=beta * TOL))
    return wl


def control_set(seed, workdir):
    """CONTROL_STATES-state stochastic minimax control: vi, and async under a
    delayed partitioned schedule writing its values and trace CSVs."""
    wl = Workload()
    path = os.path.join(workdir, "control.json")
    _write(path, control_payload(_rng(seed, 4), CONTROL_STATES, 3, 3, ALPHA))
    wl.problems.append(path)
    wl.oracle_specs["control"] = ("control", path)
    beta = 1.0 / np.sqrt(ALPHA)
    # the half-stage split contracts at max(1/beta, alpha*beta) = sqrt(alpha)
    modulus = max(1.0 / beta, ALPHA * beta)
    out = os.path.join(workdir, "control.values.csv")
    trace = os.path.join(workdir, "control.trace.csv")
    wl.requests += [
        Request("control.vi", _solve(path, "vi"), "vi", oracle="control",
                bound=_residual_bound(modulus, beta)),
        Request("control.async", _solve(path, "async", "--schedule",
                                "delayed:B=3,inner=partitioned:p=8",
                                "--out", out, "--trace", trace),
                "async", oracle="control", bound=beta * TOL, outputs=(out, trace)),
    ]
    return wl


def _merge(*parts):
    wl = Workload()
    for part in parts:
        wl.problems += part.problems
        wl.requests += part.requests
        wl.oracle_specs.update(part.oracle_specs)
    return wl


# Two workloads, each the union of two request sets, so that one run holds
# enough work to average out this box's drifting single-core speed.  The
# first never enters the LP layer; the second is LP-bound.
BUILDERS = {
    "sep-control": lambda seed, workdir: _merge(separated_set(seed, workdir),
                                                control_set(seed, workdir)),
    "games": lambda seed, workdir: _merge(games_set(seed, workdir),
                                          small_games_set(seed, workdir)),
}
