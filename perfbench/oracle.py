"""Independent reference solutions, computed from the problem files alone.

Nothing here imports ``minimaxpi``.  Separated and control models are
solved by padded-array value iteration in numpy; Markov games by
Hoffman-Karp policy iteration whose stage games go to scipy's HiGHS LP
solver and whose best-response evaluation is exact.  Each oracle returns
its table together with a certified a-posteriori error bound (Bertsekas,
*Abstract Dynamic Programming*): a residual r of a map with modulus a
pins the answer to within r/(1-a), and the stage-game values carry the
primal/dual gap of the LP solution.
"""

import json

import numpy as np

_TARGET = 1e-13


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _pad(rows, fill, dtype):
    width = max(len(r) for r in rows)
    out = np.full((len(rows), width), fill, dtype=dtype)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _iterate(step, x0, modulus, max_iters=100_000):
    """Iterate a contraction to a fixed point; returns (x, error bound)."""
    x = x0
    for _ in range(max_iters):
        new = step(x)
        r = float(np.max(np.abs(new - x)))
        x = new
        if r * modulus / (1.0 - modulus) <= _TARGET:
            return x, r * modulus / (1.0 - modulus)
    raise RuntimeError("oracle value iteration did not converge")


def _separated_arrays(payload):
    inf = np.inf
    n1 = _pad(payload["next1"], 0, int)
    c1 = _pad(payload["cost1"], inf, float)      # padded actions never win a min
    n2 = _pad(payload["next2"], 0, int)
    c2 = _pad(payload["cost2"], -inf, float)     # ... nor a max
    return n1, c1, n2, c2


def separated_values(path):
    """Minimizer table of a separated model: J1 = min(c1 + a J2), J2 = max(c2 + a J1)."""
    payload = _load(path)
    a = float(payload["alpha"])
    n1, c1, n2, c2 = _separated_arrays(payload)
    s1 = n1.shape[0]

    def step(j):
        j1, j2 = j[:s1], j[s1:]
        return np.concatenate(((c1 + a * j2[n1]).min(axis=1),
                               (c2 + a * j1[n2]).max(axis=1)))

    j, err = _iterate(step, np.zeros(s1 + n2.shape[0]), a)
    return j[:s1], err


def aggregate_values(path):
    """The lifted minimizer table of aggregate-solve's reduced problem.

    Representatives stand in for the full spaces through point-mass rows on
    the nearest representative by index (lowest index on ties); the
    reduced fixed point is lifted back through the same rows.
    """
    payload = _load(path)
    a = float(payload["alpha"])
    n1, c1, n2, c2 = _separated_arrays(payload)
    r1 = np.asarray(payload["aggregation"]["reps1"], dtype=int)
    r2 = np.asarray(payload["aggregation"]["reps2"], dtype=int)
    near1 = np.argmin(np.abs(np.arange(n1.shape[0])[:, None] - r1[None, :]), axis=1)
    near2 = np.argmin(np.abs(np.arange(n2.shape[0])[:, None] - r2[None, :]), axis=1)
    k1 = r1.size

    def step(j):
        t1, t2 = j[:k1], j[k1:]
        full1, full2 = t1[near1], t2[near2]
        return np.concatenate(((c1[r1] + a * full2[n1[r1]]).min(axis=1),
                               (c2[r2] + a * full1[n2[r2]]).max(axis=1)))

    j, err = _iterate(step, np.zeros(k1 + r2.size), a)
    return j[:k1][near1], err


def control_values(path):
    """J(x) = min_u max_v E[g + a J(next)] for a stochastic minimax control model."""
    payload = _load(path)
    a = float(payload["alpha"])
    outcomes = payload["outcomes"]
    s = len(outcomes)
    nu = max(len(per_u) for per_u in outcomes)
    nv = max(len(per_v) for per_u in outcomes for per_v in per_u)
    nk = max(len(cell) for per_u in outcomes for per_v in per_u for cell in per_v)
    prob = np.zeros((s, nu, nv, nk))
    cost = np.zeros((s, nu, nv, nk))
    nxt = np.zeros((s, nu, nv, nk), dtype=int)
    has_v = np.zeros((s, nu, nv), dtype=bool)
    for x, per_u in enumerate(outcomes):
        for u, per_v in enumerate(per_u):
            for v, cell in enumerate(per_v):
                has_v[x, u, v] = True
                for k, (p, g, y) in enumerate(cell):
                    prob[x, u, v, k], cost[x, u, v, k], nxt[x, u, v, k] = p, g, int(y)
    has_u = has_v.any(axis=2)

    def step(j):
        q = np.where(has_v, (prob * (cost + a * j[nxt])).sum(axis=3), -np.inf)
        return np.where(has_u, q.max(axis=2), np.inf).min(axis=1)

    return _iterate(step, np.zeros(s), a)


# ---------------------------------------------------------------------------
# Markov games
# ---------------------------------------------------------------------------


def _stage_value(mat):
    """min_u max_v u'Mv by HiGHS, with a certified value interval.

    Returns (value, minimizer strategy, interval width).  The width comes
    from the primal strategy (an upper bound on the value) and the dual
    strategy read off the LP's marginals (a lower bound).
    """
    from scipy.optimize import linprog

    n, m = mat.shape
    c = np.zeros(n + 1)
    c[-1] = 1.0
    a_ub = np.hstack((mat.T, -np.ones((m, 1))))
    a_eq = np.ones((1, n + 1))
    a_eq[0, -1] = 0.0
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(m), A_eq=a_eq, b_eq=[1.0],
                  bounds=[(0, None)] * n + [(None, None)], method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS failed on a stage game: {res.message}")
    u = np.clip(res.x[:n], 0.0, None)
    u /= u.sum()
    v = np.clip(-res.ineqlin.marginals, 0.0, None)
    v /= v.sum()
    upper = float(np.max(u @ mat))
    lower = float(np.min(mat @ v))
    return 0.5 * (upper + lower), u, max(upper - lower, 0.0)


def _game_arrays(payload):
    payoffs = np.asarray(payload["payoffs"], dtype=float)
    trans = np.asarray(payload["transitions"], dtype=float)
    a = float(payload["alpha"])
    # sup-norm modulus of the stage operator; substochastic rows shrink it
    modulus = a * float(np.max(trans.sum(axis=3)))
    return payoffs, trans, a, modulus


def _shapley(payoffs, trans, a, j):
    """One stage-game sweep: values, minimizer strategies, widest LP interval."""
    vals, mus, width = [], [], 0.0
    for x in range(payoffs.shape[0]):
        val, u, w = _stage_value(payoffs[x] + a * trans[x] @ j)
        vals.append(val)
        mus.append(u)
        width = max(width, w)
    return np.array(vals), np.array(mus), width


def _best_response_value(acol, pmat, a, j0):
    """Exact value of the maximizer's MDP against a fixed minimizer (PI)."""
    s = acol.shape[0]
    nu = np.argmax(acol + a * pmat @ j0, axis=1)
    for _ in range(10_000):
        rows = np.arange(s)
        j = np.linalg.solve(np.eye(s) - a * pmat[rows, nu], acol[rows, nu])
        q = acol + a * pmat @ j
        better = q[rows, nu] < q.max(axis=1) - 1e-13
        if not better.any():
            return j
        nu = np.where(better, np.argmax(q, axis=1), nu)
    raise RuntimeError("best-response policy iteration did not converge")


def game_values(path):
    """Equilibrium values of a discounted or terminating Markov game.

    Hoffman-Karp iteration: improve the minimizer by solving each stage game
    with HiGHS, then price it exactly against the maximizer's best response.
    The result is certified by one more stage-game sweep.
    """
    payoffs, trans, a, modulus = _game_arrays(_load(path))
    j = np.zeros(payoffs.shape[0])
    for _ in range(200):
        _, mu, _ = _shapley(payoffs, trans, a, j)
        acol = np.einsum("xi,xij->xj", mu, payoffs)
        pmat = np.einsum("xi,xijy->xjy", mu, trans)
        new = _best_response_value(acol, pmat, a, j)
        done = float(np.max(np.abs(new - j))) <= 1e-12
        j = new
        if done:
            break
    swept, _, width = _shapley(payoffs, trans, a, j)
    err = (float(np.max(np.abs(swept - j))) + width) / (1.0 - modulus)
    return j, err


KINDS = {
    "separated": separated_values,
    "aggregate": aggregate_values,
    "control": control_values,
    "game": game_values,
}


def solve(specs):
    """Compute every oracle table a workload names: {key: (values, error bound)}."""
    return {key: KINDS[kind](path) for key, (kind, path) in specs.items()}
