"""Problem-file loading and canonical saving.

Files are versioned JSON.  Four kinds are supported: discounted and
terminating Markov games, alternating-move control models, and minimax
control with optional finite stochastic disturbances.  Saving is
canonical (sorted keys, repr-exact floats), so load/save round-trips are
byte-identical.

The models check their own invariants.  The loader checks JSON types,
turns list fields into arrays (refusing a ragged one), names the field a
model refuses by its ``$.`` path, and screens terminating games for
contraction.  Separated and control models read their lists into flat
arrays in one pass and check each invariant with one array expression,
naming the first bad entry in the order a walk over the lists meets it.
"""

import json
from dataclasses import dataclass

import numpy as np

from .errors import InputFieldError, NonContractive, ParseError, ValidationError
from .models import (DiscountedMarkovGame, MinimaxControlModel,
                     SeparatedMinimaxModel)
from .core import WeightedSpace

FORMAT_VERSION = 1
KINDS = ("discounted_markov_game", "terminating_markov_game",
         "separated_model", "minimax_control")


@dataclass(frozen=True)
class LoadedProblem:
    """A validated model plus the file-level solver hints."""

    kind: str
    model: object
    beta: float | None
    aggregation: dict | None


def _get(obj, key, path, expected=None, optional=False):
    if key not in obj:
        if optional:
            return None
        raise ValidationError("missing field", f"{path}.{key}")
    value = obj[key]
    if expected is not None and value is not None and not isinstance(value, expected):
        raise ValidationError(f"expected {expected}", f"{path}.{key}")
    return value


def _numbers(payload, key, path, optional=False):
    """List field ``key`` as a float array (None if optional and absent),
    refused at ``path.key`` if it is ragged or holds something other than
    numbers, in place of numpy's error."""
    raw = _get(payload, key, path, list, optional)
    if raw is None:
        return None
    try:
        return np.asarray(raw, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{key} must be a rectangular list of numbers",
                              f"{path}.{key}") from exc


def _build(path, model, *args, **kwargs):
    """``model(*args, **kwargs)``, its ``ValueError`` refused at ``path``,
    or at the field an :class:`InputFieldError` names."""
    try:
        return model(*args, **kwargs)
    except InputFieldError as exc:
        raise ValidationError(str(exc), f"{path}.{exc.field}") from exc
    except ValueError as exc:
        raise ValidationError(str(exc), path) from exc


def _load_markov_game(payload, terminating, path):
    alpha = _get(payload, "alpha", path, (int, float))
    payoffs = _numbers(payload, "payoffs", path)
    transitions = _numbers(payload, "transitions", path)
    weights = _numbers(payload, "weights", path, optional=True)
    game = _build(path, DiscountedMarkovGame, payoffs, transitions, float(alpha),
                  terminating=terminating, weights=weights)
    if terminating:
        factor = game.contraction_factor()
        if not factor < 1.0:
            raise NonContractive(
                f"terminating game has contraction factor {factor:.6f} >= 1")
    return game


def _space(payload, key, size, path):
    """The space of ``size`` states, weighted by ``key`` if the file gives it."""
    weights = _numbers(payload, key, path, optional=True)
    if weights is None:
        return _build(path, WeightedSpace.unit, size)
    return _build(f"{path}.{key}", WeightedSpace, size, weights)


def _load_separated_model(payload, path):
    alpha = float(_get(payload, "alpha", path, (int, float)))
    size1 = int(_get(payload, "size1", path, int))
    size2 = int(_get(payload, "size2", path, int))
    lists = [_get(payload, key, path, list) for key in ("next1", "cost1", "next2", "cost2")]
    space1 = _space(payload, "weights1", size1, path)
    space2 = _space(payload, "weights2", size2, path)
    return _build(path, SeparatedMinimaxModel, space1, space2, *lists, alpha)


def _load_minimax_control(payload, path):
    alpha = float(_get(payload, "alpha", path, (int, float)))
    outcomes = _get(payload, "outcomes", path, list)
    space = _space(payload, "weights", len(outcomes), path)
    return _build(path, MinimaxControlModel, space, outcomes, alpha)


def load_problem(path):
    """Parse and validate a problem file; returns a :class:`LoadedProblem`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed problem file {path}: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError("problem file must hold a JSON object")
    version = _get(payload, "format", "$", int)
    if version != FORMAT_VERSION:
        raise ValidationError(f"unsupported format version {version}", "$.format")
    kind = _get(payload, "kind", "$", str)
    if kind not in KINDS:
        raise ValidationError(f"unknown kind {kind!r}", "$.kind")
    if kind in ("discounted_markov_game", "terminating_markov_game"):
        model = _load_markov_game(payload, kind == "terminating_markov_game", "$")
    elif kind == "separated_model":
        model = _load_separated_model(payload, "$")
    else:
        model = _load_minimax_control(payload, "$")
    beta = _get(payload, "beta", "$", (int, float), optional=True)
    aggregation = payload.get("aggregation")
    if aggregation is not None and not isinstance(aggregation, dict):
        raise ValidationError("aggregation must be an object", "$.aggregation")
    return LoadedProblem(kind, model, beta, aggregation)


def _canonical(obj):
    if isinstance(obj, np.ndarray):
        return _canonical(obj.tolist())
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return obj


def save_problem(payload, path):
    """Write a problem payload as canonical JSON (stable across round-trips)."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_canonical(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def game_payload(game):
    """Serialize a Markov game back into the file schema."""
    kind = "terminating_markov_game" if game.terminating else "discounted_markov_game"
    payload = {
        "format": FORMAT_VERSION,
        "kind": kind,
        "alpha": game.alpha,
        "payoffs": game.payoffs.tolist(),
        "transitions": game.transitions.tolist(),
    }
    if game.weights is not None:
        payload["weights"] = game.weights.tolist()
    return payload
