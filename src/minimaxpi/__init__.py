"""Solvers for sequential zero-sum games and minimax control.

Classical policy-iteration baselines, an interleavable asynchronous
policy iteration with certified uniform contraction, exact matrix-game
LP solving, and aggregation over representative states.
"""

from .core import (HalfStage, HalfStageProblem, PolicyPair, SeparatedProblem,
                   TabularProblem, ValueTable, WeightedSpace, bellman_residual,
                   certify, check_monotone, estimate_modulus,
                   policy_pair_value, value_iterate)
from .matrix_game import SaddleSolution, min_simplex_max_linear, solve_matrix_game
from .models import (BetaScaling, ColumnMaxTable, DiscountedMarkovGame,
                     MinimaxControlModel, SeparatedMinimaxModel,
                     default_beta, markov_H, markov_game_to_control,
                     minimax_control_to_problem, separate_markov_game,
                     separated_model_to_problem, shapley_value_iteration)
from .classic_pi import (PIResult, PIStatus, detect_cycle,
                         find_oscillating_game, hoffman_karp,
                         naive_separated_pi, pollatschek_avi_itzhak)
from .async_pi import (AlgoState, Kind, Operation, Schedule,
                       check_minmax_nonexpansive, delayed, initial_state,
                       max_eval_step, max_improve_step, min_eval_step,
                       min_improve_step, partitioned, random_fair,
                       round_robin, run, verify_uniform_contraction)
from .aggregation import (AggregateProblem, AggregationProbabilities,
                          RepresentativeSets, build_aggregate, interpolate,
                          lookahead_policies, solve_with_aggregation)
from .problem_io import LoadedProblem, load_problem, save_problem

__version__ = "0.1.0"
