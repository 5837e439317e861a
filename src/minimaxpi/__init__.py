"""Solvers for sequential zero-sum games and minimax control.

Classical policy-iteration baselines, an interleavable asynchronous
policy iteration whose runs certify their own answers, exact matrix-game
LP solving, and aggregation over representative states.
"""

from .core import (HalfStage, HalfStageProblem, PolicyPair, SeparatedProblem,
                   TabularProblem, ValueTable, WeightedSpace, certify,
                   policy_pair_value, value_iterate)
from .matrix_game import SaddleSolution, min_simplex_max_linear, solve_matrix_game
from .models import (ColumnMaxTable, DiscountedMarkovGame, MinimaxControlModel,
                     SeparatedMinimaxModel, minimax_control_to_problem,
                     separate_markov_game, separated_model_to_problem,
                     shapley_value_iteration, split_beta)
from .classic_pi import (PIResult, PIStatus, detect_cycle,
                         find_oscillating_game, hoffman_karp,
                         naive_separated_pi, pollatschek_avi_itzhak)
from .async_pi import (AlgoState, Kind, Operation, Schedule, delayed,
                       initial_state, partitioned, random_fair, round_robin, run)
from .aggregation import (AggregationProbabilities, RepresentativeSets,
                          build_aggregate, interpolate, lookahead_policies,
                          solve_with_aggregation)
from .problem_io import LoadedProblem, load_problem, save_problem

__version__ = "0.1.0"
