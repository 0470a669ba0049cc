"""Dense 2-D float64 math with hand-derived gradients.

Values are numpy arrays; every operation knows its own vector-Jacobian
product and records it on a Tape. There is no general graph machinery,
only the fixed op vocabulary the ranking model needs: ``ops`` holds
``matmul``, ``affine``, ``relu``, ``softmax_rows``, ``segment_attention``,
``concat_cols``, ``split_cols``, ``gather_rows``, ``add`` and ``mul``, and
the training loss is one node of its own (``training.bpr_loss_graph``).
"""

from pjfit.numerics.matrix import DimensionError, Matrix, Tape
from pjfit.numerics.params import Param, ParamStore
from pjfit.numerics.optim import TrainingDivergedError, adam_step, glorot_fill, training_hold
from pjfit.numerics.rng import seeded_rng, spawn_rngs
from pjfit.numerics import ops

__all__ = [
    "DimensionError",
    "Matrix",
    "Tape",
    "Param",
    "ParamStore",
    "TrainingDivergedError",
    "adam_step",
    "glorot_fill",
    "seeded_rng",
    "spawn_rngs",
    "training_hold",
    "ops",
]
