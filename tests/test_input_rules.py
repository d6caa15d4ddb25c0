"""Each input rule is written once, in ``linalg``, and every public entry that
takes a noise scale, a gap, a learning rate, a ridge penalty or a span
dimension goes through it: one message names the argument, and NaN and
infinity fail the rule as a negative value (or, for a positive magnitude,
zero) does. The span basis and the gap direction of both generators come
from one draw."""

import math
import re

import numpy as np
import pytest

from gaplab.bench import make_toy_task, train_decoder
from gaplab.c3 import C3Config
from gaplab.contrastive import TrainerConfig
from gaplab.linalg import _orthonormal_columns
from gaplab.worlds import make_gap_world

NON_NEGATIVE = [  # (name in the message, the entry built with that value)
    ("sigma", lambda v: C3Config(sigma=v)),
    ("sigma", lambda v: make_gap_world(50, 8, 3, 0.5, v, seed=0)),
    ("gap_norm", lambda v: make_gap_world(50, 8, 3, v, 0.05, seed=0)),
    ("sigma_align", lambda v: make_toy_task(n=200, sigma_align=v)),
    ("gap_norm", lambda v: make_toy_task(n=200, gap_norm=v)),
]
ENTRY_IDS = ["C3Config", "gap_world-sigma", "gap_world-gap_norm", "toy_task-sigma_align",
             "toy_task-gap_norm"]
POSITIVE = [  # (name in the message, the entry built with that value)
    ("lam", lambda v: train_decoder(np.ones((3, 2)), np.ones((3, 1)), lam=v)),
    ("learning rate", lambda v: TrainerConfig(learning_rate=v, steps=1000, renormalize_each_step=True,
                                              record_every=100, gradient_form="exact")),
]


@pytest.mark.parametrize("value", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name,build", NON_NEGATIVE, ids=ENTRY_IDS)
def test_non_negative_magnitudes_are_finite(name, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be finite and >= 0, got {value}")):
        build(value)


@pytest.mark.parametrize("value", [-1.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("name,build", POSITIVE, ids=["train_decoder", "TrainerConfig"])
def test_positive_magnitudes_are_finite(name, build, value):
    with pytest.raises(ValueError, match=re.escape(f"{name} must be positive and finite, got {value}")):
        build(value)


@pytest.mark.parametrize("span_dim,gap_norm,message", [
    (0, 0.5, "span_dim must be in [1, 8], got 0"),
    (9, 0.0, "span_dim must be in [1, 8], got 9"),
    (8, 0.5, "no orthogonal complement left for the gap: span_dim == d"),
])
def test_generators_share_the_frame_rules(span_dim, gap_norm, message):
    for build in (lambda: make_gap_world(50, 8, span_dim, gap_norm, 0.0, seed=0),
                  lambda: make_toy_task(n=50, d=8, span_dim=span_dim, gap_norm=gap_norm)):
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


@pytest.mark.parametrize("d,span_dim", [(16, 12), (12, 12)])
def test_generators_draw_one_frame(d, span_dim):
    # the span basis and the gap direction are the leading columns of one
    # orthonormal draw, the first thing either generator takes from its seed
    q = _orthonormal_columns(np.random.default_rng(4), d, min(span_dim + 1, d))
    gap_norm = 0.5 if span_dim < d else 0.0
    world = make_gap_world(50, d, span_dim, gap_norm, 0.05, seed=4)
    task = make_toy_task(n=50, d=d, span_dim=span_dim, gap_norm=gap_norm, seed=4)
    for basis in (world.span_basis, task.span_basis):
        assert np.array_equal(basis, q[:, :span_dim])
    if span_dim < d:
        assert np.array_equal(world.true_gap, gap_norm * q[:, span_dim])
        assert np.array_equal(task.gap_direction, q[:, span_dim])
    else:
        assert np.array_equal(world.true_gap, np.zeros(d))
        assert task.gap_direction is None
