"""Every public call that takes a number either uses it or refuses it.

One derandomised property test feeds the bridge masses and samplers, the
deviation tail, the Dirichlet trace, the model classes and the config
parser NaN, +-inf, zero, negatives, 2.0 and 2.5 where an integer is
expected, numpy integers and endpoints of the wrong shape.  Each call must
return a finite value (or build its object) or raise ValueError or
TypeError with a message; none may raise IndexError, ZeroDivisionError or a
math domain error, or run past its deadline.  Endpoint coordinates stay
finite: the samplers carry them into the path as they are.
"""

import math

import numpy as np
import yaml
from hypothesis import given, settings, strategies as st

from loopgas import analytic, bridge, cli
from loopgas.model import Box, ExternalConfiguration, ModelParams, PairPotential

# usable values come up about twice as often as the ones to refuse
SPECIAL = [0, 0.0, -1.0, -2, math.nan, math.inf, -math.inf]
REALS = st.sampled_from([0.5, 1.0, 3.0, np.float64(0.7)] * 3 + SPECIAL)
INTS = st.sampled_from([1, 2, 3, np.int64(2), np.int32(1)] * 3 + [2.0, 2.5] + SPECIAL)
FUGACITY = st.lists(st.sampled_from([0.5, np.float64(0.7)] * 3 + [1.0] + SPECIAL),
                    min_size=1, max_size=2)
ENDPOINTS = st.sampled_from([[0.0], [0.5], [0.0, 1.0], np.zeros(2), np.ones((1, 2)), 0.25,
                             [[0.0], [1.0]], []])
POINTS = st.sampled_from([[[1.5, 0.0]], [[1.5, math.nan]], [[math.inf, 0.0]], [[1.5]],
                          [[1.2, 0.0, 0.0]], [], [[-1.5, 0.5]]])
MINIMAL = {"model": {"dimension": 2, "n_types": 1, "beta": 1.0, "fugacity": [0.5]},
           "geometry": {"box_half_side": 5.0}}
# number keys of the config by section: positive, or at least 0 (external.reach)
CONFIG_NUMBERS = [("model", "beta"), ("geometry", "box_half_side"),
                  ("geometry", "window_half_side"), ("external", "reach")]


def _finite(value):
    return all(math.isfinite(v) for v in np.ravel(np.asarray(value, dtype=float)))


def _draw_mass(draw, mass):
    value = mass(draw(ENDPOINTS), draw(ENDPOINTS), draw(INTS), draw(REALS))
    assert _finite(value) and (mass is bridge.log_bridge_mass or value >= 0.0)


def _draw_sample_bridge(draw):
    x = draw(ENDPOINTS)
    path = bridge.sample_bridge(x, x, draw(INTS), draw(INTS), draw(REALS),
                                np.random.default_rng(1))
    assert _finite(path.samples) and path.samples.shape[0] == path.k * path.slices_per_beta + 1


def _draw_sample_bridges(draw):
    shape = draw(st.sampled_from([(2, 1), (1, 2), (3,), (1, 2, 1), (0, 1)]))
    samples = bridge.sample_bridges(np.zeros(shape), np.ones(shape), draw(INTS), draw(INTS),
                                    draw(REALS), np.random.default_rng(1))
    assert _finite(samples)


def _draw_resample_leg(draw):
    path = bridge.sample_bridge([0.0, 0.0], [1.0, 0.0], 3, 4, 1.0, np.random.default_rng(1))
    assert _finite(bridge.resample_leg(path, draw(INTS), np.random.default_rng(2)).samples)


def _draw_deviation_tail(draw):
    tail = bridge.max_deviation_tail(draw(REALS), draw(INTS), draw(REALS), draw(REALS))
    assert 0.0 <= tail <= 1.0


def _draw_dirichlet_trace(draw):
    assert _finite(analytic.dirichlet_box_trace(draw(REALS), draw(REALS), draw(INTS)))


def _draw_pair_potential(draw):
    p = PairPotential(hard_core=draw(REALS), range_=draw(REALS), height=draw(REALS))
    assert 0.0 <= p.hard_core <= p.range < math.inf and 0.0 <= p.height < math.inf
    assert _finite(p.evaluate(np.linspace(p.hard_core, p.range + 1.0, 5)))


def _draw_box(draw):
    box = Box(tuple(draw(st.lists(REALS, min_size=1, max_size=3))), draw(REALS))
    assert _finite(box.center) and 0.0 < box.half_side < math.inf


def _draw_external(draw):
    box = Box((0.0, 0.0), 1.0)
    ext = ExternalConfiguration(box, [draw(POINTS)], max_range=draw(REALS))
    assert all(_finite(p) for p in ext.points)


def _draw_model(draw):
    fugacity = tuple(draw(FUGACITY))
    n_types = draw(st.sampled_from([len(fugacity)] * 3 + [2.0, 0, math.nan]))
    m = ModelParams(draw(INTS), n_types, draw(REALS), fugacity)
    assert m.dimension >= 1 and 0.0 < m.beta < math.inf


def _draw_config_number(draw):
    cfg = {section: dict(keys) for section, keys in MINIMAL.items()}
    section, key = draw(st.sampled_from(CONFIG_NUMBERS))
    value = draw(REALS)
    cfg.setdefault(section, {})[key] = float(value)
    if draw(st.booleans()):  # a number list, one entry per type
        cfg["model"]["fugacity"] = [float(draw(FUGACITY)[0])]
    cli.parse_config(yaml.safe_dump(cfg))  # a ConfigError is a ValueError
    assert math.isfinite(value)  # parsed: no number was NaN or inf


CALLS = {
    "bridge_mass": lambda draw: _draw_mass(draw, bridge.bridge_mass),
    "log_bridge_mass": lambda draw: _draw_mass(draw, bridge.log_bridge_mass),
    "sample_bridge": _draw_sample_bridge,
    "sample_bridges": _draw_sample_bridges,
    "resample_leg": _draw_resample_leg,
    "max_deviation_tail": _draw_deviation_tail,
    "dirichlet_box_trace": _draw_dirichlet_trace,
    "PairPotential": _draw_pair_potential,
    "Box": _draw_box,
    "ExternalConfiguration": _draw_external,
    "ModelParams": _draw_model,
    "parse_config": _draw_config_number,
}


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_numbers_are_used_or_refused(deadline, data):
    name = data.draw(st.sampled_from(sorted(CALLS)), label="call")
    try:
        with deadline(3.0):
            CALLS[name](data.draw)
    except (ValueError, TypeError) as exc:
        message = str(exc)
        assert message and message != "math domain error", (name, repr(exc))
