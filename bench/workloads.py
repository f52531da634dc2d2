"""Seeded workload plans.

A plan is a JSON-able list of operations; each operation is one public
qfluct call that returns one result.  Plans are drawn here from the
workload seed with the standard library only, so the program receives
nothing but the generated inputs.  Where the seed draws inputs, it draws
their values (phases, factor splits, symmetry images) and never their
shape, so the work done, the counters and the number of operations are
the same for every seed.
"""

from __future__ import annotations

import math
import random

# Layer and circuit parameters are the README example configs and the
# acceptance criteria they come from.
LAYER = {"epsilon": 0.0, "t_c": 1.0, "beta": 2.0, "mu": 0.3}

LAYER_SWEEP_N = [32, 64, 128, 256, 512, 1024, 2048]
EVOLUTION_TIME = 1.0

WORD_BATCH_N = [256, 1024]
WORD_BATCH_DENSE_N = 6
WORD_BATCH_WORDS = 100
WORD_BATCH_DENSE_WORDS = 10

JUNCTION = {"left": {"epsilon": 0.0, "t_c": 1.0}, "right": {"epsilon": 0.0, "t_c": 1.0},
            "beta": 2.0, "lam": 1.0, "e_c": 0.4, "n_g": 0.2}
JUNCTION_N = [2, 4, 6, 8, 12, 20]
JUNCTION_TIME = 0.3

# Element shapes of junction_sweep.  The seed picks one image of each under
# the symmetries of two identical layers (negate every charge, swap the
# layers, swap source and target), which leave the set of contributing
# sector pairs and chain lengths unchanged.  Only single-pair charge
# states (|n| <= 1 per layer) are drawn: criterion 7's monotone error trend
# is stated for them; at two pairs per layer the error is not monotone in
# N below N = 8.
JUNCTION_SHAPES = [((0, 0), (1, -1)), ((1, 0), (0, 1))]
JUNCTION_VIOLATING = [((0, 0), (1, 1)), ((1, 0), (0, 0)), ((0, -1), (1, 0))]

DYSON_CIRCLE = {"e_c": 1.0, "e_j": 1.0, "n_g": 0.0, "n_max": 8, "time": 0.5,
                "orders": list(range(9))}
DYSON_JUNCTION = {"left": {"epsilon": 0.2, "t_c": 1.0}, "right": {"epsilon": 0.0, "t_c": 1.2},
                  "beta": 2.0, "lam": 0.8, "e_c": 0.5, "n_g": 0.25,
                  "time": 0.4, "n_list": [4, 6], "orders": list(range(5)),
                  "elements": [[[0, 0], [0, 0]], [[0, 0], [1, -1]],
                               [[1, -1], [1, -1]], [[1, 0], [0, 1]]]}
CIRCLE_JOB = {"e_c": 1.0, "e_j": 0.2, "n_g": 0.5, "n_max": 32, "levels": 5,
              "dispersion_points": 21, "phase_points": 25, "packet_width": 0.3}
FREE_CIRCLE = {"e_c": 1.0, "e_j": 0.0, "n_g": 0.3, "n_max": 16, "levels": 5}


def _split(rng: random.Random, total: int, parts: int):
    """Random composition of ``total`` into ``parts`` non-negative integers."""
    cuts = sorted(rng.randint(0, total) for _ in range(parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [total])]


def _word(rng: random.Random, raises: int, lowers: int, factors: int):
    ups = _split(rng, raises, factors)
    downs = _split(rng, lowers, factors)
    return [[rng.uniform(-math.pi, math.pi), n, m] for n, m in zip(downs, ups)]


def _word_shape(i: int):
    """(raises, lowers) of word i: seven in ten balanced with 1..5 pairs,
    three in ten unbalanced, so every seed walks the same ladder steps."""
    slot = i % 10
    if slot < 7:
        k = 1 + (i // 10 + slot) % 5
        return k, k
    m = 1 + (i // 10) % 3
    return (m, m + slot - 6) if slot % 2 else (m + slot - 6, m)


def _op(kind, **fields):
    return {"kind": kind, **fields}


def layer_sweep(rng: random.Random):
    """The converge job on a doubling ladder, with more words and the other
    single-layer observables at each N, closed by the power-law fit."""
    words = {
        "pair": [[0.0, 1, 1]],
        "split": _word(rng, 1, 1, 2),
        "two_pair": _word(rng, 2, 2, 2),
        "three_pair": _word(rng, 3, 3, 3),
    }
    ops = [_op("gap", layer=LAYER)]
    for n in LAYER_SWEEP_N:
        for name, triples in words.items():
            ops.append(_op("word", n=n, word=triples, series=name,
                           largest=n == LAYER_SWEEP_N[-1] and name == "pair"))
        ops.append(_op("w_expectation", n=n, power=1, time=EVOLUTION_TIME))
        ops.append(_op("pair_expectation", n=n))
        ops.append(_op("evolution", n=n, excitations=1, time=EVOLUTION_TIME))
    ops.append(_op("fit", series="pair"))
    return ops


def word_batch(rng: random.Random):
    """About a hundred random words at fixed moderate N with one layer, the
    first ones also at N = 6 for the dense oracle."""
    words = []
    for i in range(WORD_BATCH_WORDS):
        raises, lowers = _word_shape(i)
        words.append(_word(rng, raises, lowers, rng.randint(1, 3)))
    ops = [_op("gap", layer=LAYER)]
    for i, triples in enumerate(words[:WORD_BATCH_DENSE_WORDS]):
        ops.append(_op("word", n=WORD_BATCH_DENSE_N, word=triples, index=i))
    for n in WORD_BATCH_N:
        for i, triples in enumerate(words):
            ops.append(_op("word", n=n, word=triples, index=i,
                           largest=n == WORD_BATCH_N[-1] and i == 0))
    return ops


def junction_sweep(rng: random.Random):
    """The junction job: charge-transfer elements over an even N ladder and
    the circle prediction for each."""
    elements = []
    for source, target in JUNCTION_SHAPES:
        sign = rng.choice((1, -1))
        source = [sign * source[0], sign * source[1]]
        target = [sign * target[0], sign * target[1]]
        if rng.random() < 0.5:
            source, target = source[::-1], target[::-1]
        if rng.random() < 0.5:
            source, target = target, source
        elements.append([source, target])
    source, target = rng.choice(JUNCTION_VIOLATING)
    elements.append([list(source), list(target)])
    ops = [_op("layer_gaps", junction=JUNCTION)]
    for e, element in enumerate(elements):
        ops.append(_op("circle_element", element=element, time=JUNCTION_TIME))
        for n in JUNCTION_N:
            ops.append(_op("junction_element", n=n, element=element, time=JUNCTION_TIME,
                           largest=n == JUNCTION_N[-1] and e == 0))
    return ops


def dyson_orders(rng: random.Random):
    """Dyson defects of the circle and the junction by order, and the
    circle job's spectra, dispersion and currents."""
    del rng  # the orders and configs are fixed
    ops = []
    for k in DYSON_CIRCLE["orders"]:
        ops.append(_op("circle_dyson", order=k, largest=k == DYSON_CIRCLE["orders"][-1]))
    ops.append(_op("layer_gaps", junction=DYSON_JUNCTION))
    for n in DYSON_JUNCTION["n_list"]:
        for k in DYSON_JUNCTION["orders"]:
            ops.append(_op("junction_dyson", n=n, order=k))
    ops.append(_op("spectrum", circuit=FREE_CIRCLE, free=True))
    ops.append(_op("spectrum", circuit=CIRCLE_JOB))
    points = CIRCLE_JOB["dispersion_points"]
    for i in range(points):
        ops.append(_op("spectrum", circuit={**CIRCLE_JOB, "n_g": i / (points - 1)},
                       dispersion=i))
    points = CIRCLE_JOB["phase_points"]
    for i in range(points):
        ops.append(_op("current", phi=2.0 * math.pi * i / (points - 1)))
    return ops


WORKLOADS = {
    "layer_sweep": layer_sweep,
    "word_batch": word_batch,
    "junction_sweep": junction_sweep,
    "dyson_orders": dyson_orders,
}


def plan(workload: str, seed: int):
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
