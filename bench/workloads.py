"""Seeded input generators for the three benchmark workloads.

Each workload is an endless sequence of *blocks*; a block is a list of
items, and every block of a workload has the same mix of item kinds.  A
timed run stops only at a block boundary, so every run sees the same mix.

Items are plain JSON-able dicts.  Generators use numpy only; the library
receives nothing but the generated directions and radii.
"""

from __future__ import annotations

import math

import numpy as np

WORKLOADS = ("crosscheck", "exact", "diagonal")

#: Largest dimension of a deep cut.  A d = 30 deep cut exhausts memory
#: instead of raising CapacityError, so deep cuts never go beyond 20.
DEEP_DIM_MAX = 20
DEEP_DIMS = (14, 16, 18, 20)
DEEP_T_RANGE = (0.1, 0.8)

#: The two integral-route counterexamples kept in every run of `exact`.
WITNESSES = (([1.0, 1.0, 1e-10], 0.2), ([1.0, 1e-5, 1e-5, 1.0], 0.1))

#: Rigorous certificates in every `diagonal` block.  d = 24 takes about
#: 27 s and fails two of its three claims; with the rest of a block that is
#: more than a 30 s run holds.
CERTIFY_DIMS = tuple(range(6, 23, 2))

#: Maximizer bands: corner band for d = 3, 4 and edge band for d = 5, 6, 7.
MAXIMIZE_DIMS = (3, 4, 5, 6, 7)

MC_SAMPLES = 10**6


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _orthant_direction(rng, d):
    """Uniform direction on the unit sphere restricted to the open orthant."""
    while True:
        x = np.abs(rng.standard_normal(d))
        if np.all(x > 1e-9):
            return x / np.linalg.norm(x)


def _floats(a):
    return [float(x) for x in a]


def maximize_band(d: int):
    """(lo, hi) radius band of the maximizer acceptance tests."""
    lo = math.sqrt(d - 1) / 2 if d < 5 else math.sqrt(d - 2) / 2
    return lo, math.sqrt(d) / 2


def deep_cells():
    """(d, t_lo, t_hi, vertices) cells of the deep family, shallowest layer
    first.

    Along the diagonal the vertices with |v| <= k lie below the hyperplane
    for t < sqrt(d)/2 - k/sqrt(d); each cell is one such layer clipped to
    DEEP_T_RANGE, shrunk by a margin so near-diagonal perturbations keep
    the vertex count close.  Layers of all dimensions interleave.
    """
    per_dim = []
    lo_t, hi_t = DEEP_T_RANGE
    for d in DEEP_DIMS:
        root = math.sqrt(d)
        cells = []
        for k in range(d):
            top, bottom = root / 2 - k / root, root / 2 - (k + 1) / root
            lo, hi = max(bottom, lo_t), min(top, hi_t)
            if hi - lo > 0.05:
                vertices = sum(math.comb(d, j) for j in range(k + 1))
                cells.append((d, lo + 0.02, hi - 0.02, vertices))
        per_dim.append(cells)
    out = []
    for layer in range(max(len(c) for c in per_dim)):
        out.extend(c[layer] for c in per_dim if layer < len(c))
    return out


def _crosscheck_blocks(seed):
    """Blocks of 24 items, four per d = 3..8; one of each d's four also
    runs the half-space pair, so one item in four does."""
    rng = _rng(seed, 1)
    dims = np.repeat(np.arange(3, 9), 4)
    halfspace = np.tile([True, False, False, False], 6)
    n = 0
    while True:
        block = []
        for i in rng.permutation(dims.size):
            d = int(dims[i])
            a = _orthant_direction(rng, d)
            block.append({
                "id": f"c{n}", "kind": "crosscheck", "family": "random", "d": d,
                "a": _floats(a),
                "t": float(rng.uniform(0.0, 1.0)) * float(np.sum(a)) / 2,
                "mc_seed": int(rng.integers(2**31)),
                "halfspace": bool(halfspace[i]),
            })
            n += 1
        yield block


def _random_item(rng, d):
    a = _orthant_direction(rng, d)
    return {"kind": "exact", "family": "random", "d": d, "a": _floats(a),
            "t": float(rng.uniform(0.0, 1.0)) * float(np.sum(a)) / 2}


def _tiny_item(rng, d, k):
    x = np.abs(rng.standard_normal(d)) + 0.05
    x[:k] = 10.0 ** rng.uniform(-10.0, -5.0, size=k)
    a = rng.permutation(x / np.linalg.norm(x))
    return {"kind": "exact", "family": "tiny", "d": d, "a": _floats(a),
            "t": float(rng.uniform(0.0, 1.0)) * float(np.sum(a)) / 2}


def _deep_item(rng, cell, near):
    d, lo, hi, _ = cell
    a = np.ones(d)
    if near:
        # near-diagonal: two coordinate groups nudged in opposite directions
        g1 = int(rng.integers(1, d // 2))
        g2 = int(rng.integers(1, d - g1))
        a[:g1] *= 1.0 + float(rng.uniform(0.002, 0.01))
        a[g1:g1 + g2] *= 1.0 - float(rng.uniform(0.002, 0.01))
        a = rng.permutation(a)
    return {"kind": "exact", "family": "deep", "d": d, "a": _floats(a),
            "t": float(rng.uniform(lo, hi))}


def _exact_blocks(seed):
    """A block runs every deep cell, then again each cell under 10^5
    vertices, with diagonal and near-diagonal directions alternating; eight
    random items per d = 3..12; and the two witnesses plus nine tiny items
    per d = 3..6 and count of tiny coordinates.  The order is seeded, with
    the deep items spread evenly.

    Deep cuts are 26 of 180 items, so they set the 90th percentile; the
    repeated moderate cells put several items of similar cost around it.
    """
    rng = _rng(seed, 2)
    cells = deep_cells()
    cells += [c for c in cells if c[3] < 10**5]
    n = 0
    while True:
        light = [_random_item(rng, int(d)) for d in np.repeat(np.arange(3, 13), 8)]
        light += [{"kind": "exact", "family": "tiny", "d": len(a), "a": list(a), "t": t}
                  for a, t in WITNESSES]
        light += [_tiny_item(rng, d, k) for d in range(3, 7) for k in (1, 2) for _ in range(9)]
        light = [light[i] for i in rng.permutation(len(light))]
        step = len(light) / len(cells)
        block = []
        for j, cell in enumerate(cells):
            block += light[round(j * step):round((j + 1) * step)]
            block.append(_deep_item(rng, cell, near=j % 2 == 1))
        for item in block:
            item["id"] = f"e{n}"
            n += 1
        yield block


def certify_item(d):
    return {"id": f"cert{d}", "kind": "certify", "family": "certify", "d": d}


def _diagonal_blocks(seed):
    """Blocks of the certificates followed by half the maximizer grid of
    acceptance tests 02 and 03: every second one of its ten interior radii
    per dimension, so that a block fits a 30 s run.

    The seed sets the grid's order and each call's maximizer seed.  The
    radii stay on the grid because the maximizer's cost swings tenfold
    between nearby radii; over the fixed grid the total barely moves with
    the seed.
    """
    rng = _rng(seed, 5)
    grid = []
    for d in MAXIMIZE_DIMS:
        lo, hi = maximize_band(d)
        grid += [(d, float(t)) for t in np.linspace(lo, hi, 12)[1:-1][1::2]]
    n = 0
    while True:
        block = [certify_item(d) for d in CERTIFY_DIMS]
        for i in rng.permutation(len(grid)):
            d, t = grid[i]
            block.append({"id": f"m{n}", "kind": "maximize",
                          "family": "corner" if d < 5 else "edge", "d": d, "t": t,
                          "seed": int(rng.integers(2**31))})
            n += 1
        yield block


def blocks(workload: str, seed: int):
    """Endless block sequence of a workload for a seed."""
    if workload == "crosscheck":
        return _crosscheck_blocks(seed)
    if workload == "exact":
        return _exact_blocks(seed)
    if workload == "diagonal":
        return _diagonal_blocks(seed)
    raise ValueError(f"unknown workload {workload!r}")


def first_items(workload: str, seed: int, count: int):
    """The first `count` items of a workload's sequence."""
    out = []
    for block in blocks(workload, seed):
        for item in block:
            if len(out) == count:
                return out
            out.append(item)
    return out


#: Fixed warm-up items: the smallest item of each kind, the same for every seed.
WARMUP = {
    "crosscheck": [{"id": "w0", "kind": "crosscheck", "family": "random", "d": 3,
                    "a": [0.6, 0.64, 0.48], "t": 0.3, "mc_seed": 1, "halfspace": True}],
    "exact": [
        {"id": "w0", "kind": "exact", "family": "random", "d": 3,
         "a": [0.6, 0.64, 0.48], "t": 0.3},
        {"id": "w1", "kind": "exact", "family": "tiny", "d": 3,
         "a": [0.6, 0.8, 1e-7], "t": 0.3},
        {"id": "w2", "kind": "exact", "family": "deep", "d": DEEP_DIMS[0],
         "a": [1.0] * DEEP_DIMS[0], "t": 0.7},
    ],
    "diagonal": [
        {"id": "w0", "kind": "maximize", "family": "corner", "d": 3, "t": 0.8, "seed": 0},
        certify_item(CERTIFY_DIMS[0]),
    ],
}
