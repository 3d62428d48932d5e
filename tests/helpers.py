"""Input builders shared by several test modules."""

import numpy as np

from psaddle.spaces import Mesh1D


def random_spd(rng, n, shift=None):
    """Q Q^T + shift I with Q standard normal; shift defaults to n."""
    Q = rng.standard_normal((n, n))
    return Q @ Q.T + (shift if shift is not None else n) * np.eye(n)


def jittered_mesh(n, rng):
    """n elements on [0, 1], each interior node moved by up to a fifth of
    the element size."""
    pts = np.linspace(0.0, 1.0, n + 1)
    pts[1:-1] += rng.uniform(-0.2, 0.2, n - 1) / n
    return Mesh1D(tuple(pts))
