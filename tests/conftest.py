import numpy as np
import pytest

from treepcg import SpanningTree


def random_tree(n, rng, weights="uniform"):
    """Random attachment tree: parent[i] uniform in [0, i-1]."""
    parent = np.empty(n, dtype=np.int64)
    parent[0] = -1
    if n > 1:
        parent[1:] = rng.integers(0, np.arange(1, n))
    if weights == "unit":
        w = np.ones(n)
    elif weights == "logw":
        w = 10.0 ** rng.uniform(-1.0, 1.0, n)
    else:
        w = rng.uniform(0.5, 2.0, n)
    return SpanningTree(parent, w)


def deep_tree(kind, n, rng, decades):
    """A path, a star, a random-attachment tree or a broom (a path of n/2
    vertices ending in a star), with weights log-uniform over 10^(+-decades)."""
    parent = np.arange(-1, n - 1)
    if kind == "broom":
        parent[n // 2:] = n // 2 - 1
    elif kind == "star":
        parent[1:] = 0
    elif kind == "random":
        parent[1:] = rng.integers(0, np.arange(1, n))
    return SpanningTree(parent, 10.0 ** rng.uniform(-decades, decades, n))


def root_path(t, u):
    """u and its ancestors, as a set."""
    path = [u]
    while t.parent[path[-1]] >= 0:
        path.append(int(t.parent[path[-1]]))
    return set(path)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
