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


def search(n, u, v, root=0):
    """Breadth-first search of the graph on 0..n-1 with edges (u[i], v[i]),
    the reference for connectivity and tree orientation.

    Returns ``(order, starts)``: the vertices as visited, and where each
    component begins in ``order``.  The first search starts at ``root``, each
    later one at the smallest vertex not yet visited.  Every vertex but a
    start is visited after a neighbour."""
    ends = np.concatenate((u, v))
    nbr = np.concatenate((v, u))[np.argsort(ends, kind="stable")].tolist()
    ptr = np.concatenate(([0], np.cumsum(np.bincount(ends, minlength=n)))).tolist()
    seen = bytearray(n)
    order, starts = [], []
    s, lo = root, 0
    while s >= 0:
        seen[s] = 1
        starts.append(len(order))
        comp = [s]
        for x in comp:              # the list grows while it is iterated
            for y in nbr[ptr[x]:ptr[x + 1]]:
                if not seen[y]:
                    seen[y] = 1
                    comp.append(y)
        order += comp
        s = seen.find(0, lo)
        lo = s + 1
    return np.array(order, dtype=np.int64), np.array(starts, dtype=np.int64)


def lca_naive(t, u, v):
    """Upward-walk LCA, the oracle for the batched one."""
    while u != v:
        if t.depth[u] >= t.depth[v]:
            u = int(t.parent[u])
        else:
            v = int(t.parent[v])
    return u


def root_path(t, u):
    """u and its ancestors, as a set."""
    path = [u]
    while t.parent[path[-1]] >= 0:
        path.append(int(t.parent[path[-1]]))
    return set(path)


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
