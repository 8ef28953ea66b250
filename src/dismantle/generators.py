"""Seeded, reproducible graph generators.

All randomness flows through :func:`rng_for`, which maps a 64-bit seed
plus a stream index to an independent PCG64 generator. Replicate ``r``
of an experiment always uses stream ``r``, so any single replicate can
be regenerated in isolation, bit for bit, on the same build.
"""

from __future__ import annotations

from operator import index

import numpy as np

from .graph import Graph

DEFAULT_REJECTION_CAP = 10_000


class SamplingBudgetError(RuntimeError):
    """Rejection sampling exhausted its attempt budget."""


def rng_for(seed: int, stream: int = 0) -> np.random.Generator:
    """Deterministic generator for ``(seed, stream)``.

    Streams are derived through ``SeedSequence`` spawn keys, so distinct
    streams are statistically independent and reproducible. A float for
    either raises ``TypeError``.
    """
    seed, stream = index(seed), index(stream)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if stream < 0:
        raise ValueError(f"stream index must be >= 0, got {stream}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.PCG64(ss))


def gnp(n: int, c: float, seed: int, stream: int = 0) -> Graph:
    """Binomial random graph: each pair kept independently with probability ``c/n``.

    Sampling skips between successes geometrically over the ``C(n, 2)``
    pair sequence (Batagelj & Brandes 2005), and numpy decodes the kept
    indices to pairs, so ``m`` edges cost O(n + m log n) time and
    O(n + m) memory rather than O(n**2). The decoding draws nothing, so
    a seed gives the same graph, bit for bit, as in earlier versions.
    """
    if not n >= 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not 0 <= c <= n:
        raise ValueError(f"mean-degree parameter out of range: c={c}, n={n}")
    n = index(n)  # a float raises TypeError, as in ``Graph``
    p = c / n
    total = n * (n - 1) // 2
    rng = rng_for(seed, stream)  # checks the seed even where nothing is drawn
    if p == 0.0 or total == 0:
        return Graph(n)
    chunks = []
    cur = -1
    block = max(1024, int(p * total * 1.1) + 16)
    while True:
        # A skip past the end ends the sample; capping it at total + 1
        # keeps the running sum from overflowing int64 when p is tiny.
        skips = np.minimum(rng.geometric(p, size=block), total + 1)
        cum = cur + np.cumsum(skips, dtype=np.int64)
        if cum[-1] >= total:
            chunks.append(cum[cum < total])
            break
        chunks.append(cum)
        cur = int(cum[-1])
    idx = np.concatenate(chunks)

    # Decode ascending linear indices to pairs (u, v), u < v, in row order:
    # row u covers indices [row_end[u] - (n - 1 - u), row_end[u]).
    row_len = np.arange(n - 1, 0, -1, dtype=np.int64)
    row_end = np.cumsum(row_len)
    u = np.searchsorted(row_end, idx, side="right")
    v = u + 1 + idx - (row_end[u] - row_len[u])
    return Graph(n, np.column_stack((u, v)))


def random_regular(
    n: int,
    d: int,
    seed: int,
    stream: int = 0,
    max_attempts: int = DEFAULT_REJECTION_CAP,
) -> Graph:
    """Uniform simple ``d``-regular graph via the configuration model.

    Pairs ``n*d`` half-edges by a uniform matching and rejects the whole
    sample whenever a loop or repeated edge appears, which makes the
    accepted outcomes uniform over simple ``d``-regular graphs. Repeated
    edges are found by sorting the edge keys and comparing neighbours.
    For fixed ``d`` the acceptance probability is bounded away from zero,
    so the attempt cap only triggers on misuse (e.g. large ``d`` at small
    ``n``).
    """
    if not d >= 1:
        raise ValueError(f"degree must be >= 1, got {d}")
    if not n > d:
        raise ValueError(f"need n > d, got n={n}, d={d}")
    n, d = index(n), index(d)  # a float raises TypeError, as in ``Graph``
    if (n * d) % 2 != 0:
        raise ValueError(f"n*d must be even, got n={n}, d={d}")
    rng = rng_for(seed, stream)
    half = n * d
    for _ in range(max_attempts):
        perm = rng.permutation(half)
        a = perm[0::2] // d
        b = perm[1::2] // d
        if np.any(a == b):
            continue
        lo = np.minimum(a, b)
        hi = np.maximum(a, b)
        key = np.sort(lo.astype(np.int64) * n + hi)
        if np.any(key[1:] == key[:-1]):
            continue
        return Graph(n, np.column_stack(np.divmod(key, n)))
    raise SamplingBudgetError(
        f"no simple {d}-regular graph found in {max_attempts} attempts"
    )


def random_tree(n: int, seed: int, stream: int = 0) -> Graph:
    """Uniform random labelled tree (Pruefer-sequence decoding)."""
    if not n >= 1:
        raise ValueError(f"need n >= 1, got {n}")
    n = index(n)
    rng = rng_for(seed, stream)  # checks the seed even where nothing is drawn
    if n == 1:
        return Graph(1)
    seq = rng.integers(0, n, size=n - 2)
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    edges = []
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    for v in seq:
        v = int(v)
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, n - 1))
    return Graph(n, edges)


def path(n: int) -> Graph:
    """Path on vertices ``0..n-1`` with edges ``(i, i+1)``."""
    if not n >= 1:
        raise ValueError(f"need n >= 1, got {n}")
    return Graph(n, np.column_stack((np.arange(n - 1), np.arange(1, n))))
