"""chop against standardChop with its zero-plateau branch kept."""

import numpy as np

from dsmfuse import chebfusion as cf

import chop_oracle


def seeded_series(rng):
    # geometric decay, zero-padded random and decaying blocks, sparse series
    # and magnitudes down to the subnormals, at 17 to 200 coefficients per axis
    n = int(rng.integers(16, 200))
    s = int(rng.integers(1, n + 1))
    c = np.zeros((n + 1, n + 1))
    kind = rng.integers(5)
    if kind == 0:
        k = np.add.outer(np.arange(n + 1), np.arange(n + 1))
        c = rng.uniform(0.3, 0.99) ** k * rng.choice([-1.0, 1.0], (n + 1, n + 1))
    elif kind == 1:
        c[:s, :s] = rng.standard_normal((s, s))
    elif kind == 2:
        c[:s, :s] = rng.uniform(0.1, 0.9) ** np.add.outer(np.arange(s), np.arange(s))
    elif kind == 3:
        sparse = rng.random((n + 1, n + 1)) < rng.uniform(0, 0.05)
        c = np.where(sparse, rng.standard_normal((n + 1, n + 1)), 0.0)
    else:
        c[:s, :s] = 10.0 ** rng.uniform(-320, 0, (s, s))
    return cf.ChebDensity(c)


def test_chop_equals_standard_chop():
    rng = np.random.default_rng(2017)
    for _ in range(2000):
        d = seeded_series(rng)
        assert cf.chop(d) == chop_oracle.chop(d), d._block
