"""Two former versions of ``chebfusion.fit``.

``fit_full`` is one DCT of the full Lobatto sample.  It keeps every
coefficient up to ``degree``, round-off included.  The adaptive ``fit`` must
return exactly this whenever no coarse level is accepted, and agree with it
to round-off when one is.

``fit_evaluate`` is the adaptive fit as it was before its residual check ran
strip by strip: it evaluates each chopped coarse series on the whole grid
through ``evaluate`` and holds that residual, an isfinite mask and an
``np.abs`` copy of the sample beside the sample itself.  ``fit`` must return
its blocks byte for byte.
"""

import numpy as np

from dsmfuse import chebfusion as cf


def fit_full(f, degree: int) -> cf.ChebDensity:
    """Interpolate f on the (degree+1)^2 Chebyshev-Lobatto tensor grid."""
    if degree < 2 or degree & (degree - 1):
        raise ValueError("degree must be a power of two >= 2")
    x = cf.lobatto_nodes(degree)
    values = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    if values.shape != (degree + 1, degree + 1):
        values = np.broadcast_to(values, (degree + 1, degree + 1)).astype(float)
    if not np.all(np.isfinite(values)):
        raise ValueError("sampled values must be finite")
    return cf.ChebDensity(cf._values_to_coeffs(values, degree))


def fit_evaluate(f, degree: int) -> cf.ChebDensity:
    """The adaptive fit with its residual formed on the whole grid by ``evaluate``."""
    if degree < 2 or degree & (degree - 1):
        raise ValueError("degree must be a power of two >= 2")
    x = cf.lobatto_nodes(degree)
    sample = np.asarray(f(x[:, None], x[None, :]), dtype=float)
    values = np.broadcast_to(sample, (degree + 1,) * 2)
    if not np.all(np.isfinite(values)):
        raise ValueError("sampled values must be finite")
    tol = cf.FIT_RESIDUAL * np.finfo(float).eps * np.abs(values).max()
    level = 16
    while level < degree:
        step = degree // level
        c = cf._values_to_coeffs(values[::step, ::step], level)
        k = cf.chop(cf.ChebDensity(c))
        if k < level:
            d = cf.ChebDensity._from_block(c[: k + 1, : k + 1], degree)
            residual = cf.evaluate(d, x[:, None], x[None, :])
            residual -= values
            if max(residual.max(), -residual.min()) <= tol:
                return d
        level *= 2
    return cf.ChebDensity._from_block(cf._values_to_coeffs(values, degree), degree)
