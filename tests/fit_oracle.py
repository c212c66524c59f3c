"""The former ``chebfusion.fit``: one DCT of the full Lobatto sample.

It keeps every coefficient up to ``degree``, round-off included.  The
adaptive ``fit`` must return exactly this whenever no coarse level is
accepted, and agree with it to round-off when one is.
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
