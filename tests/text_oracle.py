"""The former text writers and coefficient reader of ``chebfusion``, and a grid reader.

They format and parse one numpy scalar at a time.  The list-based versions
that replaced them must write the same bytes and read the same arrays, with
the same error messages.  The reader has since gained one rule, which
``load_coeffs`` here follows too: only blank lines may follow the last row.  ``load_grid`` reads a ``save_grid`` file back, for
the tests' round trips; the package itself never reads grid files.
"""

import numpy as np

from dsmfuse import chebfusion as cf


def save_coeffs(d: cf.ChebDensity, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"cheb2d {d.degree}\n")
        for row in d.coeffs:
            fh.write(" ".join(repr(float(v)) for v in row) + "\n")


def load_coeffs(path) -> cf.ChebDensity:
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2 or header[0] != "cheb2d" or not header[1].isdecimal():
            raise ValueError(f"{path}: malformed coefficient header")
        n = int(header[1])
        rows = []
        for k in range(1, n + 2):
            rows.append([float(v) for v in fh.readline().split()])
            if len(rows[-1]) != n + 1:
                raise ValueError(
                    f"{path}: row {k} holds {len(rows[-1])} coefficients, expected {n + 1}"
                )
        if fh.read().strip():
            raise ValueError(f"{path}: text after row {n + 1}")
    coeffs = np.array(rows)
    try:
        return cf.ChebDensity(coeffs)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def save_grid(d: cf.ChebDensity, path, g: int = 64) -> None:
    axis, values = cf.grid_samples(d, g)
    with open(path, "w") as fh:
        for i, x in enumerate(axis):
            for j, y in enumerate(axis):
                fh.write(f"{x:.6f} {y:.6f} {values[i, j]:.12e}\n")
            fh.write("\n")


def load_grid(path) -> tuple[np.ndarray, np.ndarray]:
    """Read a grid file back into (axis, values); malformed text raises ValueError."""
    xs: list[float] = []
    blocks: list[list[float]] = []
    current: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                if current:
                    blocks.append(current)
                    current = []
                continue
            x, _y, v = (float(t) for t in line.split())
            if not current:
                xs.append(x)
            current.append(v)
    if current:
        blocks.append(current)
    return np.array(xs), np.array(blocks)
