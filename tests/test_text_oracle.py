"""The list-based text writers against the per-scalar ones they replaced."""

import numpy as np
import pytest

from dsmfuse import chebfusion as cf

import text_oracle


def densities():
    rng = np.random.default_rng(14)
    fitted = cf.normalize(cf.fit(cf.gaussian(-1.0, 0.0), 128))
    signed = rng.standard_normal((9, 9)) * 10.0 ** rng.integers(-300, 300, (9, 9))
    signed[0, 1], signed[2, 3], signed[4, 4] = -0.0, 0.0, 5e-324
    return [fitted, cf.belief_surface(fitted), cf.ChebDensity(signed),
            cf.ChebDensity(rng.uniform(-1, 1, (33, 33)))]


@pytest.mark.parametrize("index", range(4))
def test_writers_write_the_old_bytes(tmp_path, index):
    d = densities()[index]
    new, old = tmp_path / "new", tmp_path / "old"
    for write, old_write in ((cf.save_coeffs, text_oracle.save_coeffs),
                             (cf.save_grid, text_oracle.save_grid)):
        write(d, new)
        old_write(d, old)
        assert new.read_bytes() == old.read_bytes()
    cf.save_grid(d, new, g=7)
    text_oracle.save_grid(d, old, g=7)
    assert new.read_bytes() == old.read_bytes()
    cf.save_coeffs(d, new)
    assert np.array_equal(cf.load_coeffs(new).coeffs, text_oracle.load_coeffs(new).coeffs)
