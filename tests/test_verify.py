"""Verify-suite oracles against independent references."""
import numpy as np

from rlimited.projection import bandlimited_projection_oracle
from rlimited.verify import _cosine_profile, _interval_projection

B = 2.0


def test_interval_oracle_matches_adaptive_quad():
    ts = np.linspace(-1.0, 1.0, 41)
    rng = np.random.default_rng(11)       # the projection suite's profiles
    for _ in range(3):
        f, _, _ = _cosine_profile(rng)
        got = _interval_projection(f, B, ts)
        ref = bandlimited_projection_oracle(f, B, ts)
        assert np.max(np.abs(got - ref)) <= 5e-15


def test_interval_oracle_matches_mpmath():
    import mpmath

    ts = (-1.0, -0.35, 0.0, 1.0)
    for cs, ks in (((0.7, -1.3, 0.4), (0, 3, 6)), ((1.1, 0.5), (2, 5))):
        def f(s):
            s = np.asarray(s, dtype=float)
            out = sum(c * np.cos(np.pi * k * s) for c, k in zip(cs, ks))
            return np.where(np.abs(s) <= 1.0, out, 0.0)

        got = _interval_projection(f, B, np.array(ts))
        with mpmath.workdps(30):
            for t, g in zip(ts, got):
                def h(s):
                    fs = sum(mpmath.mpf(c) * mpmath.cos(mpmath.pi * k * s)
                             for c, k in zip(cs, ks))
                    return fs * 2 * B * mpmath.sinc(2 * mpmath.pi * B * (t - s))

                cuts = [-1, t, 1] if -1.0 < t < 1.0 else [-1, 1]
                assert abs(g - float(mpmath.quad(h, cuts))) <= 2e-15, t
