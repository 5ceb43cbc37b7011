"""Stochastic variants: worked traces, degeneracies, EMA equivalences."""

import math

import numpy as np
import pytest

from dadapt.core import ConfigError, Rng
from dadapt.ml import (
    adam_da_init,
    adam_da_step,
    ema_pair,
    ema_pair_step,
    sgd_da_init,
    sgd_da_step,
)

TRACE_TOL = 1e-9


class TestSgdDaTrace:
    """f=|x|, x0=1, d0=0.1, gamma=1, beta=0.9, G=1: worked steps 0 and 1."""

    def make(self):
        return sgd_da_init(np.array([1.0]), d0=0.1, beta=0.9, G=1.0)

    def test_step0(self):
        st = self.make()
        sgd_da_step(st, np.array([1.0]), sched=1.0)
        assert st.traj.extra("gamma_or_lambda")[0] == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.s[0] == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.z[0] == pytest.approx(0.9, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.99, abs=TRACE_TOL)
        assert st.traj.extra("dhat")[-1] == pytest.approx(0.0, abs=TRACE_TOL)
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)

    def test_step1(self):
        st = self.make()
        sgd_da_step(st, np.array([1.0]), sched=1.0)
        sgd_da_step(st, np.array([1.0]), sched=1.0)
        assert st.hypergrad_sum == pytest.approx(0.01, abs=TRACE_TOL)
        assert st.s[0] == pytest.approx(0.2, abs=TRACE_TOL)
        assert st.z[0] == pytest.approx(0.8, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.971, abs=TRACE_TOL)
        assert st.traj.extra("dhat")[-1] == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)

    def test_beta_zero_tracks_z(self):
        st = sgd_da_init(np.array([1.0, -2.0]), d0=0.1, beta=0.0, G=1.0)
        rng = Rng(0, 0)
        for _ in range(25):
            sgd_da_step(st, rng.normals(2), sched=1.0)
            assert np.array_equal(st.x, st.z)

    def test_g_heuristic_from_first_nonzero(self):
        st = sgd_da_init(np.array([1.0]), d0=0.1)
        assert st.G is None
        sgd_da_step(st, np.array([0.0]), sched=1.0)  # skipped, k advances
        assert st.G is None
        assert st.k == 1
        assert np.array_equal(st.x, np.array([1.0]))
        sgd_da_step(st, np.array([2.0]), sched=1.0)
        assert st.G == pytest.approx(2.0)
        # lam = d * gamma / G = 0.1/2
        assert st.traj.extra("gamma_or_lambda")[-1] == pytest.approx(0.05, abs=TRACE_TOL)

    def test_z_matches_dual_averaging_oracle(self):
        # z_{k+1} = x0 - (1/G) sum_i d_i gamma_i g_i, accumulated by hand
        st = sgd_da_init(np.array([1.0, 0.5]), d0=0.3, beta=0.9, G=2.0)
        rng = Rng(4, 0)
        acc = np.zeros(2)
        for _ in range(30):
            g = rng.normals(2)
            d_before = st.d
            sgd_da_step(st, g, sched=1.0)
            acc += (d_before / 2.0) * g
            assert np.allclose(st.z, np.array([1.0, 0.5]) - acc, atol=1e-12)

    def test_dhat_factor_two_oracle(self):
        st = sgd_da_init(np.array([1.0]), d0=0.1, beta=0.9, G=1.0)
        rng = Rng(9, 0)
        hyper = 0.0
        s = 0.0
        for _ in range(40):
            g = float(rng.normal())
            lam = st.d * 1.0 / 1.0
            hyper += lam * g * s
            s += lam * g
            sgd_da_step(st, np.array([g]), sched=1.0)
            expected = 0.0 if s == 0.0 else 2.0 * hyper / abs(s)
            assert st.traj.extra("dhat")[-1] == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_validation(self):
        with pytest.raises(ConfigError):
            sgd_da_init(np.array([1.0]), d0=0.0)
        with pytest.raises(ConfigError):
            sgd_da_init(np.array([1.0]), d0=0.1, beta=1.0)
        with pytest.raises(ConfigError):
            sgd_da_init(np.array([1.0]), d0=0.1, G=0.0)
        st = sgd_da_init(np.array([1.0]), d0=0.1, G=1.0)
        with pytest.raises(ConfigError):
            sgd_da_step(st, np.array([1.0]), sched=0.0)
        with pytest.raises(ConfigError):
            sgd_da_step(st, np.array([1.0]), sched=1.5)


class TestAdamDaTrace:
    """f=|x|, x0=1, d0=0.1, default betas: worked step 0."""

    def test_step0(self):
        st = adam_da_init(np.array([1.0]), d0=0.1)
        adam_da_step(st, np.array([1.0]), sched=1.0)
        assert st.m[0] == pytest.approx(0.01, abs=TRACE_TOL)
        assert st.v[0] == pytest.approx(0.001, abs=TRACE_TOL)
        denom = math.sqrt(0.001) + 1e-8
        assert denom == pytest.approx(0.0316228, abs=1e-7)
        assert st.x[0] == pytest.approx(1.0 - 0.01 / denom, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.6837722, abs=1e-6)
        s1 = (1.0 - math.sqrt(0.999)) * 0.1
        assert s1 == pytest.approx(5.0013e-5, abs=1e-8)
        assert st.s[0] == pytest.approx(s1, abs=TRACE_TOL)
        assert st.r == pytest.approx(0.0, abs=TRACE_TOL)
        assert st.traj.extra("dhat")[-1] == pytest.approx(0.0, abs=TRACE_TOL)
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)

    def test_zero_gradient_fixpoint(self):
        st = adam_da_init(np.array([1.0]), d0=0.1)
        for _ in range(5):
            adam_da_step(st, np.array([0.0]), sched=1.0)
        assert st.x[0] == 1.0
        assert st.d == 0.1

    def test_beta1_zero_m_is_scaled_gradient(self):
        st = adam_da_init(np.array([1.0]), d0=0.2, beta1=0.0)
        rng = Rng(1, 0)
        for _ in range(10):
            g = rng.normals(1)
            d_before = st.d
            adam_da_step(st, g, sched=1.0)
            assert np.allclose(st.m, d_before * g, atol=1e-15)

    def test_decay_zero_is_noop_bitwise(self):
        a = adam_da_init(np.array([1.0, -1.0]), d0=0.1, decay=0.0)
        b = adam_da_init(np.array([1.0, -1.0]), d0=0.1)
        rng1, rng2 = Rng(2, 0), Rng(2, 0)
        for _ in range(20):
            adam_da_step(a, rng1.normals(2), sched=1.0)
            adam_da_step(b, rng2.normals(2), sched=1.0)
        assert np.array_equal(a.x, b.x)
        assert a.d == b.d

    def test_decay_shrinks_iterate(self):
        a = adam_da_init(np.array([10.0]), d0=0.1, decay=0.1)
        b = adam_da_init(np.array([10.0]), d0=0.1, decay=0.0)
        adam_da_step(a, np.array([1.0]), sched=1.0)
        adam_da_step(b, np.array([1.0]), sched=1.0)
        assert a.x[0] == pytest.approx(b.x[0] * (1.0 - 0.1 * 0.1 * 1.0), rel=1e-12)

    def test_v_nonnegative_d_monotone(self):
        st = adam_da_init(np.array([1.0, 1.0, 1.0]), d0=1e-6)
        rng = Rng(6, 0)
        prev_d = st.d
        for _ in range(100):
            adam_da_step(st, rng.normals(3), sched=1.0)
            assert np.all(st.v >= 0.0)
            assert st.d >= prev_d
            prev_d = st.d

    def test_ema_s_matches_weighted_dual_averaging(self):
        # gamma=1: the EMA buffer s after k steps equals c^k (1-c) times the
        # dual-averaging accumulator of effective gradients d_i g_i with
        # weights c^{-i}, c = sqrt(beta2)
        beta2 = 0.99
        c = math.sqrt(beta2)
        st = adam_da_init(np.array([0.0, 0.0]), d0=1.0, beta2=beta2)
        rng = Rng(12, 0)
        da_s = np.zeros(2)
        for k in range(50):
            g = rng.normals(2)
            da_s += (1.0 / c**k) * st.d * g  # st.d is the pre-step value here
            adam_da_step(st, g, sched=1.0)
            expected = c**k * (1.0 - c) * da_s
            scale = max(float(np.abs(expected).max()), 1e-300)
            assert float(np.abs(st.s - expected).max()) / scale < 1e-10

    def test_validation(self):
        with pytest.raises(ConfigError):
            adam_da_init(np.array([1.0]), d0=-1.0)
        with pytest.raises(ConfigError):
            adam_da_init(np.array([1.0]), d0=0.1, beta2=1.0)
        with pytest.raises(ConfigError):
            adam_da_init(np.array([1.0]), d0=0.1, eps=0.0)
        # each beta is named in its own message: beta1 in [0, 1), beta2 in (0, 1)
        with pytest.raises(ConfigError, match="beta2"):
            adam_da_init(np.array([1.0]), d0=0.1, beta2=0.0)
        with pytest.raises(ConfigError, match="beta1"):
            adam_da_init(np.array([1.0]), d0=0.1, beta1=1.0)
        with pytest.raises(ConfigError):
            adam_da_init(np.array([1.0]), d0=0.1, decay=-0.1)
        st = adam_da_init(np.array([1.0]), d0=0.1)
        with pytest.raises(ConfigError):
            adam_da_step(st, np.array([1.0]), sched=-0.5)


class TestEmaPair:
    def test_hand_trace(self):
        p = ema_pair(0.5)
        p = ema_pair_step(p, 1.0)
        assert p.u == pytest.approx(1.0)
        assert p.u_hat == pytest.approx(0.5)
        p = ema_pair_step(p, 1.0)
        assert p.u == pytest.approx(3.0)
        assert p.u_hat == pytest.approx(0.75)
        # relation: u_hat_2 = c^1 (1-c) u_2 = 0.5*0.5*3
        assert p.u_hat == pytest.approx(0.5 * 0.5 * 3.0)

    def test_relation_over_long_run(self):
        for c in (0.5, 0.9, 0.999):
            p = ema_pair(c)
            rng = Rng(int(c * 1000), 0)
            for k in range(100):
                p = ema_pair_step(p, rng.normal())
                expected = c**k * (1.0 - c) * p.u
                scale = max(abs(expected), abs(p.u_hat), 1e-300)
                assert abs(p.u_hat - expected) / scale < 1e-10

    def test_c_validation(self):
        with pytest.raises(ConfigError):
            ema_pair(0.0)
        with pytest.raises(ConfigError):
            ema_pair(1.0)
        with pytest.raises(ConfigError):
            ema_pair(-0.2)

    def test_u0_scaling(self):
        p = ema_pair(0.5, u0=4.0)
        assert p.u == 4.0
        assert p.u_hat == 2.0  # (1-c) u0
