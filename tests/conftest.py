import os

import numpy as np
import pytest

from cmvlq import (
    ConstantControl,
    LqCost,
    LqDynamics,
    QuadraticValue,
    SystemicRiskParams,
    solve_riccati,
    systemic_risk_model,
)

ACCEPT_PARAMS = dict(kappa=1.0, q=0.5, eta=1.0, c=1.0, sigma0=1.0, sigma1=0.3,
                     rho=0.5, T=1.0, x0=1.0)


def make_interbank(h=1e-3, **overrides):
    """(params, dyn, cost, sol, qv) for the interbank model."""
    kw = dict(ACCEPT_PARAMS)
    kw.update(overrides)
    p = SystemicRiskParams(**kw)
    dyn, cost = systemic_risk_model(p)
    sol = solve_riccati(dyn, cost, p.T, h)
    return p, dyn, cost, sol, QuadraticValue(sol, dyn, cost)


@pytest.fixture(scope="session")
def interbank():
    return make_interbank()


@pytest.fixture(scope="session")
def interbank_sigma1_zero():
    return make_interbank(sigma1=0.0)


def random_psd(rng, n, scale=0.6):
    A = rng.standard_normal((n, n))
    return scale * (A @ A.T) / n


def random_lq(seed, d=None, m=None, with_m2=False, coupling=0.4):
    """A random LQ model satisfying the positivity condition on the costs."""
    rng = np.random.default_rng(seed)
    d = d if d is not None else int(rng.integers(1, 4))
    m = m if m is not None else int(rng.integers(1, 3))

    def blk(r, c, s=coupling):
        return s * rng.standard_normal((r, c))

    dyn = LqDynamics(
        b0=0.3 * rng.standard_normal(d), B=blk(d, d), Bbar=blk(d, d, 0.3), C=blk(d, m, 0.7),
        theta=0.25 * rng.standard_normal(d), D=blk(d, d, 0.3), Dbar=blk(d, d, 0.15),
        F=blk(d, m, 0.25), theta0=0.25 * rng.standard_normal(d), D0=blk(d, d, 0.25),
        D0bar=blk(d, d, 0.15), F0=blk(d, m, 0.25),
    )
    Q2 = random_psd(rng, d)
    Q2bar = random_psd(rng, d) - Q2
    P2 = random_psd(rng, d)
    P2bar = random_psd(rng, d) - P2
    cost = LqCost(
        Q2=Q2, Q2bar=Q2bar, R2=random_psd(rng, m) + 0.3 * np.eye(m),
        P2=P2, P2bar=P2bar,
        M2=0.1 * rng.standard_normal((d, m)) if with_m2 else None,
    )
    return dyn, cost


def zero_control(d=1, m=1):
    """The control a = 0 (the CLI's `zero`) on a model of dimensions (d, m): gains (0, 0, 0)."""
    zeros = np.zeros((m, d))
    return ConstantControl(zeros, zeros, np.zeros(m))


def random_cloud(rng, n, d, spread=1.0):
    from cmvlq import EmpiricalMeasure

    center = rng.uniform(-2.0, 2.0, size=d)
    return EmpiricalMeasure(center + spread * rng.standard_normal((n, d)))


def inline_noise(monkeypatch):
    """Makes the process unable to fork, so the streamed engine draws its
    noise inline instead of in a drawing process, overlapped."""
    monkeypatch.delattr(os, "fork")


def forked_pids(monkeypatch):
    """Records the pid of every process forked from here on."""
    pids = []
    fork = os.fork

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recording)
    return pids


def reaped(pid):
    """Whether pid has exited and been waited for (it is no child of ours)."""
    try:
        os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return True
    return False
