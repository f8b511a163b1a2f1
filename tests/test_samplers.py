import math
import statistics

import pytest

from pavls import (
    Euclidean,
    ImpartialCulture,
    Resampling,
    SamplerConfig,
    SamplerError,
    sample,
)
from pavls.samplers import MODELS


def test_parameter_validation():
    with pytest.raises(SamplerError):
        ImpartialCulture(1.5)
    with pytest.raises(SamplerError):
        Resampling(0.5, -0.1)
    with pytest.raises(SamplerError):
        Euclidean(3, 0.1)
    with pytest.raises(SamplerError):
        Euclidean(2, 0.0)
    with pytest.raises(SamplerError):
        SamplerConfig(ImpartialCulture(0.5), 0, 5, 1)


def test_dispatch_checks_model():
    with pytest.raises(SamplerError):
        SamplerConfig("resampling", 5, 5, 1)
    with pytest.raises(SamplerError):
        SamplerConfig(None, 5, 5, 1)
    config = SamplerConfig(ImpartialCulture(0.5), 5, 5, 1)
    assert sample(config).n == 5


def test_models_table():
    assert MODELS == {"ic": ImpartialCulture, "resampling": Resampling, "euclidean": Euclidean}


def test_determinism():
    for model in (ImpartialCulture(0.4), Resampling(0.3, 0.6), Euclidean(2, 0.3)):
        a = sample(SamplerConfig(model, 30, 10, seed=99))
        b = sample(SamplerConfig(model, 30, 10, seed=99))
        c = sample(SamplerConfig(model, 30, 10, seed=100))
        assert a == b
        assert a != c  # overwhelmingly likely at these sizes


def test_ic_extremes():
    empty = sample(SamplerConfig(ImpartialCulture(0.0), 10, 6, 1))
    assert all(not bc.approves for bc in empty.ballot_classes)
    full = sample(SamplerConfig(ImpartialCulture(1.0), 10, 6, 1))
    assert all(len(bc.approves) == 6 for bc in full.ballot_classes)


def test_ic_mean_ballot_size():
    # p=0.5, m=20: mean approvals 10, sd of the mean over 1000 ballots
    # is sqrt(20*0.25/1000); stay within 3 standard errors.
    e = sample(SamplerConfig(ImpartialCulture(0.5), 1000, 20, seed=7))
    mean = statistics.mean(len(bc.approves) for bc in e.ballot_classes)
    se = math.sqrt(20 * 0.25 / 1000)
    assert abs(mean - 10) <= 3 * se


def test_resampling_central_ballot():
    e = sample(SamplerConfig(Resampling(0.2, 0.0), 15, 20, seed=3))
    ballots = {bc.approves for bc in e.ballot_classes}
    assert len(ballots) == 1  # phi=0: everyone copies the central ballot
    assert len(next(iter(ballots))) == 4  # floor(0.2 * 20)


def test_resampling_phi_one_matches_ic_distribution():
    # phi=1 redraws every bit: ballot sizes should look Bernoulli(p).
    e = sample(SamplerConfig(Resampling(0.5, 1.0), 1000, 20, seed=11))
    mean = statistics.mean(len(bc.approves) for bc in e.ballot_classes)
    se = math.sqrt(20 * 0.25 / 1000)
    assert abs(mean - 10) <= 4 * se


def test_euclidean_diameter_bound():
    for d in (1, 2):
        e = sample(SamplerConfig(Euclidean(d, math.sqrt(d) + 1e-9), 10, 8, seed=5))
        assert all(len(bc.approves) == 8 for bc in e.ballot_classes)


def test_euclidean_tiny_radius():
    e = sample(SamplerConfig(Euclidean(2, 1e-9), 50, 10, seed=5))
    assert all(not bc.approves for bc in e.ballot_classes)


def test_euclidean_interval_measure():
    # d=1, r=0.01: a candidate is approved with probability equal to the
    # expected measure of a radius-0.01 interval clipped to [0,1], which
    # is 2r - r^2 for r <= 1; mean ballot size = m times that.
    r, m, n = 0.01, 20, 2000
    e = sample(SamplerConfig(Euclidean(1, r), n, m, seed=13))
    mean = statistics.mean(len(bc.approves) for bc in e.ballot_classes)
    expect = m * (2 * r - r * r)
    sd = math.sqrt(expect / n)  # approximately Poisson at this sparsity
    assert abs(mean - expect) <= 4 * sd


def test_sampled_elections_have_no_committee_size():
    e = sample(SamplerConfig(ImpartialCulture(0.5), 5, 5, 1))
    assert e.committee_size is None
    assert e.m == 5 and e.n == 5
