import math
import random
import statistics
from fractions import Fraction

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
    with pytest.raises(SamplerError, match="approval probability"):
        Resampling(1.5, 0.5)
    with pytest.raises(SamplerError):
        Resampling(0.5, -0.1)
    with pytest.raises(SamplerError):
        Euclidean(3, 0.1)
    with pytest.raises(SamplerError):
        Euclidean(2, 0.0)
    # Exact types: d is an int, p, phi and r an int, float or Fraction.
    # True would sample one dimension and 2.0 or a str raise TypeError.
    for make in (lambda: Euclidean(True, 0.3), lambda: Euclidean(2.0, 0.3),
                 lambda: Euclidean(2, "0.3"), lambda: ImpartialCulture("0.5"),
                 lambda: ImpartialCulture(True), lambda: Resampling(0.5, "x"),
                 lambda: Resampling(False, 0.5), lambda: ImpartialCulture(None)):
        with pytest.raises(SamplerError):
            make()
    for model in (ImpartialCulture(Fraction(1, 2)), Resampling(1, Fraction(1, 3)),
                  Euclidean(1, Fraction(1, 4))):
        assert sample(SamplerConfig(model, 5, 4, 1)).n == 5
    with pytest.raises(SamplerError):
        SamplerConfig(ImpartialCulture(0.5), 0, 5, 1)
    # Exact ints only: n=True would sample one voter, n=2.5 raise TypeError;
    # random.Random reads seed -1 as 1.
    for n, m, seed in ((True, 5, 1), (2.5, 5, 1), ("5", 5, 1), (5, 5.0, 1), (5, 5, "1"),
                       (5, 5, 1.0), (5, 5, None), (5, 5, -1)):
        with pytest.raises(SamplerError):
            SamplerConfig(ImpartialCulture(0.5), n, m, seed)


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


def test_streams_match_reference_draws():
    # Each model's ballots, spelled out draw by draw from random.Random(seed):
    # a rewrite of a sampler must keep its stream, or every seeded
    # experiment changes.
    n, m, seed = 40, 12, 2024

    def ic(rng, p=0.4):
        return [{c for c in range(m) if rng.random() < p} for _ in range(n)]

    def resampling(rng, p=0.3, phi=0.6):
        central = set(rng.sample(range(m), int(p * m)))
        ballots = []
        for _ in range(n):
            ballot = set()
            for c in range(m):
                if rng.random() < phi:
                    if rng.random() < p:
                        ballot.add(c)
                elif c in central:
                    ballot.add(c)
            ballots.append(ballot)
        return ballots

    def euclidean(rng, r=0.3):
        voters = [(rng.random(), rng.random()) for _ in range(n)]
        cands = [(rng.random(), rng.random()) for _ in range(m)]
        return [{c for c in range(m) if math.dist(v, cands[c]) < r} for v in voters]

    for model, reference in ((ImpartialCulture(0.4), ic), (Resampling(0.3, 0.6), resampling),
                             (Euclidean(2, 0.3), euclidean)):
        e = sample(SamplerConfig(model, n, m, seed))
        assert [bc.approves for bc in e.ballot_classes] == reference(random.Random(seed))
        assert all(bc.weight == 1 for bc in e.ballot_classes)
        assert e.candidate_names == tuple(f"c{i}" for i in range(1, m + 1))


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
