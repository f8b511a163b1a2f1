from fractions import Fraction

import pytest

from pavls import (
    ConstructionError,
    Epsilon,
    HardenedParams,
    LayeredParams,
    Swap,
    certify_hardened,
    delta,
    delta_formula,
    e_election,
    e_t_election,
    f_election,
    gain_holds,
    hardened_election,
    inverse_sequence,
    iter_x_sequence,
    iter_z_sequence,
    layered_election,
    layered_initial_committee,
    serialize_native,
    validate_sequence,
    warmup_election,
    warmup_initial_committee,
    warmup_sequence,
    x_length,
)
from pavls.constructions import _Builder, _f_ballots
from pavls.core import SatisfactionState


def _dummy_names(count):
    return [f"d{i}" for i in range(1, count + 1)]


def test_delta_formula_values():
    assert delta_formula(1, 4) == Fraction(1, 12)
    assert delta_formula(2, 5) == Fraction(1, 30)
    for j in range(1, 8):
        assert delta_formula(j, j + 1) == Fraction(1, j + 1)
    for k in range(2, 10):
        assert delta_formula(1, k) == Fraction(1, k * (k - 1))


def test_delta_formula_domain():
    for j, k in ((0, 4), (4, 4), (5, 4), (-1, 3)):
        with pytest.raises(ConstructionError):
            delta_formula(j, k)


# ---------------------------------------------------------------------------
# Warm-up family


def test_warmup_small_sizes():
    lab = warmup_election(4)
    assert lab.election.n == 8
    assert lab.election.m == 8
    assert len(warmup_sequence(4)) == 6
    with pytest.raises(ConstructionError):
        warmup_election(3)
    with pytest.raises(ConstructionError):
        warmup_sequence(3)


@pytest.mark.parametrize("k", [4, 8, 12])
def test_warmup_sequence_certifies(k):
    lab = warmup_election(k)
    e = lab.election
    t = k // 4
    seq = warmup_sequence(k)
    assert len(seq) == (k - 1) * (t + 1)
    assert e.n <= k * k // 2
    cert = validate_sequence(e, warmup_initial_committee(lab), seq, Epsilon.threshold(e))
    assert cert.certified_good
    # short-chain swaps gain exactly 1/2, long-chain swaps exactly t/2
    assert set(cert.step_deltas) <= {Fraction(1, 2), Fraction(t, 2)}
    long_chain = [cert.step_deltas[i] for i in range(t, len(seq), t + 1)]
    assert all(d == Fraction(t, 2) for d in long_chain)


def test_warmup_groups_partition():
    lab = warmup_election(8)
    groups = set(lab.voter_groups)
    assert {"V1", "V2", "U"} <= groups
    assert {f"S{j}" for j in range(1, 9)} <= groups


# ---------------------------------------------------------------------------
# Atomic families


@pytest.mark.parametrize("j,k", [(1, 3), (2, 5), (3, 6), (4, 7)])
def test_f_election_voter_count(j, k):
    lab = f_election(j, k)
    assert lab.election.n == 2**j
    assert lab.election.m == k + 1  # k-1 dummies plus a, b


@pytest.mark.parametrize("j,k", [(1, 4), (2, 5), (3, 7)])
def test_f_ballot_drops_one_dummy_per_size_step(j, k):
    # Voter v's ballot at size k minus her ballot at size k-1 is exactly
    # one dummy candidate.
    big, small = _f_ballots(j, k), _f_ballots(j, k - 1)
    assert len(big) == len(small)
    for bb, sb in zip(big, small):
        diff = bb - sb
        assert len(diff) == 1 and next(iter(diff)).startswith("d")
        assert sb <= bb


@pytest.mark.parametrize("j,k", [(1, 3), (2, 5), (3, 8)])
def test_e_counterpart_properties(j, k):
    lab = e_election(j, k)
    e = lab.election
    assert e.n == 2 ** j
    names = e.candidate_names
    dummies = {lab.candidate(d) for d in _dummy_names(k - 2)}
    x, y = lab.candidate("x"), lab.candidate("y")
    a, b = lab.candidate("a"), lab.candidate("b")
    s = lab.counterpart
    assert s is not None
    for v, w in s.items():
        av, aw = e.approval_sets[v], e.approval_sets[w]
        assert av & dummies == aw & dummies
        assert (a in av) == (b in aw) and (b in av) == (a in aw)
        assert (x in av) == (y in aw) and (y in av) == (x in aw)


def test_atomic_families_need_depth_at_least_one():
    for k in (3, 6):
        for family in (f_election, e_election):
            with pytest.raises(ConstructionError, match="1 <= j < k"):
                family(0, k)
    with pytest.raises(ConstructionError, match="1 <= j < k"):
        e_t_election(2, 0, 4)


def test_builder_rejects_duplicate_label():
    with pytest.raises(ConstructionError, match="duplicate candidate label 'a'"):
        _Builder(["a", "b", "a"])


@pytest.mark.parametrize("j,k", [(1, 3), (1, 6), (2, 4), (2, 7), (3, 5), (4, 6)])
def test_e_pivotal_swap_gain(j, k):
    lab = e_election(j, k)
    w = lab.committee(*_dummy_names(k - 2), "x", "a")
    state = SatisfactionState(lab.election, w)
    assert delta(lab.election, state, lab.candidate("a"), lab.candidate("b")) == delta_formula(j, k)
    for ballot in lab.election.approval_sets:
        assert len(ballot & w) >= k - (j + 1)


# ---------------------------------------------------------------------------
# Chained family


@pytest.mark.parametrize("t,j,k", [(2, 1, 3), (4, 2, 5), (3, 3, 6)])
def test_e_t_chain_properties(t, j, k):
    lab = e_t_election(t, j, k)
    e = lab.election
    assert e.n == t * 2**j
    d = delta_formula(j, k)
    dummies = _dummy_names(k - 2)
    up = [Swap(lab.candidate(f"c{q}"), lab.candidate(f"c{q + 1}")) for q in range(1, t + 1)]
    cert = validate_sequence(e, lab.committee(*dummies, "x", "c1"), up, Epsilon.zero_plus(k))
    assert cert.certified_good and cert.total_gain == t * d
    cert = validate_sequence(
        e, lab.committee(*dummies, "y", f"c{t + 1}"), inverse_sequence(up), Epsilon.zero_plus(k)
    )
    assert cert.certified_good and cert.total_gain == t * d
    state = SatisfactionState(e, lab.committee(*dummies, "x", f"c{t + 1}"))
    assert delta(e, state, lab.candidate("x"), lab.candidate("y")) == -t * d
    state = SatisfactionState(e, lab.committee(*dummies, "y", "c1"))
    assert delta(e, state, lab.candidate("y"), lab.candidate("x")) == -t * d


def test_e_t_clone_closure():
    lab = e_t_election(4, 2, 5)
    chain = [lab.candidate(f"c{q}") for q in range(1, 6)]
    for i, members in ((int(g[1:]), v) for g, v in lab.voter_groups.items()):
        lower, upper = set(chain[:i]), set(chain[i:])
        for ci in members:
            ballot = lab.election.approval_sets[ci]
            assert ballot & lower in (set(), lower)
            assert ballot & upper in (set(), upper)


# ---------------------------------------------------------------------------
# Layered family


def test_layered_params_validation():
    p = LayeredParams(2, 32)
    assert p.t == 32 and p.k2 == 30
    assert LayeredParams(2, 21).t == 22  # k odd: t = k + 1
    assert [p.level_arity(i) for i in (1, 2)] == [4, 2]
    with pytest.raises(ConstructionError):
        LayeredParams(3, 8)  # level arity 6 not below k2+1 = 6
    with pytest.raises(ConstructionError):
        LayeredParams(0, 8)
    with pytest.raises(ConstructionError):
        p.level_arity(3)


def test_layered_candidate_count():
    for levels, k in ((2, 21), (2, 32), (3, 64)):
        p = LayeredParams(levels, k)
        lab = layered_election(p)
        assert lab.election.m == p.k2 + levels * (p.t + 1)
        for i in range(1, levels + 1):
            members = lab.voter_groups[f"N{i}"]
            assert sum(lab.election.weights[ci] for ci in members) == p.t * 2 ** p.level_arity(i)


def test_layered_last_column_forward_flag():
    # The last column's forward flag is d_{k2}; no voter outside the
    # columns approves it, and the backward flag names no candidate.
    p = LayeredParams(2, 21)
    lab = layered_election(p)
    assert set(lab.voter_groups) == {"N1", "N2"}
    last = lab.voter_groups[f"N{p.levels}"]
    d_last = lab.candidate(f"d{p.k2}")
    with_flag = {ci for ci, bc in enumerate(lab.election.ballot_classes) if d_last in bc.approves}
    assert with_flag and with_flag <= last
    assert len(with_flag) * 2 == len(last)  # the forward half of every copy


def test_gain_holds_report():
    rep = gain_holds(LayeredParams(2, 32))
    assert rep.passed and rep.levels == {2: True}
    lhs, rhs = rep.margins[2]
    assert lhs == delta_formula(2, 31) and rhs == 32 * delta_formula(4, 31)
    assert not gain_holds(LayeredParams(2, 20)).passed
    assert gain_holds(LayeredParams(2, 21)).passed


def test_x_length_recurrence():
    p = LayeredParams(2, 32)
    assert x_length(p, 1) == 32
    assert x_length(p, 2) == 1056
    p3 = LayeredParams(3, 64)
    assert x_length(p3, 3) == 266_304
    with pytest.raises(ConstructionError):
        x_length(p, 3)


def test_x_sequence_matches_length_and_streams():
    p = LayeredParams(2, 21)
    for level in (1, 2):
        for parity in (0, 1):
            assert len(list(iter_x_sequence(p, level, parity))) == x_length(p, level)
    assert list(iter_x_sequence(p, 1, 0)) == inverse_sequence(list(iter_x_sequence(p, 1, 1)))
    with pytest.raises(ConstructionError):
        list(iter_x_sequence(p, 1, 2))
    with pytest.raises(ConstructionError):
        list(iter_x_sequence(p, 3, 1))


def test_layered_x_sequence_certifies_small():
    p = LayeredParams(2, 21)
    lab = layered_election(p)
    cert = validate_sequence(
        lab.election,
        layered_initial_committee(p),
        iter_x_sequence(p, 2, 1),
        Epsilon.zero_plus(p.k),
    )
    assert cert.certified_good
    assert cert.steps == x_length(p, 2)


def test_layered_stability_at_sampled_prefixes():
    # At sampled intermediate committees, no swap inside a column whose
    # group is currently stable is improving.
    p = LayeredParams(2, 21)
    lab = layered_election(p)
    e = lab.election
    seq = iter_x_sequence(p, 2, 1)
    state = SatisfactionState(e, layered_initial_committee(p))
    from pavls.core import apply_swap

    column1 = set(lab.candidate(f"c[1,{q}]") for q in range(1, p.t + 2))
    checked = 0
    for swap in seq:
        if swap.out_candidate not in column1:
            # a column-2 swap: column 1 just finished a sweep, so its
            # group is stable and admits no improving internal swap
            seated = [c for c in column1 if c in state.committee]
            assert len(seated) == 1
            for b in column1:
                if b not in state.committee:
                    assert delta(e, state, seated[0], b) <= 0
            checked += 1
        apply_swap(state, swap)
    assert checked == p.t


# ---------------------------------------------------------------------------
# Hardened family


def test_hardened_params():
    hp = HardenedParams(LayeredParams(2, 32))
    assert hp.gamma_value == 8 * 32 * 32 * 33
    assert hp.blocker_weight == 2 * hp.gamma_value
    tight = HardenedParams(LayeredParams(2, 32), gamma=Fraction(5, 2))
    assert tight.blocker_weight == 5
    with pytest.raises(ConstructionError):
        HardenedParams(LayeredParams(2, 32), gamma=Fraction(0)).gamma_value


def test_hardened_rejects_failing_gain():
    with pytest.raises(ConstructionError):
        hardened_election(HardenedParams(LayeredParams(2, 20)))


def test_hardened_blocker_groups():
    hp = HardenedParams(LayeredParams(2, 21), gamma=Fraction(1))
    lab = hardened_election(hp)
    p = hp.layered
    for i in range(1, p.levels + 1):
        members = lab.voter_groups[f"V{i}"]
        assert len(members) == 1
        (ci,) = members
        assert lab.election.ballot_classes[ci].weight == 2
        column = {lab.candidate(f"c[{i},{q}]") for q in range(1, p.t + 2)}
        assert lab.election.approval_sets[ci] == frozenset(column)
    for i in range(1, p.k2 + 1):
        (ci,) = lab.voter_groups[f"V{p.levels + i}"]
        assert lab.election.approval_sets[ci] == frozenset({lab.candidate(f"d{i}")})


def test_hardened_extends_layered_native_text():
    hp = HardenedParams(LayeredParams(2, 21), gamma=Fraction(1))
    layered = serialize_native(layered_election(hp.layered).election)
    hardened = serialize_native(hardened_election(hp).election)
    assert hardened.startswith(layered)
    blockers = hardened[len(layered):].splitlines()
    assert len(blockers) == hp.layered.levels + hp.layered.k2
    assert all(line.startswith("ballot 2: ") for line in blockers)


def test_z_sequence_shape():
    hp = HardenedParams(LayeredParams(2, 32))
    z = list(iter_z_sequence(hp.layered, hp.layered.levels, 1))
    t = hp.layered.t
    assert len(z) == t * (t + 3) // 2  # t/2 full upward sweeps, t/2 shortcuts
    assert len(z) >= t * t // 2


def test_certify_hardened_small():
    hp = HardenedParams(LayeredParams(2, 21))
    cert = certify_hardened(hp)
    assert cert.matches
    assert cert.first_mismatch is None
    assert cert.trace.executed_swaps == cert.predicted
    assert max(cert.trace.step_deltas) <= cert.gamma
    # no swap ever crosses between columns or touches a dummy
    p = hp.layered
    lab = hardened_election(hp)
    col = {}
    for i in range(1, p.levels + 1):
        for q in range(1, p.t + 2):
            col[lab.candidate(f"c[{i},{q}]")] = i
    for swap in cert.trace.executed_swaps:
        assert col[swap.out_candidate] == col[swap.in_candidate]


def test_certify_hardened_gamma_too_small():
    from pavls import GammaTooSmallError

    hp = HardenedParams(LayeredParams(2, 21), gamma=Fraction(1, 10**9))
    with pytest.raises(GammaTooSmallError):
        certify_hardened(hp, step_cap=20)
