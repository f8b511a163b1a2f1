import hashlib
import json
import re
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pavls import (
    BestResponse,
    ConstructionError,
    Epsilon,
    HardenedParams,
    InvalidCommitteeError,
    InvalidElectionError,
    LabeledElection,
    LayeredParams,
    LexicographicBetterResponse,
    PavlsError,
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
    min_k_gain_search,
    run,
    serialize_native,
    validate_sequence,
    warmup_election,
    warmup_initial_committee,
    warmup_sequence,
    x_length,
)
from pavls.constructions import _build, _column, _f_ballots
from pavls.core import SatisfactionState, apply_swap
from pavls.search import next_swap_best


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
    # Sizes are exact ints: 3.0 would raise TypeError, and True would
    # pass for j = 1.
    for j, k in ((0, 4), (4, 4), (5, 4), (-1, 3), (1, 3.0), (1.0, 3), (True, 3), ("1", 3)):
        with pytest.raises(ConstructionError):
            delta_formula(j, k)


# ---------------------------------------------------------------------------
# Warm-up family


def test_warmup_small_sizes():
    lab = warmup_election(4)
    assert lab.election.n == 8
    assert lab.election.m == 8
    assert len(warmup_sequence(4)) == 6
    for k in (3, 4.0, "4", None):
        with pytest.raises(ConstructionError, match="k >= 4"):
            warmup_election(k)
        with pytest.raises(ConstructionError, match="k >= 4"):
            warmup_sequence(k)
    # None raised a bare AttributeError, and an election without a
    # committee size a bare TypeError.
    for labeled in (None, lab.election, (lab.election, {})):
        with pytest.raises(ConstructionError, match="must be a LabeledElection"):
            warmup_initial_committee(labeled)
    unsized = replace(lab, election=lab.election.with_committee_size(None))
    with pytest.raises(InvalidCommitteeError, match="no committee size"):
        warmup_initial_committee(unsized)


# The last is a LabeledElection where its Election belongs.
@pytest.mark.parametrize("election", [None, "x", (), warmup_election(4)])
def test_labeled_election_needs_an_election(election):
    # None reached warmup_initial_committee and raised a bare
    # AttributeError there.
    with pytest.raises(InvalidElectionError, match="must be an Election"):
        LabeledElection(election, {}, {})
    with pytest.raises(InvalidElectionError, match="must be an Election"):
        replace(warmup_election(4), election=election)


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
    # one dummy candidate: the same role, with a dummy prefix one longer.
    big, small = _f_ballots(j, k), _f_ballots(j, k - 1)
    assert len(big) == len(small)
    for (big_p, big_role), (small_p, small_role) in zip(big, small):
        assert big_role == small_role and big_p == small_p + 1


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
        av, aw = e.ballot_classes[v].approves, e.ballot_classes[w].approves
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
    # Sizes are exact ints: f_election(1.0, 3) would build an election and
    # the other calls would raise TypeError.
    for family, j, k in ((f_election, 1.0, 3), (f_election, 1, 3.0), (e_election, 1, 3.0),
                         (e_election, True, 3)):
        with pytest.raises(ConstructionError, match="1 <= j < k"):
            family(j, k)
    with pytest.raises(ConstructionError, match="1 <= j < k"):
        e_t_election(1, 1, 3.0)
    for t in (0, 1.0, True):
        with pytest.raises(ConstructionError, match="t >= 1"):
            e_t_election(t, 1, 3)


def test_builder_rejects_duplicate_label():
    # The Election refuses repeated names, so the label map cannot lose one.
    entries = [(frozenset({0}), 1, "N")]
    with pytest.raises(InvalidElectionError, match="candidate names must be distinct"):
        _build(["a", "b", "a"], entries, 1)


_small_families = st.one_of(
    st.integers(4, 9).map(warmup_election),
    st.integers(1, 4).flatmap(lambda j: st.integers(j + 1, 7).map(lambda k: f_election(j, k))),
    st.integers(1, 4).flatmap(lambda j: st.integers(j + 1, 7).map(lambda k: e_election(j, k))),
    st.builds(lambda t, j, extra: e_t_election(t, j, j + extra),
              st.integers(1, 4), st.integers(1, 3), st.integers(1, 3)),
    st.sampled_from([(1, 3), (1, 8), (2, 6), (2, 9), (3, 9), (3, 10)]).map(
        lambda p: layered_election(LayeredParams(*p))),
    st.sampled_from([(1, 3), (1, 6), (2, 21), (2, 22)]).map(
        lambda p: hardened_election(HardenedParams(LayeredParams(*p)))),
)


@settings(max_examples=40, deadline=None)
@given(_small_families)
def test_family_label_maps_groups_and_counterparts(lab):
    # The label map is a bijection onto the candidates, the voter groups
    # partition the ballot classes, and a counterpart map is a
    # fixed-point-free involution on them.
    e = lab.election
    labels = lab.candidate_labels
    assert sorted(labels.values()) == list(range(e.m))
    assert all(e.candidate_names[i] == name for name, i in labels.items())
    groups = list(lab.voter_groups.values())
    assert sum(map(len, groups)) == len(e.ballot_classes)
    assert frozenset().union(*groups) == set(range(len(e.ballot_classes)))
    s = lab.counterpart
    if s is not None:
        assert set(s) == set(range(len(e.ballot_classes)))
        assert all(w != v and s[w] == v for v, w in s.items())


def test_label_lookups_name_the_unknown_label():
    # An unknown label raised KeyError, an unhashable one TypeError.
    lab = e_election(2, 5)
    assert lab.committee("x", "a") == {lab.candidate("x"), lab.candidate("a")}
    for label in ("zz", ["x"], None, 0):
        message = re.escape(f"unknown candidate label {label!r}")
        with pytest.raises(ConstructionError, match=message):
            lab.candidate(label)
        with pytest.raises(ConstructionError, match=message):
            lab.committee("x", label)


# SHA-256 of serialize_native followed by json.dumps of the labels sidecar
# that ``pavls construct --labels-out`` writes (candidate_labels, sorted
# voter_groups, counterpart, in that order).  Recorded at commit 3c82f81,
# whose builder still spelled each ballot as label strings and mapped
# them to indices; building ballots as index sets must not change a byte.
_CONSTRUCTION_DIGESTS = {
    "warmup(8)": (
        lambda: warmup_election(8),
        "db79e06d90347ff8fe44f7b55c11405d8420331fabf8ee66b80d3bb38bf97a05"),
    "f(3, 6)": (
        lambda: f_election(3, 6),
        "865c0986798a98233cb04a8137f45b882c460148b25a87bf719f0141eadccb76"),
    "e(3, 8)": (
        lambda: e_election(3, 8),
        "1f9c5b704ceb4c7eea446fc20448ea96f37bd4433b6df150e3a5c218f01fbd50"),
    "e_t(4, 2, 5)": (
        lambda: e_t_election(4, 2, 5),
        "25abd506d7cf63621dc7d2e55d861e9a15d5f24b2f15cb7d8e3f867ab0a43a05"),
    "layered(2, 22)": (
        lambda: layered_election(LayeredParams(2, 22)),
        "2db5af6b499f94d7dac3bf0a81b73a8784e0f2f5743b6da3a88dde5aea8ca631"),
    "layered(3, 10)": (
        lambda: layered_election(LayeredParams(3, 10)),
        "033423d2e472f9ae914422bb25ca1ba1a2323f64b5f56aaf161c69ba767495d4"),
    "hardened(2, 22)": (
        lambda: hardened_election(HardenedParams(LayeredParams(2, 22))),
        "74cc7e6b3a88b0cd408db17d2f0e09dea686f58349bc6c33c913b3fd4e77d379"),
    # The smallest instance of each family.
    "warmup(4)": (
        lambda: warmup_election(4),
        "836d2e3060b8d9171efafa47fc2e22f598ea6f58655a581ed4a9c9373e525f3c"),
    "f(1, 3)": (
        lambda: f_election(1, 3),
        "1cee83231f39d7d684dee2a12420a4b1a1682fcf2848f6e48ebce815275b1a5e"),
    "e(1, 3)": (
        lambda: e_election(1, 3),
        "ab6796b2e579993cd968df2573e82f8233012e38f23a3a8197981cfd762531a1"),
    "e_t(1, 1, 3)": (
        lambda: e_t_election(1, 1, 3),
        "74cc745616f56b2ad5ca40aefd48af54322eb2d8ad0e799cad158ff255000698"),
    "layered(1, 8)": (
        lambda: layered_election(LayeredParams(1, 8)),
        "0f0e437ffc795f7d788a79de1495ca83dedd0da25fc429e7a462901d586350fc"),
}


@pytest.mark.parametrize("family", sorted(_CONSTRUCTION_DIGESTS))
def test_construction_outputs_pinned(family):
    build, want = _CONSTRUCTION_DIGESTS[family]
    lab = build()
    sidecar = {
        "candidate_labels": lab.candidate_labels,
        "voter_groups": {g: sorted(v) for g, v in lab.voter_groups.items()},
        "counterpart": lab.counterpart,
    }
    text = serialize_native(lab.election) + json.dumps(sidecar)
    assert hashlib.sha256(text.encode()).hexdigest() == want


_SHARING_FAMILIES = {
    "layered(2, 22)": lambda: layered_election(LayeredParams(2, 22)),
    "layered(3, 10)": lambda: layered_election(LayeredParams(3, 10)),
    "hardened(2, 22)": lambda: hardened_election(HardenedParams(LayeredParams(2, 22))),
    "warmup(16)": lambda: warmup_election(16),
}


@pytest.mark.parametrize("family", sorted(_SHARING_FAMILIES))
def test_equal_ballots_share_one_frozenset(family):
    # Each distinct ballot is one frozenset, however many classes hold it
    # (the warm-up family repeats none).
    approves = [bc.approves for bc in _SHARING_FAMILIES[family]().election.ballot_classes]
    distinct = len(set(approves))
    assert distinct < len(approves) or family.startswith("warmup")
    assert len(set(map(id, approves))) == distinct


@pytest.mark.parametrize("j,k", [(1, 3), (1, 6), (2, 4), (2, 7), (3, 5), (4, 6)])
def test_e_pivotal_swap_gain(j, k):
    lab = e_election(j, k)
    w = lab.committee(*_dummy_names(k - 2), "x", "a")
    state = SatisfactionState(lab.election, w)
    assert delta(lab.election, state, lab.candidate("a"), lab.candidate("b")) == delta_formula(j, k)
    for bc in lab.election.ballot_classes:
        assert len(bc.approves & w) >= k - (j + 1)


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
            ballot = lab.election.ballot_classes[ci].approves
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
    # Exact ints only: 2.0 and True would build, "21" would raise TypeError.
    for levels, k in ((2.0, 21), (True, 21), (2, "21"), (2, 21.0)):
        with pytest.raises(ConstructionError):
            LayeredParams(levels, k)
    with pytest.raises(ConstructionError):
        p.level_arity(3)
    assert [LayeredParams.asymptotic_levels(k) for k in (1, 2, 3, 64, 65)] == [1, 1, 2, 6, 7]
    # k is an exact int >= 1: 2.5 returned 2, and "x" raised a bare TypeError.
    for k in (0, -1, 2.5, 2.0, True, "x", None, Fraction(4)):
        with pytest.raises(ConstructionError):
            LayeredParams.asymptotic_levels(k)


def test_layered_candidate_count():
    for levels, k in ((2, 21), (2, 32), (3, 64)):
        p = LayeredParams(levels, k)
        lab = layered_election(p)
        assert lab.election.m == p.k2 + levels * (p.t + 1)
        for i in range(1, levels + 1):
            members = lab.voter_groups[f"N{i}"]
            weight = sum(lab.election.ballot_classes[ci].weight for ci in members)
            assert weight == p.t * 2 ** p.level_arity(i)


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
    for level in (3, 1.0, True):
        with pytest.raises(ConstructionError):
            x_length(p, level)


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


def test_sweep_parity_and_level_checked():
    # Both generators take parity as the exact int 0 or 1: the z-sequence
    # used to read 2, -1 and True as parity 1.
    p = LayeredParams(2, 22)
    for generator in (iter_x_sequence, iter_z_sequence):
        for parity in (2, -1, True, 1.0, None):
            with pytest.raises(ConstructionError, match="parity"):
                list(generator(p, 2, parity))
        for level in (0, 3, 2.0, True):
            with pytest.raises(ConstructionError, match="level"):
                list(generator(p, level, 1))


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


def test_replay_interns_step_values():
    # A replay builds each distinct step value once: equal step deltas are
    # one object, and the state's value table ends with one entry per
    # distinct value.  A picker's scan works on int numerators and leaves
    # the table as it was.
    p = LayeredParams(2, 22)
    e = layered_election(p).election
    start = layered_initial_committee(p)
    eps = Epsilon.zero_plus(p.k)
    seq = list(iter_x_sequence(p, 2, 1))
    cert = validate_sequence(e, start, seq, eps)
    assert cert.certified_good and cert.steps == len(seq)
    distinct = set(cert.step_deltas)
    assert len(set(map(id, cert.step_deltas))) == len(distinct) < cert.steps
    state = SatisfactionState(e, start)
    assert state.values == {}
    for a, b in seq:
        d = delta(e, state, a, b)
        assert state.values[d.numerator * (e._cell_coefficients[0] // d.denominator)] is d
        apply_swap(state, Swap(a, b))
    assert len(state.values) == len(distinct)
    assert set(state.values.values()) == distinct
    table = dict(state.values)
    next_swap_best(e, state, eps)
    assert state.values == table


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


def _sweep_digest(generator, p):
    """sha256 of every level and parity of one sweep generator."""
    text = " ".join(
        f"{level},{parity}:" + ",".join(f"{s.out_candidate}>{s.in_candidate}"
                                        for s in generator(p, level, parity))
        for level in range(1, p.levels + 1) for parity in (0, 1))
    return hashlib.sha256(text.encode()).hexdigest()


# Recorded from the generators before they shared the column layout.
_SWEEP_DIGESTS = {
    (2, 22): (
        "aaa69308aafba6fc0b7943225c606146c85c36b3313eafebdac531a6d12f49af",
        "d9b3f716222689b0426e4ab2d09429e209669cad9a56e2a87f5b04c2211b72ed",
        "1edbc353755f52240e377afb9638049f714b96cc717638023cca900825d070b7"),
    (3, 10): (
        "0afa3647f8ba20a064e416e69bf55889a1c4f137ec2588b15f7bf13726336503",
        "c44e6d2c0bbb6519d13efd12e37c513a64674ce1a282b189d9b32613a3927205",
        "998a43ce89653f741b5ed07a47a1ab58563a5367cefd4c2bebf3e91caeeb80ae"),
}


def test_layered_layout_and_sweeps_pinned():
    for (levels, k), (x_digest, z_digest, w0_digest) in _SWEEP_DIGESTS.items():
        p = LayeredParams(levels, k)
        initial = layered_initial_committee(p)
        assert _sweep_digest(iter_x_sequence, p) == x_digest
        assert _sweep_digest(iter_z_sequence, p) == z_digest
        assert hashlib.sha256(repr(sorted(initial)).encode()).hexdigest() == w0_digest
        # The index layout agrees with the builder's labels.
        lab = layered_election(p)
        for i in range(1, levels + 1):
            for q in range(1, p.t + 2):
                assert lab.candidate(f"c[{i},{q}]") == _column(p, i)[q - 1]
        seats = [f"c[{i},{p.t + 1}]" for i in range(1, levels)] + [f"c[{levels},1]"]
        assert initial == lab.committee(*seats, *_dummy_names(p.k2))


# ---------------------------------------------------------------------------
# Hardened family


def test_hardened_params():
    hp = HardenedParams(LayeredParams(2, 32))
    assert hp.gamma_value == 8 * 32 * 32 * 33
    assert hp.blocker_weight == 2 * hp.gamma_value
    tight = HardenedParams(LayeredParams(2, 32), gamma=Fraction(5, 2))
    assert tight.blocker_weight == 5
    assert HardenedParams(LayeredParams(2, 32), gamma=5).gamma_value == Fraction(5)
    # gamma is checked when the params are built, before anything reads
    # gamma_value: a float would reach the exact delta comparisons.
    for bad in (Fraction(0), Fraction(-1), 0, 0.5, True, "5"):
        with pytest.raises(ConstructionError):
            HardenedParams(LayeredParams(2, 32), gamma=bad)
    # So is layered: a tuple used to fail only when gamma_value read .k.
    for bad in ((2, 21), None):
        with pytest.raises(ConstructionError):
            HardenedParams(bad)


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
        assert lab.election.ballot_classes[ci].approves == frozenset(column)
    for i in range(1, p.k2 + 1):
        (ci,) = lab.voter_groups[f"V{p.levels + i}"]
        assert lab.election.ballot_classes[ci].approves == frozenset({lab.candidate(f"d{i}")})


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


def test_certify_hardened_capped_compares_prefix():
    params = LayeredParams(2, 22)
    cert = certify_hardened(HardenedParams(params), step_cap=5)
    assert cert.trace.swaps == 5 and not cert.trace.terminated
    assert cert.matches and cert.first_mismatch is None
    assert cert.predicted == list(iter_z_sequence(params, params.levels, 1))[:5]


def test_certify_hardened_reports_first_mismatch(monkeypatch):
    import pavls.constructions as cons

    true_z, true_run = cons.iter_z_sequence, cons.run

    def wrong_z(index=None, length=None):
        """The z-sequence with swap ``index`` reversed, cut to ``length`` swaps."""
        def fake(params, level, parity=1):
            for idx, swap in enumerate(true_z(params, level, parity)):
                if idx == length:
                    return
                yield Swap(swap.in_candidate, swap.out_candidate) if idx == index else swap
        return fake

    hp = HardenedParams(LayeredParams(2, 21))
    # A wrong swap inside the compared prefix, and predictions shorter
    # than the capped and the uncapped run.
    for fake, cap, first in ((wrong_z(index=3), 5, 3), (wrong_z(length=2), 5, 2),
                             (wrong_z(length=7), None, 7)):
        monkeypatch.setattr(cons, "iter_z_sequence", fake)
        cert = certify_hardened(hp, step_cap=cap)
        assert not cert.matches and cert.first_mismatch == first
    # A run that stops before the prediction ends mismatches where it stopped.
    monkeypatch.setattr(cons, "iter_z_sequence", true_z)
    monkeypatch.setattr(cons, "run", lambda *args, step_cap: true_run(*args, step_cap=4))
    cert = certify_hardened(hp, step_cap=5)
    assert len(cert.predicted) == 5
    assert not cert.matches and cert.first_mismatch == 4


def test_hardened_epsilon_sweep():
    # The small row of the epsilon sweep: from the layered start of
    # hardened (2, 22), lex better response grows from no swap at 1/k to
    # the 275-swap z-sequence at 1/k^4, while best response takes one
    # swap once epsilon is at most 1/k^2.  Each row is (swaps, comparisons,
    # exact evaluations, min step delta), recorded at commit e3a418b.
    params = LayeredParams(2, 22)
    election = hardened_election(HardenedParams(params)).election
    start = layered_initial_committee(params)
    k = params.k
    none = (0, 968, 148, None)
    one = (1, 1936, 308, Fraction(11, 1995))
    full = (275, 72897, 10450, Fraction(1, 101745))
    sweep = (
        (Fraction(1, k), none, none),
        (Fraction(1, k**2), (2, 2556, 402, Fraction(1, 399)), one),
        (Fraction(1, k**3), (11, 8976, 1386, Fraction(1, 1995)), one),
        (Fraction(1, k**4), full, one),
        (Fraction(1, k**5), full, one),
        ("zero-plus", full, one),
    )
    for selector, *expected in sweep:
        eps = Epsilon.resolve(selector, election)
        for rule, want in zip((LexicographicBetterResponse(), BestResponse()), expected):
            trace = run(election, start, eps, rule)
            assert trace.terminated
            got = (trace.swaps, trace.comparisons, trace.delta_evals,
                   min(trace.step_deltas, default=None))
            assert got == want, (selector, rule)


def test_certify_hardened_gamma_too_small():
    from pavls import GammaTooSmallError

    hp = HardenedParams(LayeredParams(2, 21), gamma=Fraction(1, 10**9))
    with pytest.raises(GammaTooSmallError):
        certify_hardened(hp, step_cap=20)


# ---------------------------------------------------------------------------
# Entry points under junk arguments


_JUNK = (-1, 0, 1, 2, 3, 2.0, 2.5, True, False, None, "2", Fraction(5, 2), Fraction(4))
_junk = st.sampled_from(_JUNK)
_P22 = LayeredParams(2, 22)
_E25 = e_election(2, 5)
# Params of the wrong type, including each params class where the other
# belongs; every election they can build is at most (2, 22).
_params = _junk | st.sampled_from(((2, 22), [2, 22], "22", _E25, HardenedParams(_P22), _P22))
_label = st.sampled_from(sorted(_E25.candidate_labels) + ["zz", ""]) | _junk | st.just(["x"])
# name -> (call, one strategy per argument).  No size exceeds 4, so
# every election built here is tiny.
_ENTRY_POINTS = {
    "delta_formula": (delta_formula, (_junk, _junk)),
    "f_election": (f_election, (_junk, _junk)),
    "e_election": (e_election, (_junk, _junk)),
    "e_t_election": (e_t_election, (_junk, _junk, _junk)),
    "warmup_election": (warmup_election, (_junk,)),
    "warmup_sequence": (warmup_sequence, (_junk,)),
    "warmup_initial_committee": (warmup_initial_committee,
                                 (_params | st.builds(warmup_election, st.integers(4, 6)),)),
    "LayeredParams": (LayeredParams, (_junk, _junk)),
    "asymptotic_levels": (LayeredParams.asymptotic_levels, (_junk,)),
    "min_k_gain_search": (min_k_gain_search, (_junk | st.lists(_junk, max_size=3), _junk)),
    "x_length": (lambda level: x_length(_P22, level), (_junk,)),
    "level_arity": (_P22.level_arity, (_junk,)),
    "iter_x_sequence": (lambda *a: list(iter_x_sequence(_P22, *a)), (_junk, _junk)),
    "iter_z_sequence": (lambda *a: list(iter_z_sequence(_P22, *a)), (_junk, _junk)),
    "HardenedParams": (HardenedParams, (st.just(_P22) | _junk, _junk)),
    "layered_election": (layered_election, (_params,)),
    "layered_initial_committee": (layered_initial_committee, (_params,)),
    "gain_holds": (gain_holds, (_params,)),
    "x_length(params)": (x_length, (_params, _junk)),
    "iter_x_sequence(params)": (lambda *a: list(iter_x_sequence(*a)), (_params, _junk, _junk)),
    "iter_z_sequence(params)": (lambda *a: list(iter_z_sequence(*a)), (_params, _junk, _junk)),
    "hardened_election": (hardened_election, (_params,)),
    "certify_hardened": (lambda hp: certify_hardened(hp, step_cap=2), (_params,)),
    "candidate": (_E25.candidate, (_label,)),
    "committee": (lambda labels: _E25.committee(*labels), (st.lists(_label, max_size=3),)),
}


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_construction_entry_points_raise_only_pavls_errors(data):
    # Every call either returns or raises a PavlsError; any other
    # exception fails the test.
    call, strategies = _ENTRY_POINTS[data.draw(st.sampled_from(sorted(_ENTRY_POINTS)))]
    args = data.draw(st.tuples(*strategies))
    try:
        call(*args)
    except PavlsError:
        pass
