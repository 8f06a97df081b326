import itertools
import random

import pytest
from hypothesis import given, strategies as st

from regsync.priority import (
    ACTION_SEVERITY,
    AUTHORITY_RANK,
    DEFAULT_HORIZON,
    AuthorityLevel,
    DuplicateKeyError,
    HorizonError,
    RegRequest,
    priority_key,
    rank_requests,
    select_highest,
)
from regsync.regulatory import RegAction
from regsync.scenario import request_from_json, request_to_json


def req(node=1, authority=AuthorityLevel.NATIONAL, t=10, action=RegAction.FREEZE, asset="a1"):
    return RegRequest(node, authority, t, action, asset)


class TestKeyComponents:
    def test_authority_rank_monotone(self):
        levels = [AuthorityLevel.REGIONAL, AuthorityLevel.NATIONAL, AuthorityLevel.INTERNATIONAL]
        ranks = [AUTHORITY_RANK[l] for l in levels]
        assert ranks == sorted(ranks) and len(set(ranks)) == 3

    def test_severity_injective(self):
        values = [ACTION_SEVERITY[a] for a in RegAction]
        assert len(set(values)) == len(values)

    def test_severity_table(self):
        assert ACTION_SEVERITY[RegAction.CONFISCATE] == 7
        assert ACTION_SEVERITY[RegAction.UNRESTRICT] == 1


class TestPriorityKey:
    def test_direct_evaluation(self):
        assert priority_key(req(node=2, t=10)) == (2, DEFAULT_HORIZON - 10, 5, DEFAULT_HORIZON - 2)

    def test_earlier_timestamp_wins(self):
        early = priority_key(req(t=5))
        late = priority_key(req(t=10))
        assert early > late

    def test_smaller_node_id_breaks_ties(self):
        a = priority_key(req(node=3))
        b = priority_key(req(node=7))
        assert a > b

    def test_authority_dominates(self):
        weak = req(authority=AuthorityLevel.REGIONAL, t=0, action=RegAction.CONFISCATE, node=0)
        strong = req(authority=AuthorityLevel.INTERNATIONAL, t=99, action=RegAction.UNRESTRICT, node=99)
        assert priority_key(strong) > priority_key(weak)

    def test_horizon_errors(self):
        assert priority_key(req(node=DEFAULT_HORIZON, t=DEFAULT_HORIZON))[1::2] == (0, 0)
        for bad in (-1, DEFAULT_HORIZON + 1):
            with pytest.raises(HorizonError):
                priority_key(req(t=bad))
            with pytest.raises(HorizonError):
                priority_key(req(node=bad))


def universe():
    """Six requests with pairwise-distinct node ids."""
    return [
        req(node=1, authority=AuthorityLevel.REGIONAL, t=1, action=RegAction.CONFISCATE),
        req(node=2, authority=AuthorityLevel.INTERNATIONAL, t=9, action=RegAction.UNFREEZE),
        req(node=3, authority=AuthorityLevel.NATIONAL, t=4, action=RegAction.SEIZE),
        req(node=4, authority=AuthorityLevel.NATIONAL, t=4, action=RegAction.FREEZE),
        req(node=5, authority=AuthorityLevel.REGIONAL, t=2, action=RegAction.RELEASE),
        req(node=6, authority=AuthorityLevel.INTERNATIONAL, t=9, action=RegAction.UNFREEZE),
    ]


class TestSelectHighest:
    def test_empty_set(self):
        assert select_highest([]) is None

    def test_authority_beats_everything(self):
        low = req(node=1, authority=AuthorityLevel.REGIONAL, t=1, action=RegAction.CONFISCATE)
        high = req(node=2, authority=AuthorityLevel.INTERNATIONAL, t=9, action=RegAction.UNFREEZE)
        assert select_highest([low, high]) == high

    def test_all_subsets_have_unique_maximum(self):
        reqs = universe()
        for size in range(1, len(reqs) + 1):
            for subset in itertools.combinations(reqs, size):
                winner = select_highest(subset)
                wk = priority_key(winner)
                assert all(priority_key(r) <= wk for r in subset)
                assert sum(1 for r in subset if priority_key(r) == wk) == 1

    def test_permutation_invariance_brute_force(self):
        subset = universe()[:5]
        baseline = select_highest(subset)
        for perm in itertools.permutations(subset):
            assert select_highest(list(perm)) == baseline

    def test_duplicate_keys_raise(self):
        a = req(node=1, t=5)
        b = RegRequest(1, a.authority, 5, a.action, "other-asset")
        with pytest.raises(DuplicateKeyError):
            select_highest([a, b])

    @given(st.lists(st.integers(0, 100), min_size=1, max_size=20, unique=True), st.randoms())
    def test_selection_order_independent(self, nodes, rnd):
        reqs = [
            req(
                node=n,
                authority=list(AuthorityLevel)[n % 3],
                t=n % 7,
                action=list(RegAction)[n % 7],
            )
            for n in nodes
        ]
        baseline = select_highest(reqs)
        shuffled = list(reqs)
        rnd.shuffle(shuffled)
        assert select_highest(shuffled) == baseline


class TestInjectivity:
    def test_distinct_node_ids_always_injective(self):
        assert len(rank_requests(universe())) == len(universe())

    def test_identical_key_inputs_reported(self):
        a = req(node=1, t=5, asset="a1")
        b = req(node=1, t=5, asset="a2")
        with pytest.raises(DuplicateKeyError) as exc:
            rank_requests([a, b])
        assert set(exc.value.requests) == {a, b}

    def test_random_sample_with_distinct_nodes(self):
        rng = random.Random(7)
        reqs = [
            req(
                node=n,
                authority=rng.choice(list(AuthorityLevel)),
                t=rng.randint(0, 100),
                action=rng.choice(list(RegAction)),
            )
            for n in rng.sample(range(101), 20)
        ]
        assert len(rank_requests(reqs)) == len(reqs)


def test_request_json_round_trip():
    r = req()
    doc = request_to_json(r)
    assert doc == {
        "node": 1,
        "authority": "National",
        "timestamp": 10,
        "action": "FREEZE",
        "asset": "a1",
    }
    assert request_from_json(doc) == r
