import pytest
from hypothesis import example, given, settings, strategies as st

from regsync import locales
from regsync.locales import (
    Morphism,
    SymmetricMorphism,
    check_consistent_init,
    check_multi_domain,
    check_naturality,
    check_roundtrip,
    check_sequential_preservation,
    identity_morphism,
    rename_machine,
)
from regsync.preservation import (
    DomainStateMap, connected_domains, disagreements, explore, judge, sync_all,
)
from regsync.regulatory import reg_machine_spec
from regsync.report import BudgetExceededError

from conftest import rules

REG = reg_machine_spec()
RENAMED, RENAMING = rename_machine(REG, lambda s: s + "'", lambda a: a + "'")


def inverse_renaming():
    back = Morphism(
        RENAMED,
        REG,
        {v: k for k, v in RENAMING.state_map.items()},
        {v: k for k, v in RENAMING.action_map.items()},
    )
    return SymmetricMorphism(RENAMING, back)


def collapsing_morphism():
    # FROZEN and SEIZED both land on FROZEN'; breaks naturality at (FROZEN, SEIZE).
    state_map = dict(RENAMING.state_map)
    state_map["SEIZED"] = "FROZEN'"
    return Morphism(REG, RENAMED, state_map, dict(RENAMING.action_map))


class TestNaturality:
    def test_identity(self):
        assert check_naturality(identity_morphism(REG)).ok

    def test_renaming_bijection(self):
        assert check_naturality(RENAMING).ok

    def test_collapsing_morphism_fails(self):
        report = check_naturality(collapsing_morphism())
        assert not report.ok
        witnesses = {v.witness for v in report.violations}
        assert ("FROZEN", "SEIZE") in witnesses


class TestSequentialPreservation:
    def test_identity(self):
        assert check_sequential_preservation(identity_morphism(REG), 3).ok

    def test_renaming_length_4(self):
        assert check_sequential_preservation(RENAMING, 4).ok

    def test_length_1_reduces_to_naturality(self):
        bad = collapsing_morphism()
        assert check_naturality(bad).ok == check_sequential_preservation(bad, 1).ok
        assert not check_sequential_preservation(bad, 1).ok

    def test_budget_rejection(self):
        with pytest.raises(BudgetExceededError):
            check_sequential_preservation(RENAMING, 4, budget=10)


class TestRoundtrip:
    def test_identity_both_ways(self):
        ident = identity_morphism(REG)
        assert check_roundtrip(SymmetricMorphism(ident, ident)).ok

    def test_renaming_with_inverse(self):
        assert check_roundtrip(inverse_renaming()).ok

    def test_collapsing_forward_fails_injectivity(self):
        sym = inverse_renaming()
        report = check_roundtrip(SymmetricMorphism(collapsing_morphism(), sym.backward))
        assert "injectivity" in rules(report)

    def test_a_backward_map_from_elsewhere_fails_both_roundtrips(self):
        """A backward map that starts at the forward's source, not at its
        target, maps no image back: a report, not a KeyError."""
        report = check_roundtrip(SymmetricMorphism(RENAMING, identity_morphism(REG)))
        assert rules(report) == {"roundtrip_source", "roundtrip_target"}
        assert len(report.violations) == 2 * len(REG.states)


def partial(m, left_out):
    """``m`` with the state or action ``left_out`` missing from its maps."""
    return Morphism(m.source, m.target,
                    {s: t for s, t in m.state_map.items() if s != left_out},
                    {a: b for a, b in m.action_map.items() if a != left_out})


@pytest.mark.parametrize("left_out", ["FROZEN", "FREEZE"])
@pytest.mark.parametrize("check, witness", [
    (lambda x: check_naturality(partial(RENAMING, x)), "{}"),
    (lambda x: check_sequential_preservation(partial(RENAMING, x), 2), "{}"),
    (lambda x: check_roundtrip(SymmetricMorphism(partial(RENAMING, x),
                                                 inverse_renaming().backward)), "{}"),
    (lambda x: check_roundtrip(SymmetricMorphism(RENAMING,
                                                 partial(inverse_renaming().backward, x + "'"))),
     "{}'"),
], ids=["naturality", "sequential", "roundtrip-forward", "roundtrip-backward"])
def test_a_partial_map_is_reported_not_raised(check, witness, left_out):
    """A map that leaves out a state or an action gets mapping_closed alone
    from every check, as the forward or the backward map of a roundtrip:
    each check returns before it reads an image, so none raises KeyError."""
    report = check(left_out)
    assert [(v.rule, v.witness) for v in report.violations] == [
        ("mapping_closed", witness.format(left_out))]


def two_domain_map(states=("ACTIVE", "ACTIVE")):
    return DomainStateMap(
        frozenset({"d1", "d2"}),
        {("d1", "a1"): states[0], ("d2", "a1"): states[1]},
    )


class TestSyncAll:
    def test_propagates_to_both_domains(self):
        result = sync_all(two_domain_map(), "d1", "FREEZE", "a1", REG)
        assert result.table[("d1", "a1")] == "FROZEN"
        assert result.table[("d2", "a1")] == "FROZEN"

    def test_absent_asset(self):
        ds = two_domain_map()
        assert sync_all(ds, "d1", "FREEZE", "missing", REG) is None

    def test_undefined_transition(self):
        ds = two_domain_map(("FROZEN", "FROZEN"))
        assert sync_all(ds, "d1", "FREEZE", "a1", REG) is None

    def test_unconnected_domain_untouched(self):
        ds = DomainStateMap(
            frozenset({"d1", "d2", "d3"}),
            {("d1", "a1"): "ACTIVE", ("d2", "a1"): "ACTIVE", ("d3", "a2"): "FROZEN"},
        )
        result = sync_all(ds, "d1", "SEIZE", "a1", REG)
        assert result.table[("d3", "a2")] == "FROZEN"
        assert ("d3", "a1") not in result.table

    def test_domain_set_unchanged(self):
        ds = two_domain_map()
        assert sync_all(ds, "d1", "FREEZE", "a1", REG).domains == ds.domains

    def test_a_source_outside_the_map_fails(self):
        assert sync_all(two_domain_map(), "nope", "FREEZE", "a1", REG) is None


def _rewrite_other_assets(before, aid, after):
    table = {k: "CONFISCATED" if k[1] != aid else v for k, v in after.table.items()}
    return DomainStateMap(after.domains, table)


def _add_domain(before, aid, after):
    return DomainStateMap(after.domains | {"d9"}, after.table)


def _copy_old_state_elsewhere(before, aid, after):
    """The asset's old state appears on a domain that did not hold it."""
    old = next(v for (d, a), v in before.table.items() if a == aid)
    elsewhere = next(d for d in sorted(before.domains) if (d, aid) not in before.table)
    return DomainStateMap(after.domains, {**after.table, (elsewhere, aid): old})


def _drop_d3(before, aid, after):
    """Domain d3 and its cells are gone."""
    table = {(d, a): v for (d, a), v in after.table.items() if d != "d3"}
    return DomainStateMap(after.domains - {"d3"}, table)


def _copy_new_state_everywhere(before, aid, after):
    """The asset's new state appears on every domain, holder or not."""
    new = next(v for (d, a), v in after.table.items() if a == aid)
    return DomainStateMap(after.domains, {**after.table, **{(d, aid): new for d in after.domains}})


class TestMultiDomainCheck:
    def test_two_domains_one_asset_depth_3(self):
        assert check_multi_domain(two_domain_map(), REG, depth=3).ok

    def test_three_domains_two_assets_depth_2(self):
        ds = DomainStateMap(
            frozenset({"d1", "d2", "d3"}),
            {
                ("d1", "a1"): "ACTIVE",
                ("d2", "a1"): "ACTIVE",
                ("d2", "a2"): "RESTRICTED",
                ("d3", "a2"): "RESTRICTED",
            },
        )
        assert check_multi_domain(ds, REG, depth=2).ok

    def test_broken_sync_caught(self):
        def lossy_sync(ds, source, action, aid, sm):
            result = sync_all(ds, source, action, aid, sm)
            if result is None:
                return None
            # Drop the update on one non-source domain.
            table = dict(result.table)
            for d in sorted(ds.domains):
                if d != source and (d, aid) in table:
                    table[(d, aid)] = ds.table[(d, aid)]
                    break
            return DomainStateMap(result.domains, table)

        report = check_multi_domain(two_domain_map(), REG, depth=1, sync_fn=lossy_sync)
        assert "cross_domain_consistency" in rules(report)

    @pytest.mark.parametrize(
        "mutate, depth, fired",
        [
            pytest.param(_rewrite_other_assets, 1, {"sync_isolation"}, id="sync_isolation"),
            pytest.param(_add_domain, 1, {"domain_set_changed"}, id="domain_set_changed"),
            # The old state's cell appears on a domain that did not hold it.
            pytest.param(_copy_old_state_elsewhere, 1, {"valid_agreement", "sync_isolation"},
                         id="valid_agreement"),
            pytest.param(
                _copy_new_state_everywhere, 1, {"sync_isolation"}, id="synced_cell_appeared"
            ),
            # At depth 2 a step from d3 starts where d3 is gone, and fails.
            pytest.param(
                _drop_d3, 2, {"domain_set_changed", "cross_domain_consistency", "sync_isolation"},
                id="domain_dropped",
            ),
        ],
    )
    def test_rule_fires(self, mutate, depth, fired):
        ds = DomainStateMap(
            frozenset({"d1", "d2", "d3"}),
            {("d1", "a1"): "ACTIVE", ("d2", "a1"): "ACTIVE", ("d3", "a2"): "RESTRICTED"},
        )

        def mutant(current, source, action, aid, sm):
            result = sync_all(current, source, action, aid, sm)
            return None if result is None else mutate(current, aid, result)

        report = check_multi_domain(ds, REG, depth=depth, sync_fn=mutant)
        assert rules(report) == fired

    def test_a_success_where_the_sync_must_fail_breaks_consistency(self):
        """A sync_fn that returns its input where sync_all fails (asset
        missing at the source, or an undefined move) leaves each holder's
        cell where a failure is expected."""
        ds = DomainStateMap(frozenset({"d1", "d2"}), {("d1", "a1"): "ACTIVE"})

        def never_fails(current, source, action, aid, sm):
            return sync_all(current, source, action, aid, sm) or current

        report = check_multi_domain(ds, REG, depth=2, sync_fn=never_fails)
        assert rules(report) == {"cross_domain_consistency"}
        assert {v.witness[3] for v in report.violations} == {"d1"}  # the one holder

    def test_inconsistent_init_reported(self):
        report = check_multi_domain(two_domain_map(("ACTIVE", "FROZEN")), REG, depth=1)
        assert "consistent_init" in rules(report)

    def test_budget_rejection(self):
        """The refusal names the count explore reached: the first state's 14
        steps (two domains, seven actions, one asset), not budget + 1."""
        with pytest.raises(BudgetExceededError) as raised:
            check_multi_domain(two_domain_map(), REG, depth=3, budget=5)
        assert str(raised.value) == "budget exceeded: needs at least 14 steps, budget is 5"


def _keyed_explore(initial, steps, depth, budget, key, visit):
    """A reference explorer that takes a successor as new only by its key,
    with None, the key of every initial state, seen before the first step,
    as explore did before it kept no key for an initial state; it takes no
    budget."""
    visited, frontier = {None}, [(s, (s, ())) for s in initial]
    for _ in range(depth):
        next_frontier = []
        for s, origin in frontier:
            for step, s2 in visit(s, origin):
                if (k := key(s2)) not in visited:
                    visited.add(k)
                    next_frontier.append((s2, (origin[0], origin[1] + (step,))))
        frontier = next_frontier
    return len(visited), None


RETURNING = DomainStateMap(
    frozenset({"d1", "d2", "d3"}),
    {("d1", "a1"): "ACTIVE", ("d2", "a1"): "ACTIVE", ("d3", "a2"): "RESTRICTED"},
)


def _restore_other_assets(current, source, action, aid, sm):
    """sync_all, but every other asset's cells go back to RETURNING's:
    that breaks isolation, and FREEZE then UNFREEZE of a1 returns to it."""
    result = sync_all(current, source, action, aid, sm)
    if result is None:
        return None
    table = {k: RETURNING.table[k] if k[1] != aid else v for k, v in result.table.items()}
    return DomainStateMap(result.domains, table)


def _grow_domains(current, source, action, aid, sm):
    """sync_all plus a new domain each time, so no map it reaches is one
    seen before, even where two syncs return to RETURNING's table: the key
    reads the domains as well as the table. A key that read the table alone
    merged such maps, and the report at depth 3 had 156 violations."""
    result = sync_all(current, source, action, aid, sm)
    if result is None:
        return None
    return DomainStateMap(result.domains | {f"d{len(result.domains) + 1}"}, result.table)


@pytest.mark.parametrize("sync_fn, depth, count", [
    (sync_all, 3, 0),
    (_restore_other_assets, 3, 56),
    (_grow_domains, 3, 217),
])
def test_a_return_to_the_initial_map_changes_no_report(monkeypatch, sync_fn, depth, count):
    """Runs whose sync sequences return to the initial map report what the
    reference explorer, which has seen the initial map's key, reports: the
    same violations, in the same order. The first two counts are the
    reports' sizes before explore kept no key for an initial state."""
    report = check_multi_domain(RETURNING, REG, depth, sync_fn=sync_fn)
    monkeypatch.setattr(locales, "explore", _keyed_explore)
    assert report.violations == check_multi_domain(RETURNING, REG, depth, sync_fn=sync_fn).violations
    assert len(report.violations) == count
    back = sync_fn(sync_fn(RETURNING, "d1", "FREEZE", "a1", REG), "d2", "UNFREEZE", "a1", REG)
    assert back.table == RETURNING.table


DOMAINS, ASSETS = ("d1", "d2", "d3"), ("a1", "a2", "a3")
STATES = st.sampled_from(sorted(REG.states) + ["UNKNOWN"])


@st.composite
def agreeing_maps(draw):
    """Maps over DOMAINS whose every asset sits in one state of REG on a
    non-empty set of domains."""
    table = {}
    for aid in draw(st.lists(st.sampled_from(ASSETS), unique=True)):
        state = draw(st.sampled_from(sorted(REG.states)))
        for d in draw(st.lists(st.sampled_from(DOMAINS), min_size=1, unique=True)):
            table[d, aid] = state
    return DomainStateMap(frozenset(DOMAINS), table)


# One edit of a result: put a cell in a state (None drops it).
EDITS = st.lists(st.tuples(st.sampled_from(DOMAINS), st.sampled_from(ASSETS),
                           st.none() | STATES), max_size=3)


@settings(max_examples=300, deadline=None)
@given(agreeing_maps(), st.sampled_from(DOMAINS), st.sampled_from(sorted(REG.actions)),
       st.sampled_from(ASSETS), EDITS)
@example(two_domain_map(), "d1", "FREEZE", "a1", [("d2", "a1", "ACTIVE")])  # a holder left behind
@example(RETURNING, "d1", "FREEZE", "a1", [("d3", "a2", "FROZEN"), ("d1", "a2", "SEIZED")])
def test_agreement_closure_is_never_reported_alone(before, source, action, aid, edits):
    """From a map whose assets all agree, a result, sync_all's or its input
    edited, that leaves some asset's cells disagreeing (valid_agreement,
    once per such asset, in sorted order) also breaks
    cross_domain_consistency or sync_isolation: closure follows from the
    other rules, so stating it in judge adds no report on its own."""
    table = dict((sync_all(before, source, action, aid, REG) or before).table)
    for d, a, state in edits:
        if state is None:
            table.pop((d, a), None)
        else:
            table[d, a] = state
    after = DomainStateMap(before.domains, table)
    verdicts = list(judge(before, source, action, aid, after, REG))
    closure = [(where, detail) for rule, where, detail in verdicts if rule == "valid_agreement"]
    assert closure == [((a,), "") for a in sorted(disagreements(after))]
    if closure:
        assert {"cross_domain_consistency", "sync_isolation"} & {rule for rule, *_ in verdicts}


def test_agreement_closure_needs_an_agreeing_map():
    """From a map that already disagrees judge reports no closure: the
    rule's premise is agreement before the sync."""
    split = two_domain_map(("ACTIVE", "FROZEN"))
    after = DomainStateMap(split.domains, {**split.table, ("d2", "a1"): "SEIZED"})
    assert disagreements(after) == {"a1": {"ACTIVE", "SEIZED"}}
    verdicts = judge(split, "d1", "RESTRICT", "a1", after, REG)
    assert "valid_agreement" not in {rule for rule, *_ in verdicts}


class TestExplore:
    """The explorer on a small graph: states are residues mod 5, a step
    adds 1 or 2. The initial states are given once, distinct, with a key
    that is None exactly on them. From 0, depth 3 reaches every
    residue with ten steps: 2 from {0}, 4 from {1, 2}, 4 from {3, 4},
    whose successors are all seen."""

    def run(self, budget, depth=3, log=None):
        origins, log = {}, [] if log is None else log

        def visit(state, origin):
            origins[state] = origin
            log.append(("visit", state))
            for step in [1, 2]:
                log.append(("take", state, step))
                yield step, (state + step) % 5

        counts = explore([0], [1, 2], depth, budget, lambda s: None if s == 0 else s, visit)
        return counts, origins

    def test_counts_and_trails(self):
        counts, origins = self.run(budget=10)
        assert counts == (5, 10)
        assert origins == {0: (0, ()), 1: (0, (1,)), 2: (0, (2,)), 3: (0, (1, 2)), 4: (0, (2, 2))}

    def test_depth_bounds_the_frontier(self):
        counts, origins = self.run(budget=10, depth=1)
        assert counts == (3, 2) and set(origins) == {0}

    def test_budget_is_the_last_step_allowed(self):
        with pytest.raises(BudgetExceededError):
            self.run(budget=9)

    def test_a_state_whose_steps_overrun_the_budget_is_not_entered(self):
        """Budget 9 ends inside the steps of 4, the fifth state: its visitor
        is never entered, no step of it is taken, and the error is the one
        a step past the budget raises."""
        log = []
        with pytest.raises(BudgetExceededError) as raised:
            self.run(budget=9, log=log)
        assert (raised.value.needed, raised.value.budget) == (10, 9)
        assert log == [e for state in [0, 1, 2, 3]
                       for e in [("visit", state), ("take", state, 1), ("take", state, 2)]]

    def test_failed_steps_lead_nowhere(self):
        visited = explore([0], [1], 3, 10, lambda s: None if s == 0 else s, lambda s, o: iter(()))
        assert visited == (1, 1)


def drawn(states, log):
    """A one-shot iterator over ``states`` that logs each state it hands out."""
    for s in states:
        log.append(("draw", s))
        yield s


class TestStreamedFirstLevel:
    """explore visits the initial level in one pass, drawing each initial
    state only once the one before it was visited, and keys none of them.
    The graph is TestExplore's; 1, a successor of 0, is an initial state
    given after it, and 0 is a successor of 3."""

    INITIAL = [0, 3, 1]

    def key(self, s):
        return None if s in self.INITIAL else s

    def run(self, initial, log, key=None):
        def visit(state, origin):
            log.append(("visit", state, origin))
            for step in [1, 2]:
                log.append(("take", state, step))
                yield step, (state + step) % 5

        return explore(initial, [1, 2], 2, 100, key or self.key, visit)

    def test_each_state_is_drawn_after_the_one_before_was_visited(self):
        log = []
        counts = self.run(drawn(self.INITIAL, log), log)
        assert log == [
            ("draw", 0), ("visit", 0, (0, ())), ("take", 0, 1), ("take", 0, 2),
            ("draw", 3), ("visit", 3, (3, ())), ("take", 3, 1), ("take", 3, 2),
            ("draw", 1), ("visit", 1, (1, ())), ("take", 1, 1), ("take", 1, 2),
            # 1 is an initial state, so 0 does not reach it, nor 3 reach 0:
            # the second level is 2 (from 0) and 4 (from 3).
            ("visit", 2, (0, (2,))), ("take", 2, 1), ("take", 2, 2),
            ("visit", 4, (3, (1,))), ("take", 4, 1), ("take", 4, 2),
        ]
        assert counts == (5, 10)

    def test_the_list_form_gives_the_same_counts_and_order(self):
        streamed, listed = [], []
        counts = self.run(drawn(self.INITIAL, streamed), streamed)
        assert self.run(list(self.INITIAL), listed) == counts
        assert [e for e in streamed if e[0] != "draw"] == listed

    @pytest.mark.parametrize("one_shot", [iter, lambda xs: (x for x in xs)])
    def test_an_iterator_is_accepted(self, one_shot):
        """A one-shot iterator gives what a list does. The key is asked once
        per successor, and only 2 and 4 get one, each first as new and then
        as seen; 0, 1 and 3 never do, however often they are reached."""
        got, listed = [], []
        counts = self.run(one_shot(self.INITIAL), [], lambda s: got.append(self.key(s)) or got[-1])
        assert counts == self.run(self.INITIAL, listed) == (5, 10)
        assert len(got) == 10 and sorted(k for k in got if k is not None) == [2, 2, 4, 4]

    def test_a_function_is_refused(self):
        with pytest.raises(TypeError, match="not iterable"):
            self.run(lambda: self.INITIAL, [])


def test_connected_domains_includes_source():
    ds = two_domain_map()
    assert connected_domains(ds, "a1") == frozenset({"d1", "d2"})
    assert connected_domains(ds, "zzz") == frozenset()


def test_consistent_init_checker():
    assert check_consistent_init(two_domain_map()).ok
    assert not check_consistent_init(two_domain_map(("ACTIVE", "SEIZED"))).ok
