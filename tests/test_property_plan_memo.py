"""Every write plan and broker route run is found by one rule:
:class:`~repro.dcdb.cache.PlanMemo`.  A hypothesis state machine runs
it against a reference made of a dict in insertion order, under each
content key function the hosts use:

- ``first_and_length`` over tuples of unhashable items (a Pusher's and
  the operators' ``Sensor`` tuples): two tuples with one first item and
  one length share a key, so only the whole compare tells them apart;
- ``element_ids`` over the same items (a drain's per-pass tuples);
- ``tuple``, the default, over topic strings (storage, the broker).

After every step the plan a lookup returns is the reference's — an
identity hit for the object put, a content hit for an equal new object,
a miss for a colliding one whose later item differs — the memo never
holds more than its bound, and ``compiles`` and ``evictions`` are the
reference's.  Once plans are evicted, new objects are made until some
take the evicted objects' ``id``\\ s: none may find an evicted plan.
"""

import gc

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.dcdb.cache import PLAN_MEMO_SIZE, PlanMemo, element_ids, first_and_length


class Item:
    """An unhashable element compared by value, as a ``Sensor`` is."""

    __hash__ = None

    def __init__(self, name):
        self.name = name

    def __eq__(self, other):
        return isinstance(other, Item) and self.name == other.name


ITEMS = [Item(f"s{i}") for i in range(5)]
TOPICS = [f"/r0/n{i}/power" for i in range(5)]


class Reference:
    """The memo's contract, written plainly: plans kept in a dict in the
    order they were first put, and per content key the newest sequence
    put under it."""

    def __init__(self, key, size):
        self.key, self.size = key, size
        self.kept = {}    # a token per kept object -> [seq, plan], oldest first
        self.newest = {}  # content key -> the token of the newest put under it
        self.compiles = self.evictions = 0

    def token(self, seq):
        for token, (kept, _) in self.kept.items():
            if kept is seq:
                return token
        return None

    def get(self, seq):
        token = self.token(seq)
        if token is None:
            token = self.newest.get(self.key(seq))
            if token is None or self.kept[token][0] != seq:
                return None
        return self.kept[token][1]

    def put(self, seq, plan):
        self.compiles += 1
        token = self.token(seq)
        if token is None:
            if len(self.kept) == self.size:
                oldest = next(iter(self.kept))
                gone, _ = self.kept.pop(oldest)
                if self.newest.get(self.key(gone)) == oldest:
                    del self.newest[self.key(gone)]
                self.evictions += 1
            token = object()
        self.kept[token] = [seq, plan]
        self.newest[self.key(seq)] = token

    def clear(self):
        self.kept.clear()
        self.newest.clear()


def machine_for(key, pool, size):
    class MemoMachine(RuleBasedStateMachine):
        @initialize()
        def make(self):
            self.memo = PlanMemo(key, size)
            self.ref = Reference(key, size)
            self.evicted = {}  # id of an evicted object -> its plan

        def lookup(self, seq):
            found = self.memo.get(seq)
            assert found is self.ref.get(seq)
            return found

        def compile(self, seq):
            """What a host does on a lookup: keep a new plan on a miss."""
            if self.lookup(seq) is None:
                kept = dict(self.ref.kept)
                plan = object()
                self.memo.put(seq, plan)
                self.ref.put(seq, plan)
                for token in kept.keys() - self.ref.kept.keys():
                    gone, gone_plan = kept[token]
                    self.evicted[id(gone)] = gone_plan

        def kept(self, i):
            seqs = [seq for seq, _ in self.ref.kept.values()]
            return seqs[i % len(seqs)]

        @rule(picks=st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=4))
        def new_sequence(self, picks):
            self.compile(tuple(pool[p] for p in picks))

        @precondition(lambda self: self.ref.kept)
        @rule(i=st.integers(0, 1 << 16))
        def identity_hit(self, i):
            seq = self.kept(i)
            assert self.lookup(seq) is not None

        @precondition(lambda self: self.ref.kept)
        @rule(i=st.integers(0, 1 << 16))
        def content_of_a_new_equal_object(self, i):
            seq = self.kept(i)
            self.compile(tuple(list(seq)))

        @precondition(lambda self: self.ref.kept)
        @rule(i=st.integers(0, 1 << 16), shift=st.integers(1, len(pool) - 1))
        def same_key_other_content(self, i, shift):
            """First item and length of a kept sequence, a later item
            changed: under ``first_and_length`` the same key."""
            seq = self.kept(i)
            if len(seq) > 1:
                last = pool[(pool.index(seq[-1]) + shift) % len(pool)]
                other = seq[:-1] + (last,)
                assert key is not first_and_length or key(other) == key(seq)
                self.compile(other)

        @precondition(lambda self: self.ref.kept)
        @rule(i=st.integers(0, 1 << 16))
        def put_again(self, i):
            """A plan that stopped fitting, compiled for the same object:
            it keeps its place."""
            seq = self.kept(i)
            plan = object()
            self.memo.put(seq, plan)
            self.ref.put(seq, plan)

        @rule()
        def clear(self):
            self.memo.clear()
            self.ref.clear()

        @precondition(lambda self: self.evicted)
        @rule(n=st.integers(1, 4))
        def reuse_evicted_ids(self, n):
            """New objects at the ids of evicted ones find no evicted
            plan (the evicted objects are gone: the memo held them)."""
            gc.collect()
            made = [tuple(pool[:n]) + (object(),) for _ in range(200)]
            made += [tuple(list(pool[:k])) for k in range(1, len(pool) + 1)]
            for seq in made:
                plan = self.lookup(seq)
                evicted = self.evicted.get(id(seq))
                if evicted is not None:
                    assert plan is not evicted

        @invariant()
        def bounded_and_counted(self):
            if not hasattr(self, "memo"):
                return
            assert len(self.memo) == len(self.ref.kept) <= size
            assert self.memo.compiles == self.ref.compiles
            assert self.memo.evictions == self.ref.evictions

    return MemoMachine


SETTINGS = settings(
    max_examples=100, stateful_step_count=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def test_first_and_length_key_over_unhashable_items():
    run_state_machine_as_test(
        machine_for(first_and_length, ITEMS, 3), settings=SETTINGS
    )


def test_element_ids_key_over_unhashable_items():
    run_state_machine_as_test(
        machine_for(element_ids, ITEMS, 3), settings=SETTINGS
    )


def test_tuple_key_over_topics():
    run_state_machine_as_test(machine_for(tuple, TOPICS, 3), settings=SETTINGS)


def test_a_collision_is_a_miss_and_the_bound_holds():
    """The stated cases once, by hand, at the hosts' bound."""
    memo = PlanMemo(first_and_length)
    a = (ITEMS[0], ITEMS[1])
    plan = memo.put(a, object())
    assert memo.get(a) is plan                          # identity
    assert memo.get(tuple(list(a))) is plan             # content
    other = (ITEMS[0], ITEMS[2])
    assert first_and_length(other) == first_and_length(a)
    assert memo.get(other) is None                      # same key, a miss
    for i in range(PLAN_MEMO_SIZE):
        memo.put((ITEMS[i % 5], object()), object())
    assert len(memo) == PLAN_MEMO_SIZE
    assert memo.get(a) is None and memo.evictions == 1
    assert memo.compiles == PLAN_MEMO_SIZE + 1
