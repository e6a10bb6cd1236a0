"""The ring channel against the shift-left channel it replaced.

A :class:`~repro.core.fusion.FusedChannel` keeps an intermediate fused
member's outputs in ``(rows, 2 * width)`` ring buffers and serves the
``width`` columns ending at its head.  The reference model is
:class:`~tests.shift_channel.ShiftChannel`, the channel it replaced —
every pass shifts each produced row's whole window left by one slot and
writes the new column at the end.

Random programs of full, partial, empty and permuted passes, long
enough to wrap the ring at least three times, run on both, optionally
after seeding from a predecessor channel and the host's caches.  After
every append ``values``, ``timestamps``, ``counts`` and every served
:class:`~repro.core.queryengine.BatchWindow` (whole and sub-selected,
``uniform_count`` included) are bit-equal.  Six seeded mutations of
``core/fusion.py`` must fail the same property, two of them in the
channel's one time ring: its wrap and its split by a seeded history.
"""

import inspect
import types

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.common.timeutil import NS_PER_SEC
from repro.core import fusion
from repro.core.units import Unit
from repro.dcdb.cache import SensorCache
from repro.dcdb.sensor import Sensor
from tests.shift_channel import ShiftChannel
from tests.hosts import store


def units_for(topics):
    return [
        Unit(
            name=topic.rpartition("/")[0], level=0, inputs=[],
            outputs=[Sensor(topic, is_operator_output=True)],
        )
        for topic in topics
    ]


def bits(array):
    return np.ascontiguousarray(array).tobytes()


def assert_same(ring, twin, where):
    assert bits(ring.values) == bits(twin.values), where
    assert bits(ring.timestamps) == bits(twin.timestamps), where
    assert ring.counts.tolist() == twin.counts.tolist(), where


def assert_same_window(got, want, where):
    assert got.topics == want.topics, where
    assert got.width == want.width, where
    assert bits(got.values) == bits(want.values), where
    assert bits(got.timestamps) == bits(want.timestamps), where
    assert got.counts.tolist() == want.counts.tolist(), where
    assert got.uniform_count() == want.uniform_count(), where


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------

KINDS = ("full", "partial", "permuted")


@st.composite
def programs(draw):
    """``(rows, width, kinds, empties, pred, seed)``: ``kinds`` holds
    enough non-empty passes to wrap the ring three times, ``empties[i]``
    puts an empty pass before pass ``i``; ``pred`` is ``None`` or the
    ``(width, passes, overlap)`` of a predecessor to seed from."""
    rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 40))
    n = 3 * width + 1 + draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=n, max_size=n))
    empties = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    pred = draw(st.none() | st.tuples(
        st.integers(1, 40), st.integers(0, 50), st.integers(0, rows),
    ))
    return rows, width, kinds, empties, pred, draw(st.integers(0, 2**16))


def check_windows(ring, twin, rng, where):
    width = ring.width
    window_ns = int(rng.integers(0, width + 3)) * NS_PER_SEC
    whole = ring.topics
    assert_same_window(
        ring.query_relative_batch(whole, window_ns),
        twin.window(whole, window_ns), where,
    )
    # A sub-selection in any order, with a topic the channel lacks.
    pick = rng.permutation(len(whole))[: rng.integers(0, len(whole) + 1)]
    sub = tuple(whole[i] for i in pick)
    if rng.random() < 0.5:
        sub += ("/elsewhere/x",)
    assert_same_window(
        ring.query_relative_batch(sub, window_ns),
        twin.window(sub, window_ns), where,
    )


def run_program(channel_cls, program):
    rows, width, kinds, empties, pred, seed = program
    rng = np.random.default_rng(seed)
    topics = [f"/n{i}/out" for i in range(rows)]
    ring = channel_cls(units_for(topics), width)
    twin = ShiftChannel(topics, width)
    if pred is not None:
        pred_width, pred_passes, overlap = pred
        # The predecessor holds the first ``overlap`` topics and one of
        # its own; the rest of the new rows warm from the host's caches.
        pred_topics = topics[:overlap] + ["/gone/out"]
        prev_ring = channel_cls(units_for(pred_topics), pred_width)
        prev_twin = ShiftChannel(pred_topics, pred_width)
        for p in range(pred_passes):
            vals = rng.random(len(pred_topics))
            prev_ring.append(p * NS_PER_SEC, None, vals)
            prev_twin.append(p * NS_PER_SEC, None, vals)
        caches = {}
        for topic in topics[overlap:]:
            if rng.random() < 0.7:
                cache = caches[topic] = SensorCache(64, interval_ns=NS_PER_SEC)
                for k in range(int(rng.integers(1, 50))):
                    store(cache, k * NS_PER_SEC, float(rng.random()))
        ring.seed(prev_ring, caches.get)
        twin.seed(prev_twin, caches.get)
        assert_same(ring, twin, "seeded")
    ts = 10**6 * NS_PER_SEC
    for i, kind in enumerate(kinds):
        steps = [("empty", [])] if empties[i] else []
        if kind == "full":
            steps.append(("full", None))
        elif kind == "permuted":
            steps.append(("permuted", rng.permutation(rows).tolist()))
        else:
            chosen = rng.permutation(rows)[: rng.integers(1, rows + 1)]
            steps.append(("partial", chosen.tolist()))
        for name, which in steps:
            ts += NS_PER_SEC
            vals = rng.random(rows if which is None else len(which))
            if which is not None:
                vals = vals.tolist()
            ring.append(ts, which, vals)
            twin.append(ts, which, vals)
            where = (i, name, which)
            assert_same(ring, twin, where)
            check_windows(ring, twin, rng, where)


@settings(max_examples=150, deadline=None)
@given(program=programs())
def test_the_ring_serves_what_the_shifted_matrix_held(program):
    run_program(fusion.FusedChannel, program)


def test_a_steady_channel_wraps_once_every_width_passes():
    channel = fusion.FusedChannel(units_for(["/a/o", "/b/o"]), 5)
    heads = []
    for k in range(1, 17):
        channel.append(k, None, [float(k), -float(k)])
        heads.append(channel._head)
    assert heads == [6, 7, 8, 9, 10, 5, 6, 7, 8, 9, 10, 5, 6, 7, 8, 9]
    assert channel.values.tolist() == [
        [12.0, 13.0, 14.0, 15.0, 16.0], [-12.0, -13.0, -14.0, -15.0, -16.0],
    ]
    assert channel._full and channel.counts.tolist() == [5, 5]
    # A full channel hands its window the count it already knows.
    window = channel.query_relative_batch(channel.topics, 3 * NS_PER_SEC)
    assert window._uniform == 4 and window.uniform_count() == 4


def test_a_partial_pass_shifts_its_rows_and_leaves_the_head():
    channel = fusion.FusedChannel(units_for([f"/n{i}/o" for i in range(4)]), 3)
    channel.append(1, None, [1.0, 2.0, 3.0, 4.0])
    head = channel._head
    channel.append(2, [2], [30.0])
    channel.append(3, [3, 0, 2], [40.0, 10.0, 300.0])
    assert channel._head == head
    nan = np.nan
    assert np.array_equal(channel.values, [
        [nan, 1.0, 10.0], [nan, nan, 2.0], [3.0, 30.0, 300.0],
        [nan, 4.0, 40.0],
    ], equal_nan=True)
    assert channel.counts.tolist() == [2, 1, 3, 2]
    channel.append(4, [2, 1, 0, 3], [5.0, 6.0, 7.0, 8.0])  # complete
    assert channel._head == head + 1
    assert channel.values[:, -1].tolist() == [7.0, 6.0, 5.0, 8.0]


# ----------------------------------------------------------------------
# Seeded mutations: the property must notice each
# ----------------------------------------------------------------------


def mutant_channel(*edits):
    """``FusedChannel`` from ``core/fusion.py`` with each ``(old, new)``
    source edit applied (each ``old`` must occur exactly once)."""
    source = inspect.getsource(fusion)
    for old, new in edits:
        assert source.count(old) == 1, old
        source = source.replace(old, new)
    mutant = types.ModuleType("fusion_mutant")
    exec(compile(source, fusion.__file__, "exec"), mutant.__dict__)
    return mutant.FusedChannel


MUTATIONS = {
    # The wrap copies the whole old window to the front, so the new
    # column overwrites the newest reading instead of following it.
    "wrap-moves-width-columns": [
        ("self._values[:, :head] = self._values[:, width + 1:]",
         "self._values[:, :width] = self._values[:, width:]"),
        ("self._times[:, :head] = self._times[:, width + 1:]",
         "self._times[:, :width] = self._times[:, width:]"),
    ],
    # The same wrap error on the time vector alone: the values are
    # right, every full-pass stamp after a wrap one slot off.
    "vector-wrap-moves-width-columns": [
        ("self._times[:, :head] = self._times[:, width + 1:]",
         "self._times[:, :width] = self._times[:, width:]"),
    ],
    # A seeded history is served as if the rows were in lock step.
    "seed-stays-in-step": [
        ("self._split()[r, head - n:head] = stamps[-n:]",
         "self._times[0, head - n:head] = stamps[-n:]"),
    ],
    # A partial pass advances the head: the rows it did not produce
    # slide with it.
    "unproduced-row-advances": [
        ("            if len(idx) < len(self.counts):\n",
         "            if False:\n"),
    ],
    # A partial pass writes the new values over the newest readings
    # instead of shifting the produced rows' windows first.
    "partial-pass-skips-the-shift": [
        ("                if width > 1:\n", "                if False:\n"),
    ],
    # The counts stop moving as soon as any row is full.
    "counts-frozen-early": [
        ("bool((counts == self.width).all())",
         "bool((counts == self.width).any())"),
    ],
}


def test_the_unmutated_copy_passes():
    program = (3, 4, ["partial", "full"] * 8, [False, True] * 8, (5, 9, 2), 1)
    run_program(mutant_channel(), program)


@pytest.mark.parametrize("name", sorted(MUTATIONS))
def test_seeded_mutation_fails_the_property(name):
    channel_cls = mutant_channel(*MUTATIONS[name])

    @settings(
        max_examples=200, deadline=None, database=None, derandomize=True,
        phases=[Phase.generate],  # found is enough: no shrinking
    )
    @given(program=programs())
    def prop(program):
        run_program(channel_cls, program)

    with pytest.raises(AssertionError):
        prop()
