"""Tests for the in-process MQTT-style broker."""

import pytest

from repro.common.errors import TopicError
from repro.dcdb.mqtt import Broker, Message, QueuedSubscriber, ReadingBatch


class Recorder:
    def __init__(self):
        self.messages = []

    def __call__(self, topic, value, ts):
        self.messages.append((topic, value, ts))


class TestExactSubscriptions:
    def test_deliver_to_exact_match(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/a/b/power", rec)
        n = b.publish("/a/b/power", 1.5, 10)
        assert n == 1
        assert rec.messages == [("/a/b/power", 1.5, 10)]

    def test_no_delivery_to_other_topics(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/a/b/power", rec)
        assert b.publish("/a/b/temp", 1.0, 10) == 0
        assert rec.messages == []

    def test_multiple_subscribers(self):
        b = Broker()
        r1, r2 = Recorder(), Recorder()
        b.subscribe("/x/y", r1)
        b.subscribe("/x/y", r2)
        assert b.publish("/x/y", 2.0, 1) == 2


class TestWildcardSubscriptions:
    def test_plus_matches_single_level(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/rack/+/power", rec)
        b.publish("/rack/n1/power", 1.0, 1)
        b.publish("/rack/n2/power", 2.0, 2)
        b.publish("/rack/n1/x/power", 3.0, 3)  # too deep
        assert [m[1] for m in rec.messages] == [1.0, 2.0]

    def test_hash_matches_subtree(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/rack/#", rec)
        b.publish("/rack/n1/power", 1.0, 1)
        b.publish("/rack/n1/cpu0/cycles", 2.0, 2)
        b.publish("/other/n1/power", 3.0, 3)
        assert len(rec.messages) == 2

    def test_root_hash_sees_everything(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/#", rec)
        b.publish("/a", 1.0, 1)
        b.publish("/a/b/c/d", 2.0, 2)
        assert len(rec.messages) == 2

    def test_hash_not_last_rejected(self):
        b = Broker()
        with pytest.raises(TopicError):
            b.subscribe("/a/#/b", Recorder())

    def test_mixed_wildcards(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/+/n1/#", rec)
        b.publish("/r1/n1/cpu/x", 1.0, 1)
        b.publish("/r2/n2/cpu/x", 2.0, 2)
        assert len(rec.messages) == 1


class TestUnsubscribe:
    def test_unsubscribe_stops_delivery(self):
        b = Broker()
        rec = Recorder()
        sid = b.subscribe("/a", rec)
        assert b.unsubscribe(sid) is True
        b.publish("/a", 1.0, 1)
        assert rec.messages == []

    def test_unsubscribe_unknown(self):
        assert Broker().unsubscribe(999) is False

    def test_unsubscribe_wildcard(self):
        b = Broker()
        rec = Recorder()
        sid = b.subscribe("/a/#", rec)
        b.unsubscribe(sid)
        b.publish("/a/b", 1.0, 1)
        assert rec.messages == []

    def test_subscription_count(self):
        b = Broker()
        sid = b.subscribe("/a", Recorder())
        b.subscribe("/b", Recorder())
        assert b.subscription_count() == 2
        b.unsubscribe(sid)
        assert b.subscription_count() == 1


class TestRouteMemo:
    """A topic's subscribers are resolved once and memoised; every
    subscribe/unsubscribe must invalidate what earlier publishes
    memoised, or deliveries go to the wrong handlers."""

    @pytest.mark.parametrize("pattern", ["/a/b", "/a/+", "/a/#", "/#"])
    def test_subscribe_after_publish_reaches_new_handler(self, pattern):
        b = Broker()
        order = []
        b.subscribe("/a/b", lambda t, v, ts: order.append(("first", v)))
        assert b.publish("/a/b", 1.0, 1) == 1  # memoises /a/b -> [first]
        b.subscribe(pattern, lambda t, v, ts: order.append(("late", v)))
        assert b.publish("/a/b", 2.0, 2) == 2
        assert order == [("first", 1.0), ("first", 2.0), ("late", 2.0)]

    def test_delivery_is_in_subscription_order(self):
        b = Broker()
        order = []
        for name, pattern in [("multi", "/a/#"), ("exact", "/a/b"),
                              ("plus", "/+/b"), ("root", "/#")]:
            b.subscribe(pattern, lambda t, v, ts, n=name: order.append(n))
        assert b.publish("/a/b", 1.0, 1) == 4
        assert order == ["multi", "exact", "plus", "root"]

    @pytest.mark.parametrize("pattern", ["/a/b", "/a/+", "/a/#"])
    def test_unsubscribe_after_publish_stops_delivery(self, pattern):
        b = Broker()
        gone, kept = Recorder(), Recorder()
        sid = b.subscribe(pattern, gone)
        b.subscribe("/#", kept)
        assert b.publish("/a/b", 1.0, 1) == 2  # memoised with both
        assert b.unsubscribe(sid) is True
        assert b.publish("/a/b", 2.0, 2) == 1
        assert [m[1] for m in gone.messages] == [1.0]
        assert [m[1] for m in kept.messages] == [1.0, 2.0]

    def test_wildcard_topic_refused_every_time_and_delivers_nothing(self):
        b = Broker()
        rec = Recorder()
        b.subscribe("/#", rec)
        batch = ReadingBatch(["/ok", "/a/+", "/ok"], [1, 1, 1], [1.0, 2.0, 3.0])
        for _ in range(3):  # a refusal must not be memoised as valid
            with pytest.raises(TopicError):
                b.publish_batch(batch)
            with pytest.raises(TopicError):
                b.publish("/a/#", 1.0, 1)
        assert rec.messages == []
        assert b.published_count == 0 and b.delivered_count == 0

    def test_throwing_subscriber_costs_one_error_per_reading(self):
        b = Broker()
        rec = Recorder()

        def bad(topic, value, ts):
            raise ValueError("subscriber bug")

        b.subscribe("/#", bad)
        b.subscribe("/#", rec)
        queue = QueuedSubscriber()
        queue.attach(b, "/t/#")
        batch = ReadingBatch(
            [f"/t/{i}" for i in range(5)], list(range(5)), [float(i) for i in range(5)]
        )
        assert b.publish_batch(batch) == 15
        assert b.publish_batch(batch) == 15  # memoised route, same cost
        assert b.handler_errors == 10
        assert [m[1] for m in rec.messages] == [0.0, 1.0, 2.0, 3.0, 4.0] * 2
        assert [m.value for m in queue.drain()] == [0.0, 1.0, 2.0, 3.0, 4.0] * 2

    def test_mixed_routes_keep_list_order_per_subscriber(self):
        b = Broker()
        everything, only_a = Recorder(), Recorder()
        b.subscribe("/#", everything)
        b.subscribe("/a/#", only_a)
        topics = ["/a/x", "/a/y", "/b/x", "/a/z", "/b/y"]
        n = b.publish_batch(ReadingBatch(
            topics, list(range(len(topics))), [float(i) for i in range(len(topics))]
        ))
        assert n == 8
        assert [m[0] for m in everything.messages] == topics
        assert [m[0] for m in only_a.messages] == ["/a/x", "/a/y", "/a/z"]
        assert b.published_count == 5 and b.delivered_count == 8


class TestTriePruning:
    def test_unsubscribe_prunes_empty_nodes(self):
        b = Broker()
        keep = b.subscribe("/rack/n0/power", Recorder())
        for i in range(50):  # hot-plug churn
            sids = [b.subscribe(f"/rack/n{i}/cpu{c}/+/cycles", Recorder())
                    for c in range(4)]
            sids.append(b.subscribe(f"/rack/n{i}/#", Recorder()))
            for sid in sids:
                assert b.unsubscribe(sid) is True

        def nodes(node):
            return 1 + sum(nodes(c) for c in node.children.values())

        # Only the path of the surviving subscription is left.
        assert nodes(b._root) == 4
        assert b.unsubscribe(keep) is True
        assert nodes(b._root) == 1

    def test_pruning_stops_at_nodes_still_in_use(self):
        b = Broker()
        deep, shallow, multi = Recorder(), Recorder(), Recorder()
        sid = b.subscribe("/a/b/c", deep)
        b.subscribe("/a/b", shallow)
        b.subscribe("/a/#", multi)
        b.unsubscribe(sid)
        b.publish("/a/b", 1.0, 1)
        b.publish("/a/b/c", 2.0, 2)
        assert deep.messages == []
        assert [m[1] for m in shallow.messages] == [1.0]
        assert [m[1] for m in multi.messages] == [1.0, 2.0]


class TestRetained:
    def test_retained_replayed_on_subscribe(self):
        b = Broker()
        b.publish("/a/conf", 42.0, 5, retain=True)
        rec = Recorder()
        b.subscribe("/a/conf", rec, replay_retained=True)
        assert rec.messages == [("/a/conf", 42.0, 5)]

    def test_retained_replay_honours_wildcards(self):
        b = Broker()
        b.publish("/a/x", 1.0, 1, retain=True)
        b.publish("/b/x", 2.0, 2, retain=True)
        rec = Recorder()
        b.subscribe("/a/#", rec, replay_retained=True)
        assert len(rec.messages) == 1

    def test_retained_lookup(self):
        b = Broker()
        b.publish("/a", 1.0, 1, retain=True)
        assert b.retained("/a") == Message("/a", 1.0, 1)
        assert b.retained("/b") is None

    def test_no_replay_without_flag(self):
        b = Broker()
        b.publish("/a", 1.0, 1, retain=True)
        rec = Recorder()
        b.subscribe("/a", rec)
        assert rec.messages == []


class TestCounters:
    def test_published_and_delivered(self):
        b = Broker()
        b.subscribe("/#", Recorder())
        b.subscribe("/a", Recorder())
        b.publish("/a", 1.0, 1)
        b.publish("/b", 2.0, 2)
        assert b.published_count == 2
        assert b.delivered_count == 3


class TestQueuedSubscriber:
    def test_enqueue_and_drain(self):
        b = Broker()
        q = QueuedSubscriber()
        q.attach(b, "/#")
        b.publish("/a", 1.0, 1)
        b.publish("/b", 2.0, 2)
        assert len(q) == 2
        msgs = q.drain()
        assert [m.topic for m in msgs] == ["/a", "/b"]
        assert len(q) == 0

    def test_drain_limit(self):
        b = Broker()
        q = QueuedSubscriber()
        q.attach(b, "/#")
        for i in range(5):
            b.publish("/t", float(i), i)
        assert len(q.drain(limit=2)) == 2
        assert len(q) == 3

    def test_bounded_queue_drops_and_counts(self):
        b = Broker()
        q = QueuedSubscriber(maxlen=2)
        q.attach(b, "/#")
        for i in range(4):
            b.publish("/t", float(i), i)
        assert len(q) == 2
        assert q.dropped == 2
        # deque(maxlen) keeps the newest entries
        assert [m.value for m in q.drain()] == [2.0, 3.0]


    @pytest.mark.parametrize("policy,kept", [
        ("drop-oldest", [4.0, 5.0, 6.0]), ("drop-newest", [0.0, 1.0, 2.0]),
    ])
    def test_bound_is_per_reading_within_a_batch(self, policy, kept):
        # One run larger than what is left of the queue, then one larger
        # than the whole queue: the outcome is that of seven arrivals.
        b = Broker()
        q = QueuedSubscriber(maxlen=3, policy=policy)
        q.attach(b, "/#")
        for run in (range(2), range(2, 7)):
            b.publish_batch(
                ReadingBatch(["/t"] * len(run), list(run), [float(i) for i in run])
            )
        assert len(q) == 3 and q.dropped == 4
        assert [m.value for m in q.drain()] == kept


class TestPublishValidation:
    def test_wildcards_rejected_in_publish_topics(self):
        b = Broker()
        with pytest.raises(TopicError):
            b.publish("/a/+/b", 1.0, 1)
        with pytest.raises(TopicError):
            b.publish("/a/#", 1.0, 1)
