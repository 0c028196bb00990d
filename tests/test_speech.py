import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import HeapSpeechQueue
from percept_cane.speech import (
    Priority,
    SpeechConfig,
    SpeechMessage,
    SpeechQueue,
    Transcript,
    speak_all,
)


def drain(queue, now_s=0.0, transcript=None, **cfg):
    """Speak the queue out from ``now_s`` into ``transcript`` (a new one by
    default); return the transcript and the end time."""
    transcript = Transcript() if transcript is None else transcript
    end_s = speak_all(queue, transcript, now_s, SpeechConfig(**cfg))
    return transcript, end_s


def test_enqueue_grows_queue():
    q = SpeechQueue()
    assert len(q) == 0
    q.submit("hello", Priority.INFO)
    assert len(q) == 1


def test_priority_order():
    q = SpeechQueue()
    q.submit("info", Priority.INFO)
    q.submit("alert", Priority.ALERT)
    q.submit("percept", Priority.PERCEPTION)
    assert [q.dequeue_next().text for _ in range(3)] == ["alert", "percept", "info"]


def test_fifo_within_priority():
    q = SpeechQueue()
    q.submit("first", Priority.ALERT)
    q.submit("second", Priority.ALERT)
    assert q.dequeue_next().text == "first"
    assert q.dequeue_next().text == "second"


def test_empty_dequeue_none():
    assert SpeechQueue().dequeue_next() is None


def test_capacity_drops_lowest_priority_newest():
    q = SpeechQueue(capacity=3)
    q.submit("a", Priority.ALERT)
    q.submit("b", Priority.INFO)
    q.submit("c", Priority.INFO)
    q.submit("d", Priority.PERCEPTION)
    # newest of the lowest class present is "c"
    assert [m.text for m in q.dropped] == ["c"]
    assert len(q) == 3


def test_capacity_drops_incoming_when_it_is_lowest():
    q = SpeechQueue(capacity=2)
    q.submit("a", Priority.ALERT)
    q.submit("b", Priority.PERCEPTION)
    q.submit("late info", Priority.INFO)
    assert [m.text for m in q.dropped] == ["late info"]
    assert len(q) == 2


def test_conservation_under_overflow(rng):
    q = SpeechQueue(capacity=8)
    submitted = []
    for i in range(50):
        prio = rng.choice(list(Priority))
        q.submit(f"msg-{i}", prio)
        submitted.append(f"msg-{i}")
    transcript, _ = drain(q)
    spoken = transcript.texts()
    dropped = [m.text for m in q.dropped]
    assert sorted(spoken + dropped) == sorted(submitted)
    assert len(spoken) + len(dropped) == 50


def test_duration_model():
    # base_per_char_s * chars / default_rate, from the drain's start time
    for rate, duration_s in ((2.0, 0.5), (1.0, 1.0)):
        q = SpeechQueue()
        q.submit("x" * 20, Priority.INFO)
        _, end_s = drain(q, now_s=3.0, base_per_char_s=0.05, default_rate=rate)
        assert end_s == 3.0 + duration_s


def test_speak_all_order_and_timing():
    q = SpeechQueue()
    q.submit("bb", Priority.PERCEPTION)
    q.submit("aaaa", Priority.ALERT)
    q.submit("c", Priority.INFO)
    transcript, end_s = drain(q, base_per_char_s=0.1)
    assert transcript.texts() == ["aaaa", "bb", "c"]
    times = [e.spoken_at_s for e in transcript.entries]
    assert times == pytest.approx([0.0, 0.4, 0.6])
    assert end_s == pytest.approx(0.7)


def test_speak_all_deterministic():
    def run():
        q = SpeechQueue()
        for i in range(5):
            q.submit(f"m{i}", Priority(i % 3))
        return drain(q)[0].render()

    assert run() == run()


def say(transcript, now_s, text, priority):
    """Drain one message into ``transcript`` from ``now_s``."""
    q = SpeechQueue()
    q.submit(text, priority)
    drain(q, now_s=now_s, transcript=transcript)


def test_transcript_render_format():
    tr = Transcript()
    say(tr, 0.0, "watch out", Priority.ALERT)
    say(tr, 1.2345, "hello", Priority.INFO)
    say(tr, 2.9996, "bye", Priority.PERCEPTION)
    assert tr.render() == "0.000\tALERT\twatch out\n1.234\tINFO\thello\n3.000\tPERCEPTION\tbye\n"


def test_transcript_rejects_time_travel():
    tr = Transcript()
    assert tr.end_s == -math.inf
    say(tr, 2.0, "later", Priority.INFO)
    # "later" lasts 0.25 s: a drain may start when it ended, but not before
    assert tr.end_s == 2.25
    say(tr, 2.25, "on time", Priority.INFO)
    q = SpeechQueue()
    q.submit("earlier", Priority.INFO)
    with pytest.raises(ValueError, match="nondecreasing"):
        drain(q, now_s=1.0, transcript=tr)
    # the check runs before anything is dequeued or spoken
    assert tr.texts() == ["later", "on time"] and len(q) == 1


def test_transcript_rejects_overlapping_speech():
    tr = Transcript()
    say(tr, 2.0, "hello", Priority.INFO)
    q = SpeechQueue()
    q.submit("over", Priority.ALERT)
    # "hello" is still being spoken at 2.1 s (it ends at 2.25 s)
    with pytest.raises(ValueError, match="a drain at 2.1, the last one ended at 2.25$"):
        drain(q, now_s=2.1, transcript=tr)
    assert tr.texts() == ["hello"] and len(q) == 1
    # an empty drain ends where it starts, and it counts as the last drain
    drain(SpeechQueue(), now_s=3.0, transcript=tr)
    with pytest.raises(ValueError, match="nondecreasing"):
        drain(q, now_s=2.5, transcript=tr)


@pytest.mark.parametrize("spoken_before", [0, 1])
def test_transcript_rejects_nan_start(spoken_before):
    tr = Transcript()
    for _ in range(spoken_before):
        say(tr, 1.0, "fine", Priority.ALERT)
    with pytest.raises(ValueError, match="nondecreasing"):
        say(tr, math.nan, "lost", Priority.ALERT)
    assert len(tr) == spoken_before


def test_transcript_entries_in_spoken_order():
    q = SpeechQueue()
    q.submit("bb", 1)
    q.submit("aaaa", 0)
    q.submit("c", 2)
    tr, end_s = drain(q, base_per_char_s=0.125)
    assert tr.entries == [
        (0.0, Priority.ALERT, "aaaa"),
        (0.5, Priority.PERCEPTION, "bb"),
        (0.75, Priority.INFO, "c"),
    ]
    assert end_s == 0.875
    # plain ints given to submit come out as Priority members
    assert [e.priority for e in tr.entries] == [Priority.ALERT, Priority.PERCEPTION, Priority.INFO]
    assert all(type(e.priority) is Priority for e in tr.entries)
    assert [e.spoken_at_s for e in tr.entries] == tr.times


def test_transcript_keeps_the_queues_messages():
    # one priority class, so the drain keeps the enqueue order
    messages = [SpeechMessage(f"m{i}", Priority.PERCEPTION) for i in range(4)]
    q = SpeechQueue()
    for msg in messages:
        q.enqueue(msg)
    tr, _ = drain(q)
    # one record per spoken message: the object that was enqueued, not a copy
    assert len(tr.messages) == 4
    assert all(kept is msg for kept, msg in zip(tr.messages, messages))


def test_message_invariants():
    with pytest.raises(ValueError):
        SpeechConfig(default_rate=0.0)
    with pytest.raises(ValueError):
        SpeechConfig(base_per_char_s=0.0)
    with pytest.raises(ValueError):
        SpeechQueue(capacity=0)


# submit a message of the given priority | dequeue
QUEUE_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("submit"), st.sampled_from(list(Priority))),
        st.just(("dequeue",)),
    ),
    max_size=40,
)


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(capacity=st.integers(1, 4), ops=QUEUE_OPS)
def test_queue_matches_heap_oracle(capacity, ops):
    def key(msg):
        # texts are unique per submit, so they tell messages apart
        return None if msg is None else (msg.text, msg.priority)

    queue, oracle = SpeechQueue(capacity), HeapSpeechQueue(capacity)
    submitted, dequeued = [], []
    for t, op in enumerate(ops):
        if op[0] == "submit":
            submitted.append(f"m{t}")
            for q in (queue, oracle):
                q.submit(f"m{t}", op[1])
        else:
            msg = queue.dequeue_next()
            assert key(msg) == key(oracle.dequeue_next())
            if msg is not None:
                dequeued.append(msg)
        assert len(queue) == len(oracle)
        assert [key(m) for m in queue.dropped] == [key(m) for m in oracle.dropped]
    transcript = Transcript()
    end_s = speak_all(queue, transcript, 0.0, SpeechConfig())
    assert [key(m) for m in transcript.messages] == [
        key(m) for m in iter(oracle.dequeue_next, None)
    ]
    assert transcript.end_s == end_s
    # each submitted message left the queue exactly once: dequeued, spoken or dropped
    left = dequeued + transcript.messages + queue.dropped
    assert sorted(m.text for m in left) == sorted(submitted)
