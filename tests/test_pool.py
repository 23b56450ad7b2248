import sys
import threading

import pytest

from itect.pool import SharedPool


def test_map_keeps_item_order():
    with SharedPool(3) as pool:
        assert pool.map(lambda x: x * x, range(50)) == [x * x for x in range(50)]
        assert pool.map(str, []) == []
        assert pool.map(str, [7]) == ["7"]


def test_caller_and_helper_share_the_items():
    # Each item waits until both threads hold one, so a map that left the
    # items to one thread would time out.
    barrier = threading.Barrier(2, timeout=30)

    def work(x):
        barrier.wait()
        return threading.get_ident()

    with SharedPool(1) as pool:
        idents = pool.map(work, range(2))
    assert len(set(idents)) == 2
    assert threading.get_ident() in idents


def test_caller_works_while_the_helper_is_busy():
    # The only helper waits until the map is done: the caller must take
    # every item itself rather than wait for the helper.
    release = threading.Event()
    with SharedPool(1) as pool:
        busy = pool.submit(lambda: release.wait(timeout=30))
        assert pool.map(lambda x: x + 1, range(10)) == list(range(1, 11))
        assert not busy.done()
        release.set()
        assert busy.result() is True


def test_first_error_in_item_order_after_every_item():
    done = []

    def work(x):
        if x in (3, 6):
            raise ValueError(f"item {x}")
        done.append(x)
        return x

    with SharedPool(2) as pool:
        with pytest.raises(ValueError, match="item 3"):
            pool.map(work, range(10))
    assert sorted(done) == [0, 1, 2, 4, 5, 7, 8, 9]


def test_submitted_error_reaches_the_caller():
    def fail():
        raise KeyError("x")

    with SharedPool(1) as pool:
        with pytest.raises(KeyError):
            pool.submit(fail).result()


def test_every_item_claimed_once_under_contention():
    # More helpers than cores and a short switch interval: an item claimed
    # twice or never would show in the tally. The maps run on a thread so
    # that a hang fails the join's timeout.
    tally = [0] * 200
    lock = threading.Lock()

    def work(i):
        with lock:
            tally[i] += 1
        return i

    results = []

    def maps():
        with SharedPool(8) as pool:
            for _ in range(50):
                results.append(pool.map(work, range(200)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(target=maps)
        runner.start()
        runner.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert results == [list(range(200))] * 50
    assert tally == [50] * 200


def test_helper_count_may_not_be_negative():
    with pytest.raises(ValueError):
        SharedPool(-1)


def test_no_helpers_maps_on_the_caller_in_order():
    seen = []

    def work(x):
        seen.append((x, threading.get_ident()))
        return x * x

    with SharedPool(0) as pool:
        assert pool.map(work, range(20)) == [x * x for x in range(20)]
        assert pool.map(work, []) == []
    assert seen == [(x, threading.get_ident()) for x in range(20)]


def test_no_helpers_submit_returns_a_done_future():
    def fail():
        raise KeyError("x")

    with SharedPool(0) as pool:
        ran = []
        done = pool.submit(lambda: ran.append(threading.get_ident()) or 42)
        assert ran == [threading.get_ident()]
        assert done.done() and done.result() == 42
        failed = pool.submit(fail)
        assert failed.done()
        with pytest.raises(KeyError):
            failed.result()
