import itertools
import json

import numpy as np
import pytest

from rdecomp.buffers import ReplayBuffer
from rdecomp.trajectory import Trajectory, read_jsonl, write_jsonl


def traj(ret, seed=0):
    rng = np.random.default_rng(seed)
    return Trajectory(
        states=rng.normal(size=(2, 3)),
        actions=rng.integers(0, 2, size=2),
        episodic_return=float(ret),
    )


def returns_of(trajectories):
    return [t.episodic_return for t in trajectories]


def test_unknown_scheme_rejected():
    with pytest.raises(ValueError, match="scheme"):
        ReplayBuffer("X")


def test_online_fifo_eviction():
    buf = ReplayBuffer("O", capacity=2)
    a, b, c = traj(1), traj(2), traj(3)
    buf.insert([a, b, c])
    assert buf.contents() == [b, c]
    assert buf.sample(99) == [b, c]  # whole queue, insertion order


def test_historical_keeps_top_returns():
    buf = ReplayBuffer("HO", capacity=2)
    buf.insert([traj(r) for r in (1, 5, 3, 9)])
    historical = [t for _, _, t in buf.historical]
    assert sorted(returns_of(historical)) == [5, 9]
    # union of online (last 2) and historical, each trajectory once
    assert sorted(returns_of(buf.sample(99))) == [3, 5, 9]
    assert len(buf) == 3


def test_historical_union_order_online_then_older_historical():
    buf = ReplayBuffer("HO", capacity=3)
    a, b, c, d, e = (traj(r, seed=i) for i, r in enumerate((7, 8, 1, 6, 2)))
    buf.insert([a, b, c, d, e])
    # online holds c, d, e (indices 2-4); historical holds b, a, d by return,
    # and d (index 3) is in the online window, so only b and a follow
    assert [x for _, _, x in buf.historical] == [b, a, d]
    assert buf.sample(99) == [c, d, e, b, a]
    assert len(buf) == 5


def test_historical_tie_breaks_to_recency():
    buf = ReplayBuffer("HO", capacity=1)
    first, second = traj(5, seed=1), traj(5, seed=2)
    buf.insert([first, second])
    assert buf.historical[0][2] is second


def test_historical_matches_naive_sort_after_every_insert():
    rng = np.random.default_rng(0)
    buf = ReplayBuffer("HO", capacity=7)
    seen = []
    for i in range(60):
        t = traj(float(rng.normal()), seed=i)
        seen.append(t)
        buf.insert([t])
        want = sorted(returns_of(seen), reverse=True)[: min(7, len(seen))]
        got = sorted(returns_of([x for _, _, x in buf.historical]), reverse=True)
        assert got == want


def test_historical_is_the_sorted_list_under_ties_cut_and_restore(tmp_path):
    # returns drawn from few values, so most inserts tie with stored entries;
    # the list must be exactly what the full sort by (return, index),
    # highest first, keeps
    rng = np.random.default_rng(3)
    buf = ReplayBuffer("HO", capacity=9)
    keys = []

    def insert(buffers, i, high):
        t = traj(float(rng.integers(-2, high)) * 0.5, seed=i)
        keys.append((t.episodic_return, i))
        for b in buffers:
            b.insert([t])
            assert [(r, j) for r, j, _ in b.historical] == sorted(keys, reverse=True)[:9]

    for i in range(200):
        insert([buf], i, 3)
    back = snapshot_round_trip(buf, *buf.snapshot(), tmp_path)
    for i in range(200, 260):
        insert([buf, back], i, 4)
    assert_same_trajectories(back.contents(), buf.contents())


def test_reservoir_capacity_and_uniform_eviction():
    buf = ReplayBuffer("S", reservoir_capacity=100, seed=42)
    buf.insert([traj(i) for i in range(100)])
    assert len(buf) == 100
    # record which slot each overflow insert replaces
    counts = np.zeros(100)
    for i in range(500):
        before = list(buf.reservoir)
        buf.insert([traj(1000 + i)])
        changed = [k for k in range(100) if buf.reservoir[k] is not before[k]]
        assert len(changed) == 1
        counts[changed[0]] += 1
    assert len(buf) == 100
    chi2 = float(((counts - 5.0) ** 2 / 5.0).sum())
    assert chi2 < 150.0  # df=99; the 0.999 quantile is ~148


def test_stratified_guarantees_rare_high_bin():
    buf = ReplayBuffer("S", reservoir_capacity=10, seed=1)
    buf.insert([traj(0), traj(0), traj(0), traj(10), traj(10)])
    for _ in range(25):
        batch = buf.sample(4)
        assert sorted(returns_of(batch))[-2:] == [10, 10]
        assert len(batch) == 4


def test_stratified_histogram_near_uniform():
    rng = np.random.default_rng(3)
    buf = ReplayBuffer("S", reservoir_capacity=500, seed=7)
    buf.insert([traj(float(rng.uniform(0, 100)), seed=i) for i in range(500)])
    edges = np.linspace(0, 100, 6)
    counts = np.zeros(5)
    n_draws = 1000
    for _ in range(n_draws):
        batch = buf.sample(50)
        assert len(batch) == 50
        rets = np.array(returns_of(batch))
        which = np.clip(np.searchsorted(edges, rets, side="right") - 1, 0, 4)
        counts += np.bincount(which, minlength=5)
    share = counts / counts.sum()
    assert np.abs(share - 0.2).max() < 0.02  # within 10% of the uniform share


def reference_allocate(sizes, k):
    """The stratified quota as a redistribution loop: an even share per open
    bin, a bin that runs out closes, and its deficit goes round again."""
    quota = [0] * len(sizes)
    remaining = min(k, sum(sizes))
    open_bins = [b for b in range(len(sizes)) if sizes[b] > 0]
    while remaining > 0 and open_bins:
        share = max(remaining // len(open_bins), 1)
        progressed = False
        for b in list(open_bins):
            if remaining == 0:
                break
            take = min(share, sizes[b] - quota[b], remaining)
            if take > 0:
                quota[b] += take
                remaining -= take
                progressed = True
            if quota[b] == sizes[b]:
                open_bins.remove(b)
        if not progressed:
            break
    return quota


def test_stratified_quota_equals_the_redistribution_loop():
    buf = ReplayBuffer("S")
    for sizes in itertools.product(range(5), repeat=5):
        for k in range(sum(sizes) + 3):
            assert buf._allocate(list(sizes), k) == reference_allocate(sizes, k), (sizes, k)


def test_stratified_underfull_returns_everything():
    buf = ReplayBuffer("S", reservoir_capacity=100, seed=0)
    buf.insert([traj(i) for i in range(7)])
    assert sorted(returns_of(buf.sample(50))) == list(range(7))


def test_stratified_equal_returns_single_bin():
    buf = ReplayBuffer("S", reservoir_capacity=50, seed=5)
    buf.insert([traj(2.5, seed=i) for i in range(20)])
    batch = buf.sample(8)
    assert len(batch) == 8


def test_empty_sample_rejected():
    with pytest.raises(ValueError, match="empty"):
        ReplayBuffer("O").sample(5)


def test_sampling_returns_references_not_copies():
    buf = ReplayBuffer("O", capacity=4)
    t = traj(1.0)
    buf.insert([t])
    assert buf.sample(1)[0] is t


def test_deterministic_given_seed():
    def run(seed):
        buf = ReplayBuffer("S", reservoir_capacity=20, seed=seed)
        buf.insert([traj(i, seed=i) for i in range(60)])
        return returns_of(buf.sample(10))

    assert run(11) == run(11)
    assert run(11) != run(12)


def test_float64_states_and_int64_actions_are_kept_as_they_are():
    states, actions = np.zeros((3, 2)), np.arange(3, dtype=np.int64)
    for acts in (actions, np.zeros((3, 1))):
        t = Trajectory(states, acts, 1.0)
        assert t.states is states and t.actions is acts


@pytest.mark.parametrize("states,actions,want", [
    (np.zeros((2, 3), dtype=np.float32), np.array([1, 0], dtype=np.int32), np.int64),
    ([[0.0, 1.0], [2.0, 3.0]], [1, 0], np.int64),
    (np.zeros((2, 3)), np.array([3, 4], dtype=np.uint8), np.int64),
    (np.zeros((2, 3)), np.array([[0.5], [1.5]], dtype=np.float32), np.float64),
    (np.zeros((2, 3)), np.array([True, False]), np.float64),
])
def test_other_dtypes_are_converted(states, actions, want):
    t = Trajectory(states, actions, 0.0)
    assert t.states.dtype == np.float64 and t.actions.dtype == want
    assert np.array_equal(t.states, np.asarray(states, dtype=np.float64))
    assert np.array_equal(t.actions, np.asarray(actions).astype(want))


def test_jsonl_round_trip():
    buf = ReplayBuffer("O", capacity=8)
    buf.insert([traj(i / 3.0, seed=i) for i in range(5)])
    path = "/tmp/buffer_test.jsonl"
    write_jsonl(path, buf.contents())
    back = read_jsonl(path)
    assert len(back) == 5
    for a, b in zip(buf.contents(), back):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.actions, b.actions)
        assert a.episodic_return == b.episodic_return


def snapshot_round_trip(buf, trajs, meta, tmp_path):
    path = str(tmp_path / "buffer.jsonl")
    write_jsonl(path, trajs)
    back = ReplayBuffer(buf.scheme, buf.capacity, buf.reservoir_capacity)
    back.rng.bit_generator.state = buf.rng.bit_generator.state
    back.restore_snapshot(read_jsonl(path), json.loads(json.dumps(meta)))
    return back


def assert_same_trajectories(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        np.testing.assert_array_equal(a.states, b.states)
        np.testing.assert_array_equal(a.actions, b.actions)
        assert a.episodic_return == b.episodic_return


@pytest.mark.parametrize("scheme", ["O", "HO", "S"])
def test_snapshot_writes_each_trajectory_once_and_restores(scheme, tmp_path):
    buf = ReplayBuffer(scheme, capacity=4, reservoir_capacity=6, seed=2)
    buf.insert([traj(r, seed=i) for i, r in enumerate((1, 9, 2, 8, 3, 7, 4, 5))])
    trajs, meta = buf.snapshot()
    assert trajs == buf.contents()
    back = snapshot_round_trip(buf, trajs, meta, tmp_path)
    assert back._inserted == buf._inserted
    assert [(r, i) for r, i, _ in back.historical] == [(r, i) for r, i, _ in buf.historical]
    assert_same_trajectories(back.contents(), buf.contents())
    back.insert([traj(10, seed=20), traj(0, seed=21)])
    buf.insert([traj(10, seed=20), traj(0, seed=21)])
    assert_same_trajectories(back.contents(), buf.contents())


def test_restore_reads_the_layout_that_wrote_every_historical_entry(tmp_path):
    # Before the HO union was deduplicated, `snapshot` wrote the online queue
    # and then every historical entry, in the window or not, with no "layout"
    buf = ReplayBuffer("HO", capacity=4)
    buf.insert([traj(r, seed=i) for i, r in enumerate((1, 9, 2, 8, 3, 7, 4, 5))])
    old_trajs = list(buf.online) + [t for _, _, t in buf.historical]
    old_meta = {
        "online_count": len(buf.online),
        "historical_keys": [[r, i] for r, i, _ in buf.historical],
        "inserted": buf._inserted,
    }
    assert len(old_trajs) > len(buf.snapshot()[0])
    back = snapshot_round_trip(buf, old_trajs, old_meta, tmp_path)
    assert [(r, i) for r, i, _ in back.historical] == [(r, i) for r, i, _ in buf.historical]
    assert_same_trajectories(back.sample(4), buf.sample(4))
