"""Tests for the sequencer (tail counter + stream backpointer state)."""

import pytest

from repro.corfu.entry import NO_BACKPOINTER
from repro.corfu.sequencer import Sequencer
from repro.errors import NodeDownError, SealedError


@pytest.fixture
def seq():
    return Sequencer("seq-0", k=4)


class TestCounter:
    def test_monotone_offsets(self, seq):
        offsets = [seq.increment()[0] for _ in range(10)]
        assert offsets == list(range(10))

    def test_multi_count_reservation(self, seq):
        first, _ = seq.increment(count=3)
        assert first == 0
        nxt, _ = seq.increment()
        assert nxt == 3

    def test_invalid_count(self, seq):
        with pytest.raises(ValueError):
            seq.increment(count=0)

    def test_query_does_not_advance(self, seq):
        seq.increment()
        tail1, _ = seq.query()
        tail2, _ = seq.query()
        assert tail1 == tail2 == 1


class TestStreamBackpointers:
    def test_first_append_gets_no_backpointers(self, seq):
        _, bps = seq.increment(stream_ids=(7,))
        assert bps[7] == (NO_BACKPOINTER,) * 4

    def test_last_k_newest_first(self, seq):
        for _ in range(6):
            seq.increment(stream_ids=(7,))
        _, bps = seq.increment(stream_ids=(7,))
        assert bps[7] == (5, 4, 3, 2)

    def test_streams_are_independent(self, seq):
        seq.increment(stream_ids=(1,))  # offset 0
        seq.increment(stream_ids=(2,))  # offset 1
        _, bps = seq.increment(stream_ids=(1, 2))  # offset 2
        assert bps[1][0] == 0
        assert bps[2][0] == 1

    def test_multiappend_records_offset_for_all_streams(self, seq):
        seq.increment(stream_ids=(1, 2))  # offset 0 in both
        _, bps = seq.increment(stream_ids=(1, 2))
        assert bps[1][0] == 0
        assert bps[2][0] == 0

    def test_query_returns_stream_state(self, seq):
        seq.increment(stream_ids=(3,))
        seq.increment(stream_ids=(3,))
        tail, streams = seq.query(stream_ids=(3, 4))
        assert tail == 2
        assert streams[3] == (1, 0)
        assert streams[4] == ()

    def test_multi_count_assigns_all_offsets(self, seq):
        seq.increment(stream_ids=(5,), count=3)
        _, streams = seq.query(stream_ids=(5,))
        assert streams[5] == (2, 1, 0)

    def test_state_footprint(self, seq):
        """32 bytes per stream with K=4 (paper section 5)."""
        for sid in range(100):
            seq.increment(stream_ids=(sid,))
        assert seq.stream_state_bytes() == 100 * 32


class TestSealAndCrash:
    def test_seal_fences_stale_epoch(self, seq):
        seq.seal(2)
        with pytest.raises(SealedError):
            seq.increment(epoch=1)
        seq.increment(epoch=2)

    def test_seal_not_backwards(self, seq):
        seq.seal(2)
        with pytest.raises(SealedError):
            seq.seal(2)

    def test_crash_loses_soft_state(self, seq):
        seq.increment(stream_ids=(1,))
        seq.crash()
        assert seq.is_down
        with pytest.raises(NodeDownError):
            seq.increment()
        with pytest.raises(NodeDownError):
            seq.query()

    def test_bootstrap_restores_state(self, seq):
        seq.increment(stream_ids=(1,))
        seq.increment(stream_ids=(1,))
        seq.crash()
        seq.bootstrap(tail=2, stream_tails={1: [1, 0]}, epoch=1)
        assert not seq.is_down
        offset, bps = seq.increment(stream_ids=(1,), epoch=1)
        assert offset == 2
        assert bps[1] == (1, 0)

    def test_late_duplicate_bootstrap_does_not_rewind(self):
        """The network may deliver a bootstrap again after the
        replacement started issuing (a reordered retry). Re-installing
        the recovered state then would rewind the counter and wipe the
        grants made since — committed entries vanishing from sync."""
        seq = Sequencer("seq-1")
        seq.bootstrap(tail=3, stream_tails={1: [2, 0]}, epoch=1)
        assert seq.increment((3,), epoch=1)[0] == 3
        seq.bootstrap(tail=3, stream_tails={1: [2, 0]}, epoch=1)
        assert seq.query((1, 3), epoch=1) == (4, {1: (2, 0), 3: (3,)})
        # Everything that is not a late duplicate still installs: a
        # higher recovered tail, a newer epoch, a crashed instance.
        seq.bootstrap(tail=10, stream_tails={}, epoch=1)
        assert seq.query((3,), epoch=1) == (10, {3: ()})
        seq.bootstrap(tail=2, stream_tails={3: [1]}, epoch=2)
        assert seq.query((3,), epoch=2) == (2, {3: (1,)})
        seq.increment((3,), epoch=2)
        seq.crash()
        seq.bootstrap(tail=1, stream_tails={}, epoch=2)
        assert not seq.is_down
        assert seq.query((3,), epoch=2) == (1, {3: ()})
        with pytest.raises(SealedError):
            seq.bootstrap(tail=50, stream_tails={}, epoch=1)

    def test_bootstrap_truncates_to_k(self):
        seq = Sequencer("s", k=2)
        seq.bootstrap(tail=10, stream_tails={1: [9, 8, 7, 6]}, epoch=0)
        _, streams = seq.query(stream_ids=(1,))
        assert streams[1] == (9, 8)


class TestLifecycleRaces:
    """crash()/seal() vs in-flight increments from other threads.

    Before the lock covered the lifecycle methods, a crash could clear
    the tail while an increment was mid-flight in another thread,
    letting the increment hand out an offset from a half-cleared
    counter (duplicate offsets after recovery). Every observation must
    be all-or-nothing: a live response or a clean error.
    """

    def test_increments_during_crashes_never_duplicate_offsets(self):
        import threading

        seq = Sequencer("seq-0", k=4)
        issued = []
        errors = []
        lock = threading.Lock()
        stop = threading.Event()

        def incrementer():
            while not stop.is_set():
                try:
                    offset, _ = seq.increment((1,), epoch=0)
                except NodeDownError:
                    continue
                except SealedError:
                    return
                with lock:
                    issued.append(offset)

        def chaos():
            for i in range(50):
                seq.crash()
                # Each recovery installs a floor far above anything the
                # previous era could have issued, so a duplicate offset
                # can only come from an increment that observed a
                # half-cleared counter mid-crash.
                seq.bootstrap((i + 1) * 10**9, {}, epoch=0)
            stop.set()

        threads = [threading.Thread(target=incrementer) for _ in range(4)]
        threads.append(threading.Thread(target=chaos))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(issued) == len(set(issued)), "duplicate offsets issued"

    def test_seal_is_atomic_against_increments(self):
        import threading

        seq = Sequencer("seq-0", k=4)
        results = {"sealed": 0, "issued": []}
        barrier = threading.Barrier(5)

        def incrementer():
            barrier.wait()
            try:
                for _ in range(200):
                    offset, _ = seq.increment((), epoch=0)
                    results["issued"].append(offset)
            except SealedError:
                results["sealed"] += 1

        def sealer():
            barrier.wait()
            seq.seal(1)

        threads = [threading.Thread(target=incrementer) for _ in range(4)]
        threads.append(threading.Thread(target=sealer))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Once seal returned, no epoch-0 increment can have completed
        # after it: the issued offsets are exactly 0..N-1, no gaps from
        # half-finished requests.
        issued = sorted(results["issued"])
        assert issued == list(range(len(issued)))
        with pytest.raises(SealedError):
            seq.increment((), epoch=0)


class TestStriping:
    """A shard (i, N) only ever issues offsets congruent to i mod N."""

    def test_default_shard_is_the_dense_counter(self):
        seq = Sequencer("seq-0", k=4)
        assert seq.shard_index == 0
        assert seq.num_shards == 1
        assert [seq.increment()[0] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_offsets_land_on_own_stripe(self):
        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        offsets = [seq.increment(stream_ids=(1,))[0] for _ in range(5)]
        assert offsets == [1, 5, 9, 13, 17]

    def test_multi_count_strides_within_the_stripe(self):
        seq = Sequencer("seq-0.2", k=4, shard_index=2, num_shards=3)
        first, bps = seq.increment(stream_ids=(2,), count=3)
        assert first == 2
        # Backpointers for the reservation are the stripe's own offsets,
        # newest first.
        assert bps[2][:3] == (NO_BACKPOINTER,) * 3
        nxt, bps = seq.increment(stream_ids=(2,))
        assert nxt == 11
        assert bps[2][:3] == (8, 5, 2)

    def test_query_reports_the_global_tail_bound(self):
        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        assert seq.query()[0] == 0
        seq.increment()  # issues 1
        assert seq.query()[0] == 2  # everything below 2 is decided here
        seq.increment()  # issues 5
        assert seq.query()[0] == 6

    def test_bootstrap_takes_a_global_tail(self):
        seq = Sequencer("seq-0.3", k=4, shard_index=3, num_shards=4)
        seq.crash()
        seq.bootstrap(10, {7: [7, 3]}, epoch=0)
        # First own offset at or above the global tail 10 is 11.
        offset, bps = seq.increment(stream_ids=(7,))
        assert offset == 11
        assert bps[7][:2] == (7, 3)

    def test_shard_parameters_validated(self):
        with pytest.raises(ValueError):
            Sequencer("bad", shard_index=2, num_shards=2)
        with pytest.raises(ValueError):
            Sequencer("bad", shard_index=-1, num_shards=2)
        with pytest.raises(ValueError):
            Sequencer("bad", num_shards=0)


class TestVectorGrant:
    """reserve_group / commit_group: the two-phase cross-shard grant."""

    def test_reserve_lands_on_own_stripe_and_respects_floor(self):
        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        r0 = seq.reserve_group()
        assert r0 == 1
        r1 = seq.reserve_group(floor=r0 + 1)
        assert r1 == 5
        # A floor far ahead ratchets the shard forward.
        r2 = seq.reserve_group(floor=100)
        assert r2 >= 100 and r2 % 4 == 1

    def test_commit_records_backpointers_and_returns_priors(self):
        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        o1 = seq.reserve_group()
        prior = seq.commit_group((7,), o1)
        assert prior[7] == (NO_BACKPOINTER,) * 4
        o2 = seq.reserve_group(floor=o1 + 1)
        prior = seq.commit_group((7,), o2)
        assert prior[7][0] == o1

    def test_commit_is_idempotent_at_the_same_offset(self):
        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        o = seq.reserve_group()
        first = seq.commit_group((7,), o)
        again = seq.commit_group((7,), o)
        assert first == again

    def test_stale_commit_raises(self):
        from repro.errors import StaleGrantError

        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        o_old = seq.reserve_group()
        o_new = seq.reserve_group(floor=o_old + 1)
        seq.commit_group((7,), o_new)
        with pytest.raises(StaleGrantError):
            seq.commit_group((7,), o_old)

    def test_commit_bumps_the_tail_past_the_offset(self):
        seq = Sequencer("seq-0.2", k=4, shard_index=2, num_shards=4)
        # Commit an offset granted by some *other* shard's reservation.
        seq.commit_group((2,), 17)
        offset, _ = seq.increment(stream_ids=(2,))
        assert offset > 17 and offset % 4 == 2

    def test_sealed_shard_rejects_grant_ops(self):
        seq = Sequencer("seq-0.1", k=4, shard_index=1, num_shards=4)
        seq.seal(1)
        with pytest.raises(SealedError):
            seq.reserve_group(epoch=0)
        with pytest.raises(SealedError):
            seq.commit_group((7,), 1, epoch=0)


class TestShardedSequencer:
    def test_single_shard_group_is_the_plain_sequencer(self):
        from repro.corfu.sequencer import ShardedSequencer

        group = ShardedSequencer("seq-0", shards=1)
        assert len(group) == 1
        assert group.shard_names() == ("seq-0",)
        only = group.shard_for(123)
        assert only.name == "seq-0"
        assert only.num_shards == 1

    def test_shards_partition_streams_by_modulus(self):
        from repro.corfu.sequencer import ShardedSequencer, shard_name

        group = ShardedSequencer("seq-0", shards=4)
        assert group.shard_names() == tuple(
            shard_name("seq-0", i) for i in range(4)
        )
        for sid in range(8):
            shard = group.shard_for(sid)
            assert shard.shard_index == sid % 4

    def test_group_tail_is_the_max_over_shards(self):
        from repro.corfu.sequencer import ShardedSequencer

        group = ShardedSequencer("seq-0", shards=4)
        assert group.tail() == 0
        group.shard_for(2).increment(stream_ids=(2,))  # issues offset 2
        assert group.tail() == 3

    def test_group_seal_seals_every_shard(self):
        from repro.corfu.sequencer import ShardedSequencer

        group = ShardedSequencer("seq-0", shards=3)
        group.seal(1)
        for shard in group:
            with pytest.raises(SealedError):
                shard.increment(epoch=0)

    def test_disjoint_shards_never_issue_the_same_offset(self):
        import threading

        from repro.corfu.sequencer import ShardedSequencer

        group = ShardedSequencer("seq-0", shards=4)
        issued = []
        lock = threading.Lock()

        def worker(sid):
            shard = group.shard_for(sid)
            mine = [shard.increment(stream_ids=(sid,))[0] for _ in range(200)]
            with lock:
                issued.extend(mine)

        threads = [threading.Thread(target=worker, args=(s,)) for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(issued) == len(set(issued)) == 800
