"""Randomized fault injection: correctness under infrastructure chaos.

Hypothesis drives interleavings of application operations with storage
crashes/recoveries and sequencer kills. Invariants:

- no committed data is ever lost;
- all views converge;
- every fresh client reconstructs the same state;
- the log passes fsck (no dangling transaction state).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.corfu import CorfuCluster
from repro.net import FaultyTransport
from repro.objects import TangoList, TangoMap
from repro.streams import StreamClient
from repro.tango.runtime import TangoRuntime
from repro.tools import check_log

_settings = settings(
    max_examples=20, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# Actions: put (key, value), crash storage i, recover storage i,
# crash sequencer. With 3x replication, chains survive two dead nodes.
_actions = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 99)),
        st.tuples(st.just("crash"), st.integers(0, 5)),
        st.tuples(st.just("recover"), st.integers(0, 5)),
        st.tuples(st.just("kill_seq"), st.just(0)),
    ),
    max_size=20,
)


def _node_name(cluster, index):
    nodes = sorted(cluster.projection.all_nodes())
    if not nodes:
        return None
    return nodes[index % len(nodes)]


class TestChaos:
    @given(actions=_actions)
    @_settings
    def test_no_committed_write_is_ever_lost(self, actions):
        cluster = CorfuCluster(num_sets=2, replication_factor=3)
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        expected = {}
        crashed = set()
        for action in actions:
            kind = action[0]
            if kind == "put":
                key, value = f"k{action[1]}", action[2]
                m.put(key, value)
                expected[key] = value
            elif kind == "crash":
                name = _node_name(cluster, action[1])
                if name is None:
                    continue
                # Keep at least one live replica per chain: skip the
                # crash if it would empty the victim's chain.
                chain = next(
                    rs for rs in cluster.projection.replica_sets
                    if name in rs.nodes
                )
                live = [n for n in chain if n not in crashed]
                if len(live) <= 1 or name in crashed:
                    continue
                cluster.crash_storage(name)
                crashed.add(name)
            elif kind == "recover":
                name = _node_name(cluster, action[1])
                if name in crashed:
                    # Recovered nodes may have been ejected from the
                    # projection; recovery just brings the unit up.
                    cluster.recover_storage(name)
                    crashed.discard(name)
            else:  # kill_seq
                cluster.crash_sequencer(cluster.projection.sequencer)
        # Every committed put is visible to the writer...
        assert {k: m.get(k) for k in expected} == expected
        # ...and to a brand-new client reconstructing from the log.
        fresh = TangoMap(TangoRuntime(cluster, client_id=2), oid=1)
        assert {k: fresh.get(k) for k in expected} == expected

    @given(actions=_actions)
    @_settings
    def test_log_stays_fsck_clean(self, actions):
        cluster = CorfuCluster(num_sets=2, replication_factor=3)
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        crashed = set()
        for action in actions:
            kind = action[0]
            if kind == "put":
                m.put(f"k{action[1]}", action[2])
            elif kind == "crash":
                name = _node_name(cluster, action[1])
                if name is None or name in crashed:
                    continue
                chain = next(
                    rs for rs in cluster.projection.replica_sets
                    if name in rs.nodes
                )
                if len([n for n in chain if n not in crashed]) <= 1:
                    continue
                cluster.crash_storage(name)
                crashed.add(name)
            elif kind == "recover":
                name = _node_name(cluster, action[1])
                if name in crashed:
                    cluster.recover_storage(name)
                    crashed.discard(name)
            else:
                cluster.crash_sequencer(cluster.projection.sequencer)
        # Recover any still-crashed units so fsck can read everything.
        for name in list(crashed):
            cluster.recover_storage(name)
        report = check_log(cluster)
        assert report.healthy
        assert not report.bad_backpointers

    @given(
        puts=st.integers(min_value=1, max_value=15),
        kill_at=st.integers(min_value=0, max_value=14),
    )
    @_settings
    def test_transactions_across_sequencer_kill(self, puts, kill_at):
        """Transactional RMW stays exact no matter when the sequencer
        dies."""
        cluster = CorfuCluster(num_sets=2, replication_factor=2)
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        m.put("n", 0)
        m.get("n")
        for i in range(puts):
            if i == kill_at:
                cluster.crash_sequencer(cluster.projection.sequencer)
            rt.run_transaction(lambda: m.put("n", m.get("n") + 1))
        assert m.get("n") == puts


# Network chaos: application operations interleaved with transport
# faults. Rate mixes are indexed by the "rates" action; partitions cut
# the driving client off from one node at a time.
_RATE_MIXES = (
    {"drop_request": 0.0, "drop_response": 0.0, "duplicate": 0.0, "reorder": 0.0},
    {"drop_request": 0.15, "drop_response": 0.0, "duplicate": 0.0, "reorder": 0.0},
    {"drop_request": 0.0, "drop_response": 0.15, "duplicate": 0.2, "reorder": 0.0},
    {"drop_request": 0.1, "drop_response": 0.1, "duplicate": 0.1, "reorder": 0.1},
)

_net_actions = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 99)),
        st.tuples(st.just("rates"), st.integers(0, 3)),
        st.tuples(st.just("partition"), st.integers(0, 5)),
        st.tuples(st.just("heal"), st.just(0)),
    ),
    max_size=20,
)


class TestNetworkChaos:
    """Same invariants as TestChaos, but the failures live in the
    network: seeded drops, duplicates, reordering and partitions over
    a FaultyTransport. Committed writes must survive burned sequencer
    offsets, duplicated chain writes and failure-detector ejections."""

    @staticmethod
    def _safe_to_cut(cluster, transport, client_name, node):
        """Never cut the client off from ALL replicas of a chain: with
        nothing left to fail over to, retries (rightly) exhaust. The
        sequencer is always fair game — cutting it drives failover."""
        proj = cluster.projection
        if node == proj.sequencer:
            return True
        chain = next(
            (rs for rs in proj.replica_sets if node in rs.nodes), None
        )
        if chain is None:
            return True  # already ejected; nobody calls it
        live = [
            n
            for n in chain.nodes
            if n != node and not transport.partitioned(client_name, n)
        ]
        return bool(live)

    def _drive(self, transport, cluster, rt, m, actions):
        client_name = rt.streams.corfu.name
        expected = {}
        for action in actions:
            kind = action[0]
            if kind == "put":
                key, value = f"k{action[1]}", action[2]
                m.put(key, value)
                expected[key] = value
            elif kind == "rates":
                transport.set_rates(**_RATE_MIXES[action[1]])
            elif kind == "partition":
                name = _node_name(cluster, action[1])
                if name is not None and self._safe_to_cut(
                    cluster, transport, client_name, name
                ):
                    transport.partition(client_name, name)
            else:  # heal
                transport.heal()
        # Final-state checks run over a quiet network (they issue RPCs
        # through the same transport).
        transport.calm()
        return expected

    @given(actions=_net_actions)
    @_settings
    def test_no_committed_write_lost_under_network_faults(self, actions):
        transport = FaultyTransport(seed=11)
        cluster = CorfuCluster(
            num_sets=2, replication_factor=3, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        expected = self._drive(transport, cluster, rt, m, actions)
        # Every committed put is visible to the writer...
        assert {k: m.get(k) for k in expected} == expected
        # ...and to a brand-new client reconstructing from the log.
        fresh = TangoMap(TangoRuntime(cluster, client_id=2), oid=1)
        assert {k: fresh.get(k) for k in expected} == expected

    @given(actions=_net_actions)
    @_settings
    def test_log_stays_fsck_clean_under_network_faults(self, actions):
        transport = FaultyTransport(seed=23)
        cluster = CorfuCluster(
            num_sets=2, replication_factor=3, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        self._drive(transport, cluster, rt, m, actions)
        report = check_log(cluster)
        assert report.healthy
        assert not report.bad_backpointers


class TestBatchedReadChaos:
    """The batched read path under the same network chaos: read_many
    RPCs get dropped, duplicated, reordered and partitioned like any
    other call, and the retry discipline (partial results retained
    across retries) must still converge on exactly the per-offset
    answer with no lost writes and exactly-once hole fills."""

    _safe_to_cut = staticmethod(TestNetworkChaos._safe_to_cut)

    def _drive_no_calm(self, transport, cluster, rt, m, actions):
        """Like _drive, but leaves the final fault mix active so the
        batched sync below runs over a faulty network."""
        client_name = rt.streams.corfu.name
        expected = {}
        for action in actions:
            kind = action[0]
            if kind == "put":
                key, value = f"k{action[1]}", action[2]
                m.put(key, value)
                expected[key] = value
            elif kind == "rates":
                transport.set_rates(**_RATE_MIXES[action[1]])
            elif kind == "partition":
                name = _node_name(cluster, action[1])
                if name is not None and self._safe_to_cut(
                    cluster, transport, client_name, name
                ):
                    transport.partition(client_name, name)
            else:  # heal
                transport.heal()
        return expected

    @given(actions=_net_actions)
    @_settings
    def test_batched_cold_sync_converges_under_faults(self, actions):
        transport = FaultyTransport(seed=37)
        cluster = CorfuCluster(
            num_sets=2, replication_factor=3, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        m = TangoMap(rt, oid=1)
        expected = self._drive_no_calm(transport, cluster, rt, m, actions)
        # Cold sync UNDER the surviving fault mix (partitions target
        # the writer's endpoint, so the fresh reader only feels the
        # rate-based faults — drops, duplicates, reordering).
        batched = StreamClient(cluster.client())
        batched.open_stream(1)
        batched.sync(1)
        # Checks below compare against a second reader over a quiet
        # network; the first client's answer was produced under fire.
        transport.calm()
        plain = StreamClient(cluster.client())
        plain.open_stream(1)
        plain.sync(1)
        assert batched.known_offsets(1) == plain.known_offsets(1)
        for off in plain.known_offsets(1):
            assert batched.fetch(off).payload == plain.fetch(off).payload
        # Fetching everything again is served from cache: fills stay
        # exactly-once per hole (burned offsets surfacing in the list
        # are filled at first delivery, never again).
        fills_after_first_pass = batched.corfu.fills
        for off in plain.known_offsets(1):
            batched.fetch(off)
        assert batched.corfu.fills == fills_after_first_pass
        # No committed write was lost.
        fresh = TangoMap(TangoRuntime(cluster, client_id=2), oid=1)
        assert {k: fresh.get(k) for k in expected} == expected


# Batch-scope chaos: group-commit scopes (runtime.batch, adaptive and
# fixed sizes) driven under seeded drops/duplicates/reordering. No
# partitions: every scope must exit cleanly, so every update below is
# *acknowledged* — and acknowledged updates must be exactly-once.
_batch_actions = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.integers(0, 5), st.integers(0, 99)),
        st.tuples(st.just("rates"), st.integers(0, 3)),
    ),
    max_size=24,
)


class TestBatchChaos:
    """runtime.batch under network faults: every update acknowledged by
    a clean scope exit appears in its stream exactly once, in order —
    the batched append path's retries (pipelined chain writes re-driven
    with maybe_mine) never duplicate or drop an acknowledged record."""

    @given(actions=_batch_actions)
    @_settings
    def test_batched_updates_exactly_once_under_faults(self, actions):
        transport = FaultyTransport(seed=43)
        cluster = CorfuCluster(
            num_sets=2, replication_factor=3, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        lst = TangoList(rt, oid=1)
        expected = []
        token = 0
        # Drive the actions through a sequence of batch scopes,
        # alternating adaptive sizing with a pinned size so both paths
        # see the fault mix.
        for start in range(0, len(actions), 5):
            group = actions[start:start + 5]
            scope = rt.batch() if (start // 5) % 2 == 0 else rt.batch(size=3)
            with scope:
                for action in group:
                    if action[0] == "put":
                        value = f"v{token}-{action[2]}"
                        token += 1
                        lst.append(value)
                        expected.append(value)
                    else:
                        transport.set_rates(**_RATE_MIXES[action[1]])
        # Scope exits acknowledged every update; verification runs over
        # a quiet network.
        transport.calm()
        # Exactly once, in submission order, for the writer...
        assert lst.to_list() == tuple(expected)
        # ...and for a fresh client replaying the log from scratch.
        fresh = TangoList(TangoRuntime(cluster, client_id=2), oid=1)
        assert fresh.to_list() == tuple(expected)

    @given(actions=_batch_actions)
    @_settings
    def test_speculative_scopes_exactly_once_under_faults(self, actions):
        """Speculative scopes under the same faults: commit-or-rollback
        reconciliation must preserve exactly-once for acknowledged
        updates even when flush-path RPCs are dropped or duplicated."""
        transport = FaultyTransport(seed=53)
        cluster = CorfuCluster(
            num_sets=2, replication_factor=3, transport=transport
        )
        rt = TangoRuntime(cluster, client_id=1)
        lst = TangoList(rt, oid=1)
        lst.append("seed")
        expected = ["seed"]
        token = 0
        for start in range(0, len(actions), 5):
            group = actions[start:start + 5]
            with rt.batch(size=100, speculative=True):
                for action in group:
                    if action[0] == "put":
                        value = f"s{token}-{action[2]}"
                        token += 1
                        lst.append(value)
                        expected.append(value)
                    else:
                        transport.set_rates(**_RATE_MIXES[action[1]])
        transport.calm()
        assert lst.to_list() == tuple(expected)
        fresh = TangoList(TangoRuntime(cluster, client_id=2), oid=1)
        assert fresh.to_list() == tuple(expected)


# Sharded-sequencer chaos: the same fault vocabulary pointed at a
# 4-shard sequencer group. Vector appends span two stream groups, so
# drops/duplicates land mid-grant; kill_shard crashes one shard's soft
# state and the next append to its group must drive per-shard failover.
_sharded_actions = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 3), st.just(0)),
        st.tuples(st.just("vector"), st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("rates"), st.integers(0, 3)),
        st.tuples(st.just("kill_shard"), st.integers(0, 3)),
        st.tuples(st.just("heal"), st.just(0)),
    ),
    max_size=20,
)


class TestShardedChaos:
    """Exactly-once and per-shard failover for the sharded sequencer.

    Invariants: every committed append (single-group or cross-shard
    vector) appears exactly once in each stream it named, in commit
    order; killing one shard never disturbs the offsets or soft state
    of the others."""

    #: Kill shard 3 under the 10/10/10/10 fault mix, then append to a
    #: healthy shard's stream and to the dead shard's.
    _KILL_SHARD_3 = [
        ("rates", 3), ("kill_shard", 3), ("append", 0, 0), ("append", 3, 0),
    ]

    @given(actions=_sharded_actions, seed=st.just(53))
    # A reordered bootstrap reaches shard 3's replacement after it has
    # granted offset 3; re-installing the recovered state would drop
    # that grant and with it the stream-3 entry.
    @example(actions=_KILL_SHARD_3, seed=53)
    # Eight bootstrap timeouts in a row against the live replacement;
    # a budget of eight declared it dead.
    @example(actions=_KILL_SHARD_3, seed=124)
    @_settings
    def test_cross_shard_appends_exactly_once_under_faults(self, actions, seed):
        self._check_exactly_once(actions, seed)

    def test_live_replacement_shard_is_not_declared_dead(self):
        # The replacement for shard 3 is created moments before its
        # bootstrap; under this fault schedule the bootstrap loses eight
        # deliveries in a row, which must not surface as NodeDownError
        # out of the append that triggered the failover.
        self._check_exactly_once(self._KILL_SHARD_3, seed=124)

    def _check_exactly_once(self, actions, seed):
        transport = FaultyTransport(seed=seed)
        cluster = CorfuCluster(
            num_sets=2, replication_factor=3, transport=transport,
            seq_shards=4,
        )
        sclient = StreamClient(cluster.client())
        for sid in range(4):
            sclient.open_stream(sid)
        expected = {sid: [] for sid in range(4)}
        seq = 0
        for action in actions:
            kind = action[0]
            if kind == "append":
                sid = action[1]
                payload = f"s{sid}-{seq}".encode()
                seq += 1
                sclient.append(payload, (sid,))
                expected[sid].append(payload)
            elif kind == "vector":
                sids = tuple(sorted({action[1], action[2]}))
                payload = f"v{seq}".encode()
                seq += 1
                sclient.append(payload, sids)
                for sid in sids:
                    expected[sid].append(payload)
            elif kind == "rates":
                transport.set_rates(**_RATE_MIXES[action[1]])
            elif kind == "kill_shard":
                shards = cluster.projection.sequencer_shards
                cluster.crash_sequencer(shards[action[1]])
            else:  # heal
                transport.heal()
        # Final checks over a quiet network, through a fresh client
        # that reconstructs purely from the log.
        transport.calm()
        fresh = StreamClient(cluster.client())
        for sid in range(4):
            fresh.open_stream(sid)
            fresh.sync(sid)
            got = []
            while True:
                nxt = fresh.readnext(sid)
                if nxt is None:
                    break
                # Burned offsets (lost responses, duplicated grants)
                # surface as junk, exactly as in the dense-counter path;
                # consumers skip them.
                if nxt[1].is_junk:
                    continue
                got.append(nxt[1].payload)
            assert got == expected[sid]

    @given(
        rounds=st.integers(min_value=1, max_value=8),
        kill_at=st.integers(min_value=0, max_value=7),
        victim=st.integers(min_value=0, max_value=3),
    )
    @_settings
    def test_shard_kill_mid_grant_fails_over_only_that_shard(
        self, rounds, kill_at, victim
    ):
        cluster = CorfuCluster(num_sets=2, replication_factor=2, seq_shards=4)
        client = cluster.client()
        before = cluster.projection
        instances = {
            name: cluster.sequencer(name) for name in before.sequencer_shards
        }
        offsets = []
        for i in range(rounds):
            if i == kill_at:
                shards = cluster.projection.sequencer_shards
                cluster.crash_sequencer(shards[victim])
            for sid in range(4):
                offset = client.append(f"r{i}s{sid}".encode(), (sid,))
                # Routing survives the failover: still the owning stripe.
                assert offset % 4 == sid
                offsets.append(offset)
        # Exactly-once: no offset ever issued twice, before or after
        # the kill.
        assert len(offsets) == len(set(offsets))
        after = cluster.projection
        if kill_at < rounds:
            # Only the victim's slot changed; every healthy shard kept
            # its live instance (soft state intact, never halted).
            assert after.sequencer_shards[victim] != before.sequencer_shards[victim]
            for s in range(4):
                if s == victim:
                    continue
                name = after.sequencer_shards[s]
                assert name == before.sequencer_shards[s]
                assert cluster.sequencer(name) is instances[name]
        # A cross-shard vector grant still works over the mixed-epoch
        # group, and its entry lands above everything issued so far.
        top = client.append(b"vector-after", (1, 2))
        assert top > max(offsets)
