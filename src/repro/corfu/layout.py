"""Projections: the mapping from log offsets to storage pages.

Paper section 2.2: "CORFU organizes a cluster of storage nodes into
multiple, disjoint replica sets; for example, a 12-node cluster might
consist of 4 replica sets of size 3 ... It then maps this offset to a
local offset on one of the replica sets using a simple deterministic
mapping over the membership of the cluster. For example, offset 0 might
be mapped to A:0 (i.e., page 0 on set A ...), offset 1 to B:0, and so on
until the function wraps back to A:1."

Section 5 makes the sequencer "a first-class member of the 'projection'
or membership view", so a projection names the sequencer too, and
replacing a failed sequencer is an ordinary projection change.
"""

from __future__ import annotations

from typing import List, Tuple


class _Frozen:
    """An immutable record: its fields are set once, in ``__init__``,
    and it compares, hashes and prints by them (``_FIELDS``), as a
    frozen dataclass would."""

    __slots__ = ()
    _FIELDS: Tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._FIELDS)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()  # type: ignore[attr-defined]

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._FIELDS)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class ReplicaSet(_Frozen):
    """An ordered chain of storage node names (head first, tail last)."""

    __slots__ = ("nodes",)
    _FIELDS = __slots__

    nodes: Tuple[str, ...]

    def __init__(self, nodes: Tuple[str, ...]) -> None:
        if not nodes:
            raise ValueError("replica set must contain at least one node")
        if len(set(nodes)) != len(nodes):
            raise ValueError(f"duplicate nodes in replica set: {nodes}")
        object.__setattr__(self, "nodes", nodes)

    @property
    def head(self) -> str:
        return self.nodes[0]

    @property
    def tail(self) -> str:
        return self.nodes[-1]

    def without(self, node: str) -> "ReplicaSet":
        """A copy of this set with *node* ejected."""
        remaining = tuple(n for n in self.nodes if n != node)
        return ReplicaSet(remaining)

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)


class Projection(_Frozen):
    """One epoch's view of the cluster membership.

    Attributes:
        epoch: monotonically increasing configuration number.
        replica_sets: disjoint chains; offset *o* maps to set
            ``o % len(replica_sets)`` at local address
            ``o // len(replica_sets)``.
        sequencer: name of the sequencer node for this epoch (or the
            group label when the sequencer is sharded).
        seq_shards: shard node names of a sharded sequencer group, in
            shard order — shard ``i`` owns streams ``sid % N == i`` and
            offsets ``≡ i (mod N)``. Empty means the classic single
            sequencer named by ``sequencer``. Changing the shard
            *count* changes the offset striping, so it is always an
            epoch change (a new projection).
        sequencer_shards: shard node names, in shard order;
            ``(sequencer,)`` if unsharded. Derived from the two above,
            once, since every grant asks for it.
    """

    __slots__ = ("epoch", "replica_sets", "sequencer", "seq_shards", "sequencer_shards")
    _FIELDS = __slots__[:4]

    epoch: int
    replica_sets: Tuple[ReplicaSet, ...]
    sequencer: str
    seq_shards: Tuple[str, ...]
    sequencer_shards: Tuple[str, ...]

    def __init__(
        self,
        epoch: int,
        replica_sets: Tuple[ReplicaSet, ...],
        sequencer: str,
        seq_shards: Tuple[str, ...] = (),
    ) -> None:
        if not replica_sets:
            raise ValueError("projection needs at least one replica set")
        seen = set()
        for rset in replica_sets:
            for node in rset:
                if node in seen:
                    raise ValueError(f"node {node} appears in two replica sets")
                seen.add(node)
        if len(set(seq_shards)) != len(seq_shards):
            raise ValueError(
                f"duplicate sequencer shard names: {seq_shards}"
            )
        init = object.__setattr__
        init(self, "epoch", epoch)
        init(self, "replica_sets", replica_sets)
        init(self, "sequencer", sequencer)
        init(self, "seq_shards", seq_shards)
        init(self, "sequencer_shards", seq_shards or (sequencer,))

    def map_offset(self, offset: int) -> Tuple[ReplicaSet, int]:
        """Deterministic mapping: global offset -> (replica set, local address)."""
        if offset < 0:
            raise ValueError(f"negative offset {offset}")
        n = len(self.replica_sets)
        return self.replica_sets[offset % n], offset // n

    def global_offset(self, set_index: int, local_address: int) -> int:
        """Inverse mapping used by the slow check."""
        return local_address * len(self.replica_sets) + set_index

    def all_nodes(self) -> List[str]:
        """Every storage node named by this projection."""
        return [node for rset in self.replica_sets for node in rset]

    # -- sequencer sharding -------------------------------------------------

    @property
    def num_seq_shards(self) -> int:
        return len(self.sequencer_shards)

    def shard_index_for_stream(self, stream_id: int) -> int:
        """Index of the shard owning *stream_id* (``sid % N``)."""
        return stream_id % self.num_seq_shards

    def shard_for_stream(self, stream_id: int) -> str:
        """Node name of the shard owning *stream_id*."""
        return self.sequencer_shards[stream_id % self.num_seq_shards]

    def with_sequencer(self, sequencer: str) -> "Projection":
        """Next-epoch projection with a replacement (single) sequencer."""
        if self.seq_shards:
            raise ValueError(
                "sequencer is sharded; replace one shard with "
                "with_seq_shard() or change the group with with_seq_shards()"
            )
        return Projection(self.epoch + 1, self.replica_sets, sequencer)

    def with_seq_shard(self, index: int, name: str) -> "Projection":
        """Next-epoch projection with one sequencer shard replaced.

        Only the named shard changes; the stripe geometry (shard count
        and the other shards' identities — and therefore their live
        soft state) is untouched, which is what lets one crashed shard
        fail over without halting the rest of the group.
        """
        shards = self.sequencer_shards
        if not 0 <= index < len(shards):
            raise ValueError(
                f"shard index {index} out of range for {len(shards)} shards"
            )
        if not self.seq_shards:
            return self.with_sequencer(name)
        replaced = shards[:index] + (name,) + shards[index + 1:]
        return Projection(
            self.epoch + 1, self.replica_sets, self.sequencer, replaced
        )

    def with_seq_shards(self, shard_names: Tuple[str, ...]) -> "Projection":
        """Next-epoch projection with a new sequencer shard group.

        Changing the shard count restripes the offset space, so it must
        go through an epoch change like any membership change; callers
        are responsible for recovering the new shards' soft state.
        """
        return Projection(
            self.epoch + 1, self.replica_sets, self.sequencer, tuple(shard_names)
        )

    def with_node_ejected(self, node: str) -> "Projection":
        """Next-epoch projection with a failed storage node removed.

        The chain that contained *node* simply shrinks; CORFU tolerates
        f failures per f+1-way replicated chain.
        """
        new_sets = []
        found = False
        for rset in self.replica_sets:
            if node in rset.nodes:
                found = True
                shrunk = rset.without(node)
                if not shrunk.nodes:
                    raise ValueError(
                        f"ejecting {node} would empty replica set {rset.nodes}"
                    )
                new_sets.append(shrunk)
            else:
                new_sets.append(rset)
        if not found:
            raise ValueError(f"node {node} not in projection epoch {self.epoch}")
        return Projection(
            self.epoch + 1, tuple(new_sets), self.sequencer, self.seq_shards
        )


def build_projection(
    num_sets: int,
    replication_factor: int,
    sequencer: str = "seq-0",
    epoch: int = 0,
    node_prefix: str = "flash",
    seq_shards: int = 1,
) -> Projection:
    """Construct the standard NxR layout used throughout the evaluation.

    The paper's default deployment is 18 nodes in a "9X2 configuration
    (i.e., 9 sets of 2 replicas each)":
    ``build_projection(9, 2)``.

    With ``seq_shards > 1`` the sequencer is a sharded group labelled
    *sequencer*, its shards named ``{sequencer}.0 .. {sequencer}.N-1``.
    """
    sets = []
    for i in range(num_sets):
        nodes = tuple(
            f"{node_prefix}-{i}-{j}" for j in range(replication_factor)
        )
        sets.append(ReplicaSet(nodes))
    if seq_shards < 1:
        raise ValueError(f"seq_shards must be >= 1, got {seq_shards}")
    shards: Tuple[str, ...] = ()
    if seq_shards > 1:
        shards = tuple(f"{sequencer}.{i}" for i in range(seq_shards))
    return Projection(epoch, tuple(sets), sequencer, shards)
