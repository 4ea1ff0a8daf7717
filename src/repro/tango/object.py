"""The Tango object base class.

Paper section 3.1: a Tango object has three components — an in-memory
*view*, a mandatory *apply* upcall that is the only code allowed to
mutate the view, and an external interface of mutators and accessors
that delegate to the runtime's ``update_helper`` and ``query_helper``.

Subclasses implement:

- :meth:`apply` (mandatory) — change the view from one update record.
  The library's objects inherit it: they declare their ops once in an
  :class:`~repro.util.encoding.OpTable` (``OPS``), mutators send one with
  :meth:`_op`, and ``apply`` calls the op's handler ``_apply_<name>``
  with the op's fields and the offset;
- :meth:`get_checkpoint` / :meth:`load_checkpoint` (optional) — opaque
  snapshot support for the ``checkpoint``/``forget`` machinery;
- class attribute :attr:`needs_decision_record` — the paper's static
  marking for objects that may appear in a transaction's read set while
  some client hosts the write set but not this object (section 4.1).

A ``TangoObject`` can also be opened *without a local view*
(``host_view=False``): mutators still work (remote writes, section 4.1
case A — e.g. a producer appending to a queue it never reads) but
accessors raise, since there is no view to read.
"""

from __future__ import annotations

import json
from typing import Any, Callable, ClassVar, Dict, List, Optional, Tuple

from repro.errors import TangoError
from repro.util.encoding import OP_TAG_BASE, OpTable, decode_values


class TangoObject:
    """Base class for all replicated data structures."""

    #: Paper section 4.1: mark objects whose transactions need decision
    #: records because some client hosts a write-set object but not this
    #: (read-set) object.
    needs_decision_record = False

    #: The type's update ops, for a type that inherits ``apply``; an
    #: object whose ``apply`` parses its payloads itself declares none.
    OPS: ClassVar[OpTable]
    #: Op tag -> handler (``_apply_<name>``), built from ``OPS``.
    _handlers: ClassVar[Dict[int, Callable[..., None]]] = {}

    def __init_subclass__(cls, **kwargs: Any) -> None:
        super().__init_subclass__(**kwargs)
        ops = getattr(cls, "OPS", None)
        if ops is not None:
            cls._handlers = {
                ops.tag(name): getattr(cls, "_apply_" + name) for name, _fields in ops.ops
            }

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self.oid = oid
        self._runtime = runtime
        self._hosted = host_view
        if host_view:
            runtime.register_object(self)

    # -- upcalls (implemented by subclasses) -----------------------------------

    def apply(self, payload: bytes, offset: int) -> None:
        """Mandatory upcall: fold one update record into the view.

        "The view must be modified only by the Tango runtime via this
        apply upcall, and not by application threads executing arbitrary
        methods of the object."

        *offset* is the position in the shared log at which the update
        became visible; objects may store it instead of the value to act
        as indices over log-structured storage (section 3.1,
        "Durability").

        The default decodes one op of ``OPS`` and calls its handler as
        ``self._apply_<name>(*fields, offset)``.
        """
        handler = self._handlers.get(payload[0])
        if handler is None:
            name, values = self.decode_op(payload)  # a legacy JSON op
            handler = self._handlers[self.OPS.tag(name)]
        else:
            values = decode_values(payload, 1)
        handler(self, *values, offset)

    @classmethod
    def decode_op(cls, payload: bytes) -> Tuple[str, List[Any]]:
        """``(name, fields)`` of one update payload of this type.

        For any reader of the type's stream: fields come in the order
        ``OPS`` declares. Payloads written before ops were binary are
        JSON objects naming their op and fields; they decode the same
        way, a field they lack as None.
        """
        if getattr(cls, "OPS", None) is None:
            raise NotImplementedError(f"{cls.__name__} declares no OPS")
        if payload and payload[0] >= OP_TAG_BASE:
            return cls.OPS.decode(payload)
        return cls._legacy_op(json.loads(payload.decode("utf-8")))

    @classmethod
    def _legacy_op(cls, op: Any) -> Tuple[str, List[Any]]:
        """``(name, fields)`` of one decoded legacy JSON op."""
        name = op["op"]
        return name, [op.get(field) for field in cls.OPS.fields(name)]

    def get_checkpoint(self) -> bytes:
        """Optional upcall: serialize the view for a checkpoint record."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement checkpoints"
        )

    def load_checkpoint(self, state: bytes) -> None:
        """Optional upcall: replace the view with checkpointed state."""
        raise NotImplementedError(
            f"{type(self).__name__} does not implement checkpoints"
        )

    def get_checkpoint_delta(self, keys) -> bytes:
        """Optional upcall: serialize only the sub-state behind *keys*.

        *keys* is the set of fine-grained version keys the runtime saw
        change since this object's last checkpoint. A read-only
        accessor: implementing it (together with
        :meth:`load_checkpoint_delta`) opts the object into incremental
        :class:`~repro.tango.records.DeltaCheckpointRecord` emission.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement delta checkpoints"
        )

    def load_checkpoint_delta(self, state: bytes) -> None:
        """Optional upcall: fold one delta-checkpoint state into the view.

        Called after :meth:`load_checkpoint` installed the chain's full
        base, once per delta record oldest-first.
        """
        raise NotImplementedError(
            f"{type(self).__name__} does not implement delta checkpoints"
        )

    # -- helpers for subclasses --------------------------------------------------

    @property
    def is_hosted(self) -> bool:
        """True if this client maintains a local view of the object."""
        return self._hosted

    def _update(self, payload: bytes, key: Optional[bytes] = None) -> None:
        """Mutator plumbing: send an opaque update record to the runtime."""
        self._runtime.update_helper(self.oid, payload, key=key)

    def _op(self, name: str, *fields: Any, key: Optional[bytes] = None) -> None:
        """Mutator plumbing: send op *name* of ``OPS`` as an update."""
        self._runtime.update_helper(self.oid, self.OPS.encode(name, fields), key=key)

    def sync_to(self, offset: int) -> None:
        """Play this view forward only up to log position *offset*.

        Time travel (section 3.1, "History"): a fresh view synced to a
        prefix of the history is the object's state as of that offset.
        Inspect it with :meth:`get_checkpoint` (calling accessors would
        re-sync the view to the current tail). Syncing several objects
        to the same offset yields a consistent cross-object snapshot
        (section 3.2) — the basis for coordinated rollback and remote
        mirroring.
        """
        if not self._hosted:
            raise TangoError(
                f"object {self.oid} has no local view on this client"
            )
        self._runtime.query_helper(self.oid, upto=offset)

    def _query(self, key: Optional[bytes] = None) -> None:
        """Accessor plumbing: synchronize the view (or record a TX read).

        Accessors call this first and then return "an arbitrary function
        over the state of the object".
        """
        if not self._hosted:
            raise TangoError(
                f"object {self.oid} has no local view on this client; "
                f"accessors require host_view=True"
            )
        self._runtime.query_helper(self.oid, key=key)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        mode = "hosted" if self._hosted else "write-only"
        return f"<{type(self).__name__} oid={self.oid} {mode}>"
