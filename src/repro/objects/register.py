"""TangoRegister: the paper's Figure 3 object.

"A linearizable, highly available and persistent register" in a handful
of lines: the view is a single value, the apply upcall overwrites it,
the mutator funnels writes through ``update_helper`` and the accessor
synchronizes through ``query_helper``.
"""

from __future__ import annotations

import json
from typing import Any, List, Tuple

from repro.tango.object import TangoObject
from repro.util.encoding import OpTable


class TangoRegister(TangoObject):
    """A single replicated value (any JSON-serializable object)."""

    OPS = OpTable("write v")

    def __init__(self, runtime, oid: int, host_view: bool = True) -> None:
        self._state: Any = None
        super().__init__(runtime, oid, host_view=host_view)

    def _apply_write(self, v: Any, offset: int) -> None:
        self._state = v

    @classmethod
    def _legacy_op(cls, op: Any) -> Tuple[str, List[Any]]:
        return "write", [op]  # a legacy write is the bare JSON value

    def get_checkpoint(self) -> bytes:
        return json.dumps(self._state).encode("utf-8")

    def load_checkpoint(self, state: bytes) -> None:
        self._state = json.loads(state.decode("utf-8"))

    def write(self, value: Any) -> None:
        """Mutator: replace the register's value."""
        self._op("write", value)

    def read(self) -> Any:
        """Accessor: linearizable read of the current value."""
        self._query()
        return self._state
