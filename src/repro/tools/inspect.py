"""Log inspection: dump, summarize, and fsck a shared log.

Operators of a log-structured system live and die by their inspection
tools. This module provides three, all read-only:

- :func:`dump_log` — decode every entry (stream membership, record
  kinds, transaction ids) into plain dicts;
- :func:`stream_summary` — per-stream statistics;
- :func:`check_log` — an fsck: verifies backpointer integrity (every
  header's pointers land on earlier entries of the same stream),
  transaction completeness (no speculative updates without a commit, no
  commit awaiting a decision that never arrived), and hole accounting.

:func:`dump_log` and :func:`stream_summary` name an object's checkpoint
stream ``ckpt:<oid>`` (:func:`stream_label`) and every other stream by
its integer id.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.corfu.cluster import CorfuCluster
from repro.corfu.entry import NO_BACKPOINTER, LogEntry
from repro.errors import TrimmedError, UnwrittenError
from repro.tango.records import (
    CheckpointRecord,
    CommitRecord,
    DecisionRecord,
    UpdateRecord,
    checkpointed_oid,
    decode_records,
)

#: How dump_log and stream_summary name a stream.
StreamLabel = Union[int, str]


def stream_label(stream_id: int) -> StreamLabel:
    """``ckpt:<oid>`` for object *oid*'s checkpoint stream, else the id."""
    oid = checkpointed_oid(stream_id)
    return stream_id if oid is None else f"ckpt:{oid}"


def _read_entries(cluster: CorfuCluster) -> List[Tuple[int, Optional[LogEntry], str]]:
    """(offset, entry-or-None, state) for every offset below the tail.

    State is one of ``ok``, ``junk``, ``hole``, ``trimmed``.
    """
    client = cluster.client()
    tail = client.check(fast=False)
    out: List[Tuple[int, Optional[LogEntry], str]] = []
    for offset in range(tail):
        try:
            entry = client.read(offset)
        except UnwrittenError:
            out.append((offset, None, "hole"))
            continue
        except TrimmedError:
            out.append((offset, None, "trimmed"))
            continue
        out.append((offset, entry, "junk" if entry.is_junk else "ok"))
    return out


def dump_log(cluster: CorfuCluster, decode_payloads: bool = True) -> List[dict]:
    """Decode the whole log into one dict per offset."""
    rows = []
    for offset, entry, state in _read_entries(cluster):
        row: dict = {"offset": offset, "state": state}
        if entry is not None and not entry.is_junk:
            row["streams"] = [stream_label(sid) for sid in entry.stream_ids()]
            row["payload_bytes"] = len(entry.payload)
            if decode_payloads:
                try:
                    records = decode_records(entry.payload)
                # fsck must survive arbitrarily corrupt payloads; the
                # failure is reported in the row, not swallowed.
                except Exception:  # tangolint: disable=TL006
                    row["records"] = ["<undecodable>"]
                else:
                    row["records"] = [_describe(r) for r in records]
        rows.append(row)
    return rows


def _describe(record) -> str:
    if isinstance(record, UpdateRecord):
        kind = "speculative-update" if record.is_speculative else "update"
        key = f" key={record.key!r}" if record.key is not None else ""
        return f"{kind} oid={record.oid}{key} ({len(record.payload)}B)"
    if isinstance(record, CommitRecord):
        flags = []
        if record.decision_expected:
            flags.append("decision-expected")
        if record.forced_abort:
            flags.append("forced-abort")
        suffix = f" [{','.join(flags)}]" if flags else ""
        return (
            f"commit tx={record.tx_id} reads={list(record.read_oids())} "
            f"writes={list(record.write_oids)}{suffix}"
        )
    if isinstance(record, DecisionRecord):
        verdict = "commit" if record.committed else "abort"
        return f"decision tx={record.tx_id} -> {verdict}"
    if isinstance(record, CheckpointRecord):
        return f"checkpoint oid={record.oid} covers={record.covers_offset}"
    return type(record).__name__


def format_dump(rows: List[dict]) -> str:
    """Human-readable rendering of :func:`dump_log` output."""
    lines = []
    for row in rows:
        if row["state"] != "ok":
            lines.append(f"{row['offset']:>8}  <{row['state']}>")
            continue
        streams = ",".join(str(s) for s in row.get("streams", []))
        lines.append(f"{row['offset']:>8}  streams=[{streams}]")
        for description in row.get("records", []):
            lines.append(f"          {description}")
    return "\n".join(lines)


def stream_summary(cluster: CorfuCluster) -> Dict[StreamLabel, dict]:
    """Per-stream statistics over the whole log, keyed by stream label."""
    summary: Dict[StreamLabel, dict] = {}
    for offset, entry, state in _read_entries(cluster):
        if entry is None or entry.is_junk:
            continue
        for sid in entry.stream_ids():
            stats = summary.setdefault(
                stream_label(sid),
                {"entries": 0, "first_offset": offset, "last_offset": offset,
                 "payload_bytes": 0},
            )
            stats["entries"] += 1
            stats["last_offset"] = offset
            stats["payload_bytes"] += len(entry.payload)
    return summary


@dataclass
class LogDoctorReport:
    """Result of :func:`check_log`."""

    tail: int = 0
    entries: int = 0
    holes: List[int] = field(default_factory=list)
    junk: List[int] = field(default_factory=list)
    trimmed: int = 0
    #: (offset, stream, pointer) triples whose pointer is wrong.
    bad_backpointers: List[Tuple[int, int, int]] = field(default_factory=list)
    #: tx ids with speculative updates but no commit record.
    orphaned_txes: List[int] = field(default_factory=list)
    #: tx ids whose commit expects a decision that never arrived.
    undecided_txes: List[int] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        """True when nothing needs operator attention.

        Holes are reported but do not make a log unhealthy by
        themselves (a client may still be writing); dangling
        transaction state and broken backpointers do.
        """
        return not (
            self.bad_backpointers or self.orphaned_txes or self.undecided_txes
        )


def check_log(cluster: CorfuCluster) -> LogDoctorReport:
    """fsck for a shared log: structural and transactional integrity."""
    report = LogDoctorReport()
    client = cluster.client()
    report.tail = client.check(fast=False)

    stream_offsets: Dict[int, Set[int]] = {}
    spec_txes: Set[int] = set()
    committed_txes: Set[int] = set()
    expecting_decision: Set[int] = set()
    decided: Set[int] = set()

    entries = _read_entries(cluster)
    # First pass: stream membership (needed to validate backpointers).
    for offset, entry, state in entries:
        if state == "hole":
            report.holes.append(offset)
        elif state == "junk":
            report.junk.append(offset)
        elif state == "trimmed":
            report.trimmed += 1
        if entry is None or entry.is_junk:
            continue
        report.entries += 1
        for sid in entry.stream_ids():
            stream_offsets.setdefault(sid, set()).add(offset)

    # Second pass: validate pointers and transaction lifecycles.
    for offset, entry, _state in entries:
        if entry is None or entry.is_junk:
            continue
        for header in entry.headers:
            members = stream_offsets.get(header.stream_id, set())
            for pointer in header.backpointers:
                if pointer == NO_BACKPOINTER:
                    continue
                if pointer >= offset or (
                    pointer not in members
                    # Pointers at reserved-then-crashed offsets are
                    # legal: the sequencer issued them in good faith.
                    and pointer not in report.holes
                    and pointer not in report.junk
                    and not _is_trimmed_offset(entries, pointer)
                ):
                    report.bad_backpointers.append(
                        (offset, header.stream_id, pointer)
                    )
        try:
            records = decode_records(entry.payload)
        # fsck tolerance: an undecodable payload is already reported by
        # the structural pass; the transactional pass just skips it.
        except Exception:  # tangolint: disable=TL006
            continue
        for record in records:
            if isinstance(record, UpdateRecord) and record.is_speculative:
                spec_txes.add(record.tx_id)
            elif isinstance(record, CommitRecord):
                committed_txes.add(record.tx_id)
                if record.decision_expected:
                    expecting_decision.add(record.tx_id)
            elif isinstance(record, DecisionRecord):
                decided.add(record.tx_id)

    report.orphaned_txes = sorted(spec_txes - committed_txes)
    report.undecided_txes = sorted(expecting_decision - decided)
    return report


def _is_trimmed_offset(entries, pointer: int) -> bool:
    for offset, _entry, state in entries:
        if offset == pointer:
            return state == "trimmed"
    return pointer < 0


def compact_all(runtime, directory) -> dict:
    """Checkpoint-and-forget every named object, then GC the log.

    The operational sweep an operator runs to reclaim space: every
    object bound in the directory is checkpointed (covering its full
    played history), its forget offset registered, the directory itself
    checkpointed last, and the log trimmed to the minimum cover.

    Only objects this runtime hosts can be checkpointed; unhosted names
    are skipped and reported (they keep pinning the log until their
    hosts compact them).

    Returns ``{"trimmed_below", "checkpointed", "skipped"}``.
    """
    directory._query()  # play the directory to the tail  # noqa: SLF001
    checkpointed = []
    skipped = []
    for name in directory.names():
        oid = directory.lookup(name)
        if oid is None or not runtime.is_hosted(oid):
            skipped.append(name)
            continue
        runtime.checkpoint_and_forget(oid, directory)
        checkpointed.append(name)
    runtime.checkpoint_and_forget(directory.oid, directory)
    # gc() is safe regardless: objects that never forgot (the skipped
    # ones) pin the log and the trim point stays 0.
    trimmed = directory.gc()
    return {
        "trimmed_below": trimmed,
        "checkpointed": checkpointed,
        "skipped": skipped,
    }
