"""Section 5 (text): sequencer failover and soft-state footprint.

Paper: "In an 18-node deployment, we are able to replace a failed
sequencer within 10 ms. Once a new sequencer comes up, it has to
reconstruct its backpointer state; in the current implementation, this
is done by scanning backward on the shared log. ... with K = 4
backpointers per stream, the space required is 4*8 bytes per stream, or
32MB for 1M streams."
"""

from repro.bench.experiments_functional import (
    sec5_failover_vs_checkpoint,
    sec5_sequencer_failover,
)


def test_sec5_sequencer_failover(benchmark, show):
    rows = benchmark.pedantic(
        sec5_sequencer_failover,
        kwargs={"entries": 300, "streams": 8},
        rounds=1,
        iterations=1,
    )
    show("Section 5: sequencer failover (functional layer)", rows,
         columns=("metric", "measured", "paper"))
    by = {r["metric"]: r["measured"] for r in rows}
    assert by["recovered state exact (tail + last-K per stream)"] is True
    assert by["sequencer soft state per stream (bytes)"] == 32


def test_sec5_failover_checkpoint_ablation(benchmark, show):
    """The paper's future-work optimization, measured: sequencer
    checkpoints turn the O(log) recovery scan into O(1)."""
    rows = benchmark.pedantic(
        sec5_failover_vs_checkpoint,
        kwargs={"log_sizes": (100, 400, 1600)},
        rounds=1,
        iterations=1,
    )
    show(
        "Section 5 ablation: failover scan with/without sequencer "
        "checkpoints (paper: planned optimization)",
        rows,
        columns=(
            "log_entries", "checkpointed", "scan_reads", "scan_rpcs", "failover_ms"
        ),
    )
    by = {(r["log_entries"], r["checkpointed"]): r["scan_reads"] for r in rows}
    rpcs = {(r["log_entries"], r["checkpointed"]): r["scan_rpcs"] for r in rows}
    # Without checkpoints the scan grows with the log...
    assert by[(1600, False)] > 10 * by[(100, False)]
    # ...with a checkpoint near the tail it is constant and tiny.
    assert by[(1600, True)] <= 8
    assert by[(1600, True)] <= by[(100, True)] + 4
    # The scan batches its reads: one RPC per 64 addresses of a set, not
    # one per entry (1,636 storage RPCs when each offset was read alone).
    assert rpcs[(1600, False)] <= 200
