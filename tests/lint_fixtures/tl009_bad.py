"""TL009 bad: a projection-aware client issuing unguarded RPCs.

This is the shape of the real ``CorfuClient.trim`` gap: every other
public operation ran the retry loop, but trim called straight through
to the chain, so a trim racing a reconfiguration leaked SealedError to
the application's GC driver.
"""


class Client:
    def __init__(self, cluster):
        self._cluster = cluster
        self._projection = cluster.projection
        self._chain = cluster.chain

    def refresh_projection(self):
        self._projection = self._cluster.projection

    def trim(self, offset):
        rset, address = self._projection.map_offset(offset)
        # No retry loop: SealedError / NodeDownError / RpcTimeout all
        # escape to the caller.
        self._chain.trim(rset, address, self._projection.epoch)

    def check(self):
        while True:
            try:
                return self._cluster.sequencer.query((), epoch=self._projection.epoch)
            except SealedError:
                # Handles the seal but not dead nodes or timeouts.
                self.refresh_projection()

    def read(self, offset):
        # Handed to the driver, so the body itself is not flagged: the
        # driver below is, for running it without handling timeouts.
        return self._retry(lambda: self._chain.read(offset, self._projection.epoch))

    def fill(self, offset):
        def body():
            self._chain.fill(offset, self._projection.epoch)

        # Called directly, never handed to the driver: the RPC inside
        # is unguarded.
        return body()

    def _retry(self, body):
        for _ in range(32):
            try:
                return body()
            except (SealedError, NodeDownError):
                self.refresh_projection()
        raise RuntimeError("retries exhausted")


class SealedError(Exception):
    pass


class NodeDownError(Exception):
    pass
