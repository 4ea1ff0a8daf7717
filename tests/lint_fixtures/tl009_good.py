"""TL009 good: public RPC entry points run the standard retry path."""


class SealedError(Exception):
    pass


class NodeDownError(Exception):
    pass


class RpcTimeout(Exception):
    pass


class Client:
    def __init__(self, cluster):
        self._cluster = cluster
        self._projection = cluster.projection
        self._chain = cluster.chain

    def refresh_projection(self):
        self._projection = self._cluster.projection

    def trim(self, offset):
        for attempt in range(32):
            rset, address = self._projection.map_offset(offset)
            try:
                self._chain.trim(rset, address, self._projection.epoch)
                return
            except SealedError:
                self.refresh_projection()
            except NodeDownError:
                self.refresh_projection()
            except RpcTimeout:
                self._backoff(attempt)
        raise RuntimeError("retries exhausted")

    def tail(self):
        # A broad protocol-base catch that reacts (rather than
        # swallowing silently) also satisfies the discipline.
        while True:
            try:
                return self._sequencer().query((), epoch=self._projection.epoch)
            except CorfuError:
                self.refresh_projection()

    def read(self, offset):
        # A body handed to the retry driver: the driver owns the
        # handling of every RPC inside it.
        def body():
            rset, address = self._projection.map_offset(offset)
            return self._chain.read(rset, address, self._projection.epoch)

        return self._retry(body)

    def fill(self, offset):
        return self._retry(lambda: self._chain.fill(offset, self._projection.epoch))

    def _retry(self, body, *args):
        # The retry driver runs every body it is handed, so it handles
        # all three protocol errors itself.
        for attempt in range(32):
            try:
                return body(*args)
            except (SealedError, NodeDownError):
                self.refresh_projection()
            except RpcTimeout:
                self._backoff(attempt)
        raise RuntimeError("retries exhausted")

    def _append_once(self, payload):
        # Private helpers may propagate: the public retry loop that
        # calls them owns the error handling.
        offset = self._sequencer().increment((), epoch=self._projection.epoch)
        rset, address = self._projection.map_offset(offset)
        self._chain.write(rset, address, payload, self._projection.epoch)
        return offset

    def _sequencer(self):
        return self._cluster.sequencer

    def _backoff(self, attempt):
        del attempt


class CorfuError(Exception):
    pass
