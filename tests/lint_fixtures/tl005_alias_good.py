"""TL005 good: a batch checked once installs its pages; aliases only read."""


class BatchingUnit:
    def __init__(self, name):
        self._pages = {}
        self._trimmed_prefix = 0

    def write_many(self, writes):
        prefix, pages = self._trimmed_prefix, self._pages
        accepted = [(a, d) for a, d in writes if a >= prefix and a not in pages]
        self._pages.update(accepted)
        for address, data in accepted[:1]:
            self._pages[address] = data
        return accepted

    def read_many(self, addresses):
        prefix, pages = self._trimmed_prefix, self._pages
        return {a: pages.get(a) for a in addresses if a >= prefix}

    def trim(self, address):
        pages = self._pages
        pages.pop(address, None)
