"""TL005 bad: pages stored through aliases and dict methods."""


class AliasingUnit:
    def __init__(self, name):
        self._pages = {}
        self._trimmed_prefix = 0

    def restore(self, address, data):
        pages = self._pages
        pages[address] = data

    def merge(self, batch):
        # The tuple-unpacked alias a batched read uses for speed.
        prefix, pages = self._trimmed_prefix, self._pages
        for address, data in batch:
            if address >= prefix:
                pages[address] = data

    def adopt(self, batch):
        self._pages.update(batch)

    def adopt_through_alias(self, batch):
        pages = self._pages
        pages.update(batch)

    def fill(self, address, data):
        self._pages.setdefault(address, data)
