"""REP005 bad fixture: pool-boundary class with unpicklable members."""

import threading


class _SegmentProgram:
    def __init__(self, layers, path):
        self.layers = layers
        self.select = lambda row: row[0]
        self.guard = threading.Lock()
        self.log = open(path, "a")
