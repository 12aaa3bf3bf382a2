"""REP005 good fixture: pool-boundary class keeps picklable state only."""


def _first_column(row):
    return row[0]


class _SegmentProgram:
    def __init__(self, layers, path):
        self.layers = layers
        self.select = _first_column  # module-level function pickles fine
        self.log_path = path  # reopen in the worker instead of shipping a handle
