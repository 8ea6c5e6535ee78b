"""The one artifact writer: atomic file replacement, CSV text, and a run's
start time and the files it wrote (its manifest covers those, no others)."""

import os
import tempfile
import time

__all__ = ["atomic_write", "csv_text", "RunFiles"]


def atomic_write(path, data):
    """Write ``data`` (str or bytes) to ``path`` through a temp file and a
    rename, creating parent directories; readers never see a partial file."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, suffix=".tmp")
    try:
        with os.fdopen(fd, "wb" if isinstance(data, bytes) else "w") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows, comments=()):
    """CSV text: ``# `` comment lines, the header, then one line per row.
    Floats keep 17 significant digits (exact round trip); None is empty."""
    lines = [f"# {c}" for c in comments]
    lines.append(header)
    for row in rows:
        cells = []
        for v in row:
            if isinstance(v, float):
                cells.append(f"{v:.17g}")
            elif v is None:
                cells.append("")
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class RunFiles:
    """The files one run writes under its output directory, in write order,
    and its start, ``t0``, a ``time.perf_counter()`` reading.

    ``path(name)`` registers a file that a dedicated writer will produce;
    ``write(name, data)`` writes one atomically.
    """

    def __init__(self, out):
        self.out = out
        self.names = []
        self.t0 = time.perf_counter()

    def path(self, name):
        self.names.append(name)
        return os.path.join(self.out, name)

    def write(self, name, data):
        atomic_write(self.path(name), data)
