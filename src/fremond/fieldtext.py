"""Snapshot record text from the standard library alone, in-process or in a process of its own.

``write_state`` is the one record formatter (``grid.write_snapshots`` runs it). A ``Writer`` runs this module as
``python -I -S fieldtext.py PATH HEAD CELLS``, which writes the snapshot file PATH from the segments on its stdin,
each a state count k in 8 bytes, then k times, k * CELLS temperatures and k * CELLS phases as native float64; an
OSError ends it with its text on stderr and exit status 1.
"""

import subprocess
import sys


def write_state(write, head: str, t: float, records) -> None:
    """One state's records in order, each its header ``<head> t=<repr of t>`` and its values, eight reprs a line."""
    header = f"{head} t={t!r}\n"
    for flat in records:
        write(header)
        for i in range(0, len(flat), 8):
            write(" ".join(map(repr, flat[i : i + 8])) + "\n")


class Writer:
    """This module as a process writing the snapshot file ``path`` (headers ``head``, ``cells`` values a record)."""

    def __init__(self, path, head: str, cells: int):
        # its own session: a Ctrl-C stops only the sender, whose ``close`` then lets this finish and reaps it
        self.proc = subprocess.Popen([sys.executable, "-I", "-S", __file__, str(path), head, str(cells)],
                                     stdin=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True)

    def send(self, times, theta, phi) -> None:
        """One segment: its times and its states' temperatures and phases, each C-contiguous float64."""
        for block in (len(times).to_bytes(8, sys.byteorder), times, theta, phi):
            self.proc.stdin.write(block)

    def close(self) -> None:
        """Close its stdin and wait; what it reported (its last stderr line) or its nonzero exit is an OSError."""
        lines = self.proc.communicate()[1].decode(errors="replace").splitlines()
        if self.proc.returncode:
            raise OSError(lines[-1] if lines else f"the snapshot writer exited with status {self.proc.returncode}")


if __name__ == "__main__":
    path, head, cells = sys.argv[1], sys.argv[2], int(sys.argv[3])
    read = sys.stdin.buffer.read
    try:
        with open(path, "w") as fh:
            while count := read(8):  # a whole segment is read before it is formatted, so the sender is not held up
                k = int.from_bytes(count, sys.byteorder)
                t, theta, phi = (memoryview(read(8 * k * m)).cast("d").tolist() for m in (1, cells, cells))
                for j in range(k):
                    cut = slice(j * cells, (j + 1) * cells)
                    write_state(fh.write, head, t[j], (theta[cut], phi[cut]))
    except OSError as exc:
        sys.exit(str(exc))
