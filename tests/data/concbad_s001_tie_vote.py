"""Seeded defect: S001 — one guarded write, one unguarded: a tie claims."""
import threading

class Buffer:
    def __init__(self):
        self._lock = threading.Lock()
        self._rows = []

    def append(self, row):
        with self._lock:
            self._rows = self._rows + [row]

    def clear(self):
        self._rows = []
