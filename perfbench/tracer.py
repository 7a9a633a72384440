"""In-memory spans around calls into torus_spectra, recorded from outside it.

Nothing in the library is edited: `Tracer.patch` rebinds a public function
in every torus_spectra module that refers to it (so calls made by `cli` and
by other library modules are traced too), and `Tracer.patch_method` does the
same for a class attribute. Each span records its name, start, end, the
span that was open when it began (its parent) and the run id. Spans opened
inside pool worker processes are not seen.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        # one list per span: [id, name, start, end, parent, counts]
        self.spans: list[list] = []
        self._open: list[int] = []

    def _call(self, name: str, fn, count, args, kwargs):
        sid = len(self.spans)
        rec = [sid, name, time.perf_counter(), None, self._open[-1] if self._open else None, None]
        self.spans.append(rec)
        self._open.append(sid)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()
        if count is not None:
            rec[5] = count(out)
        return out

    def wrap(self, fn, name: str, count=None):
        """`fn` with a span around each call; `count(result)` gives the span's counts."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(name, fn, count, args, kwargs)

        return traced

    def patch(self, module, attr: str, name: str, count=None) -> None:
        """Trace `module.attr` and every torus_spectra module-level reference to it."""
        self.rebind(module, attr, self.wrap(getattr(module, attr), name, count))

    @staticmethod
    def rebind(module, attr: str, new) -> None:
        """Replace `module.attr` in every torus_spectra module that refers to it."""
        original = getattr(module, attr)
        for key, mod in list(sys.modules.items()):
            if (key == "torus_spectra" or key.startswith("torus_spectra.")) \
                    and getattr(mod, attr, None) is original:
                setattr(mod, attr, new)

    def patch_method(self, cls, attr: str, name: str) -> None:
        setattr(cls, attr, self.wrap(getattr(cls, attr), name))

    # -- aggregation ---------------------------------------------------------

    def named(self, name: str) -> list[list]:
        return [s for s in self.spans if s[1] == name]

    def busy_s(self, name: str) -> float:
        return sum(s[3] - s[2] for s in self.named(name))

    def self_times(self) -> dict[str, float]:
        """Per span name: summed duration minus the time covered by child spans."""
        child: dict[int, float] = {}
        for sid, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict[str, float] = {}
        for sid, name, start, end, _, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start) - child.get(sid, 0.0)
        return out

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for sid, name, start, end, parent, counts in self.spans:
                row = {"run": self.run_id, "id": sid, "name": name, "start": start,
                       "end": end, "parent": parent}
                if counts is not None:
                    row["counts"] = counts
                fh.write(json.dumps(row) + "\n")
