"""In-memory spans around calls into accel_predict's public functions.

The tracer replaces each target function, wherever the package binds it
(its home module and every module that imported it by name), with a
wrapper that records a span: name, start, end, parent span and op id.
Spans live in flat arrays until the run ends, then go to a JSON Lines
file. Nothing under src/ is edited; `restore` puts the originals back.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from array import array

NO_PARENT = -1


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.op = array("q")
        self.ops: list = []
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def begin_op(self, meta) -> None:
        """Tag the spans that follow with a new op id; `meta` describes it."""
        self.op_id = len(self.ops)
        self.ops.append(meta)

    def _open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.op.append(self.op_id)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        traced.__wrapped__ = fn
        return traced

    def install(self, package: str, targets: dict[str, tuple[str, ...]]) -> list[str]:
        """Wrap `package.<module>.<function>` for every target everywhere
        the package binds it. Returns the targets that do not exist."""
        modules = [
            m
            for key, m in list(sys.modules.items())
            if m is not None and (key == package or key.startswith(package + "."))
        ]
        absent = []
        for mod_name, functions in targets.items():
            home = sys.modules.get(f"{package}.{mod_name}")
            for fn_name in functions:
                original = getattr(home, fn_name, None)
                if original is None:
                    absent.append(f"{mod_name}.{fn_name}")
                    continue
                wrapper = self.wrap(f"{mod_name}.{fn_name}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        return absent

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def spans_named(self, name: str) -> list[int]:
        nid = self._name_ids.get(name)
        if nid is None:
            return []
        return [i for i, n in enumerate(self.name_id) if n == nid]

    def name_of(self, idx: int) -> str:
        return self.names[self.name_id[idx]]

    def duration_ns(self, idx: int) -> int:
        return self.end[idx] - self.start[idx]

    def self_ns(self, indices: list[int]) -> int:
        """Summed duration of `indices` minus their direct children."""
        wanted = set(indices)
        total = sum(self.duration_ns(i) for i in indices)
        for i, p in enumerate(self.parent):
            if p in wanted:
                total -= self.duration_ns(i)
        return total

    def write(self, path, header: dict) -> None:
        """One JSON header line, then [name, start_ns, end_ns, parent, op]
        per span; span names are plain identifiers, so no escaping."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f'["{names[self.name_id[i]]}",{self.start[i]},'
                    f"{self.end[i]},{self.parent[i]},{self.op[i]}]\n"
                )
