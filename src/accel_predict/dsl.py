"""The `.dflow` mapping language.

Line-oriented, one statement per line:

    for m in 0..4 @DRAM          # temporal loop, tiling factor 4
    parallel-for e in 0..14 @NoC # spatial loop (NoC only)
    refresh W @GB                # refill the GB weight buffer here

Statement order is nesting order, outermost first; indentation is
cosmetic. Keywords and names are case-insensitive, `#` starts a comment.
Loop bounds are tiling factors, not original dimension extents.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DslError, MappingError
from .loopnest import (
    LoopLevel,
    LoopNest,
    RefreshLocations,
    validate_structure,
)
from .model import DIMS, KINDS, DataKind, LayerShape, MemLevel

_LEVELS = {"dram": MemLevel.DRAM, "gb": MemLevel.GB, "noc": MemLevel.NOC, "rf": MemLevel.RF}
_KINDS = {"i": DataKind.INPUT, "o": DataKind.OUTPUT, "w": DataKind.WEIGHT}


# Statements are named tuples: a document holds one per line, and a
# named tuple is built about twice as fast as a frozen dataclass.
class LoopStmt(NamedTuple):
    dim: str
    bound: int
    mem: MemLevel
    spatial: bool


class RefreshStmt(NamedTuple):
    kind: DataKind
    mem: MemLevel


@dataclass(frozen=True)
class DslDocument:
    statements: tuple

    def loops(self) -> tuple[LoopStmt, ...]:
        return tuple(s for s in self.statements if isinstance(s, LoopStmt))

    def refresh_set(self) -> frozenset:
        """(kind, mem, position) triples; position counts loop lines above."""
        out = []
        pos = 0
        for s in self.statements:
            if isinstance(s, LoopStmt):
                pos += 1
            else:
                out.append((s.kind, s.mem, pos))
        return frozenset(out)

    def structure(self):
        return (self.loops(), self.refresh_set())

    def __eq__(self, other):
        if not isinstance(other, DslDocument):
            return NotImplemented
        return self.structure() == other.structure()

    def __hash__(self):
        return hash(self.structure())


_LOOP_RE = re.compile(
    r"""^(?P<kw>for|parallel-for)\s+
        (?P<dim>\S+)\s+
        (?P<in>\S+)\s+
        (?P<lo>\d+)\s*\.\.\s*(?P<bound>\d+)\s*
        @\s*(?P<mem>\S+)\s*$""",
    re.VERBOSE | re.IGNORECASE,
)
_REFRESH_RE = re.compile(
    r"^refresh\s+(?P<kind>\S+)\s*@\s*(?P<mem>\S+)\s*$", re.IGNORECASE
)


def _column(line: str, match: re.Match, group: str) -> int:
    return match.start(group) + 1


def _parse_loop(line: str, lineno: int, indent: int) -> LoopStmt:
    m = _LOOP_RE.match(line)
    if m is None:
        raise DslError(
            "malformed loop, expected 'for DIM in 0..N @LEVEL'",
            lineno,
            indent + 1,
        )
    kw, dim_name, in_kw, lo, bound_text, mem_name = m.groups()
    if in_kw.lower() != "in":
        raise DslError(
            f"expected 'in', got {in_kw!r}",
            lineno,
            indent + _column(line, m, "in"),
        )
    dim = dim_name.lower()
    if dim not in DIMS:
        raise DslError(
            f"unknown dimension {dim_name!r}",
            lineno,
            indent + _column(line, m, "dim"),
        )
    if lo != "0":
        raise DslError(
            "loop ranges start at 0",
            lineno,
            indent + _column(line, m, "lo"),
        )
    try:
        bound = int(bound_text)
    except ValueError as exc:  # more digits than Python converts
        raise DslError(
            f"loop bound of {len(bound_text)} digits is too long to read",
            lineno,
            indent + _column(line, m, "bound"),
        ) from exc
    if bound < 1:
        raise DslError(
            "loop bound must be >= 1",
            lineno,
            indent + _column(line, m, "bound"),
        )
    mem = _LEVELS.get(mem_name.lower())
    if mem is None:
        raise DslError(
            f"unknown memory level {mem_name!r}",
            lineno,
            indent + _column(line, m, "mem"),
        )
    spatial = kw.lower() == "parallel-for"
    if spatial and mem is not MemLevel.NOC:
        raise DslError(
            "spatial loop only allowed at NoC",
            lineno,
            indent + _column(line, m, "mem"),
        )
    return LoopStmt(dim, bound, mem, spatial)


def _parse_refresh(line: str, lineno: int, indent: int) -> RefreshStmt:
    m = _REFRESH_RE.match(line)
    if m is None:
        raise DslError(
            "malformed refresh, expected 'refresh KIND @LEVEL'",
            lineno,
            indent + 1,
        )
    kind_name = m.group("kind")
    kind = _KINDS.get(kind_name.lower())
    if kind is None:
        raise DslError(
            f"unknown data kind {kind_name!r}",
            lineno,
            indent + _column(line, m, "kind"),
        )
    mem_name = m.group("mem")
    mem = _LEVELS.get(mem_name.lower())
    if mem is None:
        raise DslError(
            f"unknown memory level {mem_name!r}",
            lineno,
            indent + _column(line, m, "mem"),
        )
    if mem not in (MemLevel.GB, MemLevel.RF):
        raise DslError(
            "refresh must target GB or RF",
            lineno,
            indent + _column(line, m, "mem"),
        )
    return RefreshStmt(kind, mem)


def parse(text: str) -> DslDocument:
    statements = []
    seen_refresh: dict[tuple[DataKind, MemLevel], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        head = stripped.split(None, 1)[0].lower()
        if head in ("for", "parallel-for"):
            statements.append(_parse_loop(stripped, lineno, indent))
        elif head == "refresh":
            stmt = _parse_refresh(stripped, lineno, indent)
            key = (stmt.kind, stmt.mem)
            if key in seen_refresh:
                raise DslError(
                    f"duplicate refresh for {stmt.kind} @{stmt.mem.label} "
                    f"(first on line {seen_refresh[key]})",
                    lineno,
                    indent + 1,
                )
            seen_refresh[key] = lineno
            statements.append(stmt)
        else:
            raise DslError(
                f"expected 'for', 'parallel-for' or 'refresh', got {head!r}",
                lineno,
                indent + 1,
            )
    return DslDocument(tuple(statements))


_KIND_ORDER = {k: i for i, k in enumerate(KINDS)}


def render_document(doc: DslDocument) -> str:
    """Canonical text: two-space indent per depth, refresh lines at the
    same position ordered outer level first, then I, O, W."""
    lines = []
    depth = 0
    pending: list[RefreshStmt] = []

    def flush():
        pending.sort(key=lambda s: (-s.mem, _KIND_ORDER[s.kind]))
        for s in pending:
            lines.append("  " * depth + f"refresh {s.kind} @{s.mem.label}")
        pending.clear()

    for stmt in doc.statements:
        if isinstance(stmt, RefreshStmt):
            pending.append(stmt)
            continue
        flush()
        kw = "parallel-for" if stmt.spatial else "for"
        lines.append(
            "  " * depth + f"{kw} {stmt.dim} in 0..{stmt.bound} @{stmt.mem.label}"
        )
        depth += 1
    flush()
    return "\n".join(lines) + "\n" if lines else ""


def document_from_ir(
    nest: LoopNest, refresh: RefreshLocations | None = None
) -> DslDocument:
    by_pos: dict[int, list[RefreshStmt]] = {}
    if refresh is not None:
        for mem in (MemLevel.GB, MemLevel.RF):
            for kind in KINDS:
                p = refresh.loc(kind, mem)
                by_pos.setdefault(p, []).append(RefreshStmt(kind, mem))
    statements = []
    for i, lv in enumerate(nest.levels):
        statements.extend(by_pos.get(i, ()))
        statements.append(LoopStmt(lv.dim, lv.bound, lv.mem, lv.spatial))
    statements.extend(by_pos.get(len(nest.levels), ()))
    return DslDocument(tuple(statements))


def render(nest: LoopNest, refresh: RefreshLocations | None = None) -> str:
    """Canonical text; all six refresh locations are written out when
    refresh points are given, none otherwise."""
    return render_document(document_from_ir(nest, refresh))


def fmt(text: str) -> str:
    """Reformat dataflow text canonically, keeping bound-1 loops.

    Idempotent: fmt(fmt(t)) == fmt(t).
    """
    return render_document(parse(text))


def lower(doc: DslDocument, layer: LayerShape) -> tuple[LoopNest, RefreshLocations]:
    """DslDocument -> (LoopNest, RefreshLocations) against a layer.

    Bound-1 loops vanish; omitted refreshes default to the top of their
    level's group. Raises MappingError when the result breaks nest rules
    (coverage, grouping, location ordering).
    """
    levels = []
    locs: dict[tuple[DataKind, MemLevel], int] = {}
    for stmt in doc.statements:
        if isinstance(stmt, LoopStmt):
            if stmt.bound > 1:
                levels.append(
                    LoopLevel(stmt.dim, stmt.bound, stmt.mem, stmt.spatial)
                )
        else:
            locs[(stmt.kind, stmt.mem)] = len(levels)
    nest = LoopNest(tuple(levels), layer)
    p_gb, _, p_rf = nest.starts
    refresh = RefreshLocations(
        gb={k: locs.get((k, MemLevel.GB), p_gb) for k in KINDS},
        rf={k: locs.get((k, MemLevel.RF), p_rf) for k in KINDS},
    )
    violations = validate_structure(nest, refresh)
    if violations:
        raise MappingError(violations)
    return nest, refresh
