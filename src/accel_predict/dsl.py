"""The `.dflow` mapping language.

Line-oriented, one statement per line:

    for m in 0..4 @DRAM          # temporal loop, tiling factor 4
    parallel-for e in 0..14 @NoC # spatial loop (NoC only)
    refresh W @GB                # refill the GB weight buffer here

Statement order is nesting order, outermost first; indentation is
cosmetic. Keywords and names are case-insensitive, `#` starts a comment.
Loop bounds are tiling factors, not original dimension extents.

A loop line parses to the nest's own `LoopLevel` and a refresh line to a
`RefreshStmt`; `lower` keeps the loops as they are (bound-1 loops
dropped) and assembles the nest through `loopnest.assemble_mapping`.
"""

from __future__ import annotations

import re
from typing import NamedTuple

from .errors import DslError
from .loopnest import LoopLevel, LoopNest, RefreshLocations, assemble_mapping
from .model import DIMS, KINDS, LEVELS_OUTER_FIRST, DataKind, LayerShape, MemLevel

# bound once: reading a member off an Enum class runs EnumType's slow hook
_DRAM, _GB, _NOC, _RF = LEVELS_OUTER_FIRST
_LEVELS = {"dram": _DRAM, "gb": _GB, "noc": _NOC, "rf": _RF}
_KINDS = {"i": DataKind.INPUT, "o": DataKind.OUTPUT, "w": DataKind.WEIGHT}


# Statements are named tuples, loops the nest's own LoopLevel: a document
# holds one per line, and a named tuple is built about twice as fast as a
# frozen dataclass.
class RefreshStmt(NamedTuple):
    kind: DataKind
    mem: MemLevel


class DslDocument(NamedTuple):
    statements: tuple

    def loops(self) -> tuple[LoopLevel, ...]:
        return tuple(s for s in self.statements if isinstance(s, LoopLevel))

    def refresh_set(self) -> frozenset:
        """(kind, mem, position) triples; position counts loop lines above."""
        out = []
        pos = 0
        for s in self.statements:
            if isinstance(s, LoopLevel):
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

    def __ne__(self, other):  # tuple's own != would compare statement order
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

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
# The keyword is spelt out per letter: IGNORECASE would also accept U+017F
# for "s", a spelling whose .lower() is not "refresh".
_REFRESH_RE = re.compile(
    r"^[Rr][Ee][Ff][Rr][Ee][Ss][Hh]\s+(?P<kind>\S+)\s*@\s*(?P<mem>\S+)\s*$"
)


def _error(
    message: str, lineno: int, indent: int, m: re.Match | None = None, group: str = ""
) -> DslError:
    """The error of a statement indented `indent` on line `lineno`, placed
    at the start of `group` in its match `m`, or at the statement's start."""
    return DslError(message, lineno, indent + (m.start(group) + 1 if m else 1))


def _loop(m: re.Match, lineno: int, indent: int) -> LoopLevel:
    """The loop of a line that matched _LOOP_RE; each field is checked."""
    kw, dim_name, in_kw, lo, bound_text, mem_name = m.groups()
    if in_kw.lower() != "in":
        raise _error(f"expected 'in', got {in_kw!r}", lineno, indent, m, "in")
    dim = dim_name.lower()
    if dim not in DIMS:
        raise _error(f"unknown dimension {dim_name!r}", lineno, indent, m, "dim")
    if lo != "0":
        raise _error("loop ranges start at 0", lineno, indent, m, "lo")
    try:
        bound = int(bound_text)
    except ValueError as exc:  # more digits than Python converts
        raise _error(f"loop bound of {len(bound_text)} digits is too long to read",
                     lineno, indent, m, "bound") from exc
    if bound < 1:
        raise _error("loop bound must be >= 1", lineno, indent, m, "bound")
    mem = _LEVELS.get(mem_name.lower())
    if mem is None:
        raise _error(f"unknown memory level {mem_name!r}", lineno, indent, m, "mem")
    spatial = kw.lower() == "parallel-for"
    if spatial and mem is not _NOC:
        raise _error("spatial loop only allowed at NoC", lineno, indent, m, "mem")
    return LoopLevel(dim, bound, mem, spatial)


def parse(text: str) -> DslDocument:
    statements = []
    seen_refresh: dict[tuple[DataKind, MemLevel], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line.split("#", 1)[0]
        # both statement patterns end in \s*$, so only the indent is stripped
        body = line.lstrip()
        if not body:
            continue
        indent = len(line) - len(body)
        m = _LOOP_RE.match(body)
        if m is not None:
            statements.append(_loop(m, lineno, indent))
            continue
        m = _REFRESH_RE.match(body)
        if m is None:  # the first word says which statement is malformed
            head = body.split(None, 1)[0].lower()
            if head in ("for", "parallel-for"):
                raise _error("malformed loop, expected 'for DIM in 0..N @LEVEL'",
                             lineno, indent)
            if head != "refresh":
                raise _error(f"expected 'for', 'parallel-for' or 'refresh', "
                             f"got {head!r}", lineno, indent)
            raise _error("malformed refresh, expected 'refresh KIND @LEVEL'",
                         lineno, indent)
        kind_name, mem_name = m.groups()
        kind = _KINDS.get(kind_name.lower())
        if kind is None:
            raise _error(f"unknown data kind {kind_name!r}", lineno, indent, m, "kind")
        mem = _LEVELS.get(mem_name.lower())
        if mem is None:
            raise _error(f"unknown memory level {mem_name!r}", lineno, indent, m, "mem")
        if mem is not _GB and mem is not _RF:
            raise _error("refresh must target GB or RF", lineno, indent, m, "mem")
        key = (kind, mem)
        if key in seen_refresh:
            raise _error(f"duplicate refresh for {kind} @{mem.label} "
                         f"(first on line {seen_refresh[key]})", lineno, indent)
        seen_refresh[key] = lineno
        statements.append(RefreshStmt(kind, mem))
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
        for mem, locs in ((_GB, refresh.gb), (_RF, refresh.rf)):
            for kind in KINDS:
                by_pos.setdefault(locs[kind], []).append(RefreshStmt(kind, mem))
    statements = []
    for i, lv in enumerate(nest.levels):
        statements.extend(by_pos.get(i, ()))
        statements.append(lv)
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
        if isinstance(stmt, RefreshStmt):
            locs[(stmt.kind, stmt.mem)] = len(levels)
        elif stmt.bound > 1:
            levels.append(stmt)
    return assemble_mapping(levels, layer, locs)
