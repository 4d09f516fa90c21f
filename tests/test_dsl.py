"""Dataflow text language: grammar, positions, canonical printing."""

import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from accel_predict import (
    DataKind,
    DslError,
    LayerShape,
    LoopLevel,
    MappingError,
    MemLevel,
    build_nest,
    fmt,
    lower,
    parse,
    refresh_plan,
    render,
    render_document,
)
from accel_predict.dsl import RefreshStmt, DslDocument
from accel_predict.model import DIMS

I, O, W = DataKind.INPUT, DataKind.OUTPUT, DataKind.WEIGHT
DRAM, GB, NOC, RF = MemLevel.DRAM, MemLevel.GB, MemLevel.NOC, MemLevel.RF


class TestParse:
    def test_two_loops_with_refresh_between(self):
        doc = parse("for m in 0..2 @DRAM\nrefresh W @GB\nfor c in 0..2 @GB")
        assert doc.loops() == (
            LoopLevel("m", 2, DRAM, False), LoopLevel("c", 2, GB, False)
        )
        assert doc.refresh_set() == {(W, GB, 1)}

    def test_unknown_dimension(self):
        with pytest.raises(DslError) as exc:
            parse("for x in 0..2 @DRAM")
        assert "unknown dimension 'x'" in str(exc.value)
        assert exc.value.line == 1
        assert exc.value.column == 5

    def test_parallel_for_outside_noc(self):
        with pytest.raises(DslError) as exc:
            parse("parallel-for m in 0..4 @GB")
        assert "spatial loop only allowed at NoC" in str(exc.value)

    def test_parallel_for_at_noc(self):
        doc = parse("parallel-for e in 0..14 @NoC")
        assert doc.loops()[0].spatial

    def test_keywords_and_levels_case_insensitive(self):
        doc = parse("FOR M IN 0..2 @dram\nRefresh w @gb")
        assert doc.loops()[0] == LoopLevel("m", 2, DRAM, False)
        assert doc.refresh_set() == {(W, GB, 1)}

    def test_comments_and_blank_lines_ignored(self):
        text = """
        # outer tiling
        for m in 0..2 @DRAM   # loop over output channel blocks

        refresh W @GB
        """
        doc = parse(text)
        assert len(doc.statements) == 2

    def test_indentation_is_cosmetic(self):
        flat = parse("for m in 0..2 @DRAM\nfor c in 0..3 @GB")
        indented = parse("for m in 0..2 @DRAM\n      for c in 0..3 @GB")
        assert flat == indented

    def test_duplicate_refresh_rejected(self):
        with pytest.raises(DslError) as exc:
            parse("refresh W @GB\nfor m in 0..2 @GB\nrefresh W @GB")
        assert exc.value.line == 3
        assert "first on line 1" in str(exc.value)

    def test_nonzero_range_start_rejected(self):
        with pytest.raises(DslError) as exc:
            parse("for m in 1..4 @DRAM")
        assert "start at 0" in str(exc.value)

    def test_refresh_must_target_buffer_levels(self):
        with pytest.raises(DslError) as exc:
            parse("refresh W @DRAM")
        assert "GB or RF" in str(exc.value)

    def test_unknown_statement(self):
        with pytest.raises(DslError) as exc:
            parse("for m in 0..2 @DRAM\nwhile c in 0..2 @GB")
        assert exc.value.line == 2

    def test_error_line_tracks_typo_position(self):
        good = "for m in 0..2 @DRAM"
        for k in range(2, 6):
            lines = [good] * 6
            lines[k - 1] = "for m in 0..2 @L1"
            with pytest.raises(DslError) as exc:
                parse("\n".join(lines))
            assert exc.value.line == k
            assert "unknown memory level" in str(exc.value)

    def test_error_column_points_at_token(self):
        with pytest.raises(DslError) as exc:
            parse("  for m in 0..2 @L1")
        # "@L1" level token starts at column 18 (1-based, indent counted)
        assert exc.value.column == 18


class TestRender:
    def test_single_loop_exact_text(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        nest = build_nest(layer, {DRAM: {"m": 2}})
        assert render(nest) == "for m in 0..2 @DRAM\n"

    def test_two_space_indent_per_depth(self):
        text = "for m in 0..2 @DRAM\nfor c in 0..2 @GB\nfor e in 0..2 @RF"
        assert fmt(text) == (
            "for m in 0..2 @DRAM\n"
            "  for c in 0..2 @GB\n"
            "    for e in 0..2 @RF\n"
        )

    def test_lowered_defaults_are_materialized(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest, refresh = lower(
            parse("for m in 0..2 @GB\nfor c in 0..2 @RF"), layer
        )
        text = render(nest, refresh)
        assert text.count("refresh") == 6
        # GB refreshes default above the GB group, RF above the RF group
        assert text == (
            "refresh I @GB\n"
            "refresh O @GB\n"
            "refresh W @GB\n"
            "for m in 0..2 @GB\n"
            "  refresh I @RF\n"
            "  refresh O @RF\n"
            "  refresh W @RF\n"
            "  for c in 0..2 @RF\n"
        )

    def test_same_position_refreshes_sorted_gb_first_then_kind(self):
        text = (
            "for m in 0..2 @GB\n"
            "refresh W @RF\nrefresh O @GB\nrefresh I @RF\n"
            "for c in 0..2 @RF"
        )
        assert fmt(text) == (
            "for m in 0..2 @GB\n"
            "  refresh O @GB\n"
            "  refresh I @RF\n"
            "  refresh W @RF\n"
            "  for c in 0..2 @RF\n"
        )

    def test_fmt_idempotent(self):
        text = "FOR M IN 0..2 @dram # hi\n   for c in 0..1 @RF"
        once = fmt(text)
        assert fmt(once) == once
        assert "for c in 0..1 @RF" in once  # bound-1 loops preserved


class TestLower:
    def test_bound_one_loops_dropped(self):
        layer = LayerShape(m=2, c=1, r=1, s=1, e=1, f=1)
        nest, _ = lower(
            parse("for c in 0..1 @DRAM\nfor m in 0..2 @GB"), layer
        )
        assert [lv.dim for lv in nest.levels] == ["m"]

    def test_worked_example_matches_hand_built_nest(self):
        layer = LayerShape(m=4, c=2, r=1, s=1, e=1, f=1)
        text = (
            "for m in 0..2 @DRAM\n"
            "refresh W @GB\n"
            "for c in 0..2 @GB\n"
            "for m in 0..2 @RF\n"
        )
        nest, refresh = lower(parse(text), layer)
        plan = refresh_plan(nest, refresh)
        assert plan.n_ref[(W, GB)] == 2
        assert plan.v_ref[(W, GB)] == 4

    def test_omitted_refreshes_default_to_group_tops(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        nest, refresh = lower(
            parse("for m in 0..2 @GB\nfor c in 0..2 @RF"), layer
        )
        for kind in DataKind:
            assert refresh.loc(kind, GB) == 0
            assert refresh.loc(kind, RF) == 1

    def test_coverage_errors_forwarded(self):
        layer = LayerShape(m=8, c=1, r=1, s=1, e=1, f=1)
        with pytest.raises(MappingError):
            lower(parse("for m in 0..2 @GB"), layer)

    def test_group_order_errors_forwarded(self):
        layer = LayerShape(m=2, c=2, r=1, s=1, e=1, f=1)
        with pytest.raises(MappingError):
            lower(parse("for m in 0..2 @GB\nfor c in 0..2 @DRAM"), layer)

    def test_all_dims_at_rf(self):
        layer = LayerShape(m=2, c=2, r=2, s=2, e=2, f=2)
        text = "\n".join(f"for {d} in 0..2 @RF" for d in DIMS)
        nest, refresh = lower(parse(text), layer)
        assert len(nest.levels) == 6
        assert all(lv.mem is RF for lv in nest.levels)


class TestFullMappingRoundTrip:
    def test_twenty_four_loop_document(self):
        # the classic four-level six-dim form, bound-1 loops included
        tiling = {
            DRAM: {"m": 1, "c": 3, "r": 1, "s": 1, "e": 4, "f": 1},
            GB: {"m": 6, "c": 1, "r": 1, "s": 1, "e": 1, "f": 55},
            NOC: {"m": 1, "c": 1, "r": 11, "s": 1, "e": 14, "f": 1},
            RF: {"m": 16, "c": 1, "r": 1, "s": 11, "e": 1, "f": 1},
        }
        lines = []
        for mem in (DRAM, GB, NOC, RF):
            kw = "parallel-for" if mem is NOC else "for"
            for d in DIMS:
                lines.append(f"{kw} {d} in 0..{tiling[mem][d]} @{mem.label}")
        text = "\n".join(lines)
        doc = parse(text)
        assert len(doc.loops()) == 24
        assert parse(render_document(doc)) == doc

        layer = LayerShape(m=96, c=3, r=11, s=11, e=55, f=55, stride=4)
        nest, refresh = lower(doc, layer)
        assert len(nest.levels) == 8  # bound-1 loops gone
        assert math.prod(lv.bound for lv in nest.levels if lv.dim == "e") == 56
        # text -> IR -> text -> IR is a fixed point
        again, refresh2 = lower(parse(render(nest, refresh)), layer)
        assert again.levels == nest.levels
        assert refresh2 == refresh


# --------------------------------------------------- round-trip property


_KIND_RANK = {I: 0, O: 1, W: 2}


@st.composite
def documents(draw):
    """Documents already in canonical statement order, so that parsing the
    canonical rendering reproduces them exactly."""
    n = draw(st.integers(0, 8))
    loops = []
    for _ in range(n):
        mem = draw(st.sampled_from(list(MemLevel)))
        spatial = mem is NOC and draw(st.booleans())
        loops.append(LoopLevel(
            draw(st.sampled_from(DIMS)),
            draw(st.integers(1, 9)),
            mem,
            spatial,
        ))
    combos = [(k, mem) for k in DataKind for mem in (GB, RF)]
    chosen = draw(st.lists(st.sampled_from(combos), unique=True, max_size=6))
    at_pos: dict[int, list] = {}
    for kind, mem in chosen:
        pos = draw(st.integers(0, n))
        at_pos.setdefault(pos, []).append(RefreshStmt(kind, mem))
    statements: list = []
    for pos in range(n + 1):
        group = sorted(
            at_pos.get(pos, ()), key=lambda s: (-s.mem, _KIND_RANK[s.kind])
        )
        statements.extend(group)
        if pos < n:
            statements.append(loops[pos])
    return DslDocument(tuple(statements))


@settings(max_examples=200, deadline=None)
@given(documents())
def test_parse_render_round_trip(doc):
    assert parse(render_document(doc)) == doc


@settings(max_examples=100, deadline=None)
@given(documents())
def test_render_is_a_fixed_point(doc):
    text = render_document(doc)
    assert fmt(text) == text


# ----------------------------------------- parse against its former self
#
# The parser before it matched the loop pattern first, kept verbatim (with
# its patterns, error helper and name tables) as the reference: every
# document must give the same statements, or the same DslError text, line
# and column.

_REF_LEVELS = {"dram": DRAM, "gb": GB, "noc": NOC, "rf": RF}
_REF_KINDS = {"i": I, "o": O, "w": W}
_REF_LOOP_RE = re.compile(
    r"""^(?P<kw>for|parallel-for)\s+
        (?P<dim>\S+)\s+
        (?P<in>\S+)\s+
        (?P<lo>\d+)\s*\.\.\s*(?P<bound>\d+)\s*
        @\s*(?P<mem>\S+)\s*$""",
    re.VERBOSE | re.IGNORECASE,
)
_REF_REFRESH_RE = re.compile(
    r"^refresh\s+(?P<kind>\S+)\s*@\s*(?P<mem>\S+)\s*$", re.IGNORECASE
)


def _ref_error(message, lineno, indent, m=None, group=""):
    return DslError(message, lineno, indent + (m.start(group) + 1 if m else 1))


def _ref_parse_loop(line, lineno, indent):
    m = _REF_LOOP_RE.match(line)
    if m is None:
        raise _ref_error("malformed loop, expected 'for DIM in 0..N @LEVEL'",
                         lineno, indent)
    kw, dim_name, in_kw, lo, bound_text, mem_name = m.groups()
    if in_kw.lower() != "in":
        raise _ref_error(f"expected 'in', got {in_kw!r}", lineno, indent, m, "in")
    dim = dim_name.lower()
    if dim not in DIMS:
        raise _ref_error(f"unknown dimension {dim_name!r}", lineno, indent, m, "dim")
    if lo != "0":
        raise _ref_error("loop ranges start at 0", lineno, indent, m, "lo")
    try:
        bound = int(bound_text)
    except ValueError as exc:  # more digits than Python converts
        raise _ref_error(f"loop bound of {len(bound_text)} digits is too long to read",
                         lineno, indent, m, "bound") from exc
    if bound < 1:
        raise _ref_error("loop bound must be >= 1", lineno, indent, m, "bound")
    mem = _REF_LEVELS.get(mem_name.lower())
    if mem is None:
        raise _ref_error(f"unknown memory level {mem_name!r}", lineno, indent, m, "mem")
    spatial = kw.lower() == "parallel-for"
    if spatial and mem is not NOC:
        raise _ref_error("spatial loop only allowed at NoC", lineno, indent, m, "mem")
    return LoopLevel(dim, bound, mem, spatial)


def _ref_parse_refresh(line, lineno, indent):
    m = _REF_REFRESH_RE.match(line)
    if m is None:
        raise _ref_error("malformed refresh, expected 'refresh KIND @LEVEL'",
                         lineno, indent)
    kind_name, mem_name = m.groups()
    kind = _REF_KINDS.get(kind_name.lower())
    if kind is None:
        raise _ref_error(f"unknown data kind {kind_name!r}", lineno, indent, m, "kind")
    mem = _REF_LEVELS.get(mem_name.lower())
    if mem is None:
        raise _ref_error(f"unknown memory level {mem_name!r}", lineno, indent, m, "mem")
    if mem is not GB and mem is not RF:
        raise _ref_error("refresh must target GB or RF", lineno, indent, m, "mem")
    return RefreshStmt(kind, mem)


def _ref_parse(text):
    statements = []
    seen_refresh = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0]
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())
        head = stripped.split(None, 1)[0].lower()
        if head in ("for", "parallel-for"):
            statements.append(_ref_parse_loop(stripped, lineno, indent))
        elif head == "refresh":
            stmt = _ref_parse_refresh(stripped, lineno, indent)
            key = (stmt.kind, stmt.mem)
            if key in seen_refresh:
                raise _ref_error(f"duplicate refresh for {stmt.kind} @{stmt.mem.label} "
                                 f"(first on line {seen_refresh[key]})", lineno, indent)
            seen_refresh[key] = lineno
            statements.append(stmt)
        else:
            raise _ref_error(f"expected 'for', 'parallel-for' or 'refresh', got {head!r}",
                             lineno, indent)
    return DslDocument(tuple(statements))


def _parse_outcome(parse_text, text):
    """The statements (each with its type) parse_text gives, or its error."""
    try:
        doc = parse_text(text)
    except DslError as exc:
        return "DslError", str(exc), exc.line, exc.column
    return [(type(s).__name__, *s) for s in doc.statements]


# Each slot of a statement draws a well-formed token, or, for at most one
# slot per line, a token that goes wrong. Whitespace includes tabs and
# Unicode spaces (no-break, em, ideographic) that str.split, strip and the
# patterns' \s all treat as whitespace; \x0b, \x1c and the line separator
# U+2028 also end a line for splitlines.
_TOKENS = {  # slot: (well-formed, wrong)
    "indent": (["", "", "  ", "\t", "\u00a0 ", "\u3000"], ["\x0b", "\u2028 "]),
    "space": ([" ", " ", "  ", "\t", "\u00a0", "\u2003", "\u3000"],
              ["", "\x0b", "\x1c", "\u2028"]),
    "for": (["for", "for", "FOR", "fOr"], ["forx", "fo r", "f\u00f6r", "parallel-for"]),
    "parallel-for": (["parallel-for", "Parallel-For", "PARALLEL-FOR"],
                     ["parallel_for", "parallel-", "parallel for", "for"]),
    "dim": ([*DIMS, "M", "E"], ["x", "mm", "\u00e9", "\u017f", "0", "m#"]),
    "in": (["in", "IN", "In"], ["on", "\u0131n", "\u0130n", "in:", ""]),
    "lo": (["0"], ["00", "1", "000", "-0", "x", ""]),
    "dots": (["..", " .. ", "\t..\t"], ["...", ".", ". ."]),
    "bound": (["4", "2", "13", "1", "007"], ["0", "00", "9" * 5000, "12a", ""]),
    "at": (["@", "@ ", " @"], ["", "@@", "#@"]),
    "level": (["DRAM", "GB", "NoC", "RF", "dram", "gb", "noc", "rf", "Gb"],
              ["L1", "DRAM!", "", "gb x", "R F"]),
    "refresh": (["refresh", "REFRESH", "Refresh"],
                ["refre\u017fh", "refreshx", "refresh@", "re fresh"]),
    "kind": (["I", "O", "W", "i", "o", "w"], ["X", "IO", ""]),
    "buffer": (["GB", "RF", "gb", "rf", "Rf"], ["DRAM", "NoC", "L2", ""]),
    "noc": (["NoC", "noc", "NOC"], ["GB", "RF", "DRAM", "L1"]),
    "tail": (["", "", "  ", "\t", " # note", "#", "# for m in 0..2 @GB"],
             [" x", " @GB", " 0..2"]),
}
_STATEMENTS = {
    "loop": ("indent", "for", "space", "dim", "space", "in", "space", "lo",
             "dots", "bound", "space", "at", "level", "tail"),
    "spatial": ("indent", "parallel-for", "space", "dim", "space", "in", "space",
                "lo", "dots", "bound", "space", "at", "noc", "tail"),
    "refresh": ("indent", "refresh", "space", "kind", "space", "at", "buffer",
                "tail"),
    "blank": ("indent", "tail"),
}


@st.composite
def _dflow_lines(draw):
    slots = _STATEMENTS[draw(st.sampled_from(["loop"] * 4 + ["spatial"]
                                             + ["refresh"] * 3 + ["blank"]))]
    wrong = draw(st.integers(0, 5 * len(slots)))  # a slot index, or none
    return "".join(
        draw(st.sampled_from(_TOKENS[slot][i == wrong])) for i, slot in enumerate(slots)
    )


@st.composite
def mutated_documents(draw):
    lines = draw(st.lists(_dflow_lines(), max_size=12))
    return draw(st.sampled_from(["\n", "\n", "\r\n", "\r"])).join(lines)


@settings(max_examples=600, deadline=None)
@given(mutated_documents())
def test_parse_matches_reference_on_mutated_documents(text):
    assert _parse_outcome(parse, text) == _parse_outcome(_ref_parse, text)


@settings(max_examples=200, deadline=None)
@given(documents())
def test_parse_matches_reference_on_rendered_documents(doc):
    text = render_document(doc)
    assert _parse_outcome(parse, text) == _parse_outcome(_ref_parse, text)


@pytest.mark.parametrize("text", [
    "refre\u017fh W @GB",  # the pattern's IGNORECASE folds long s to s; head does not
    "for m \u0131n 0..2 @GB",
    "FOR m IN 0..4 @gb\n  Parallel-For E in 0 .. 2 @NOC\t# x\n    for c in 0..3 @Rf  ",
    "for m in 0..4 @DRAM\nfor c in 0..0 @GB",
    "for m in 00..4 @DRAM",
    "refresh W @GB\u2028for m in 0..2 @DRAM\x0brefresh W @gb",
    "\u00a0\u3000for\u2003m\tin 0..2 @\u00a0GB\u3000",
    "parallel-for m in 0..2 @GB",
    "for m in 0..4 @DRAM # refresh W @GB\n# for\nrefresh I @RF # dup?\nrefresh i @rf",
    "for m in 0.." + "9" * 5000 + " @DRAM",
    "for m 0..4 @DRAM",
    "\tfor x in 0..2 @GB",
    "refresh W GB",
    "refresh W @NoC",
])
def test_parse_matches_reference_on_edge_documents(text):
    assert _parse_outcome(parse, text) == _parse_outcome(_ref_parse, text)
