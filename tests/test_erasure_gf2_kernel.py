"""Differential tests for the GF(2) payload kernels.

``xor_reduce_segments`` / ``xor_accumulate_segments`` pick one of two kernels
from the row width (streaming for wide rows, length-grouped gather for narrow
ones).  Both are checked against a per-row Python XOR oracle and against each
other on the same input, including the aliasing pattern the encoder uses
(``out`` and ``rows`` slices of one buffer).  ``DecodeProgram.run`` -- the
in-place replay over one matrix, with dead updates filtered out and consumed
equation rows standing for the composites they recovered -- is checked against
an unfiltered replay of the recorded peel that keeps a separate solution
matrix, at a narrow and a wide row size.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.erasure import gf2
from repro.erasure.online_code import OnlineCode, OnlineCodeParameters

SWITCH = gf2.STREAM_MIN_WORDS
WIDTHS = st.sampled_from([0, 1, 3, 17, SWITCH - 1, SWITCH, SWITCH + 1])


def naive_reduce(rows: np.ndarray, flat, offsets) -> np.ndarray:
    out = np.zeros((len(offsets) - 1, rows.shape[1]), dtype=np.uint64)
    for segment in range(len(offsets) - 1):
        for index in flat[offsets[segment] : offsets[segment + 1]]:
            out[segment] = out[segment] ^ rows[index]
    return out


@st.composite
def csr_inputs(draw, min_rows: int = 1):
    n_rows = draw(st.integers(min_value=min_rows, max_value=9))
    width = draw(WIDTHS)
    # Lengths 0 and 1 are special-cased by both kernels; repeats must cancel.
    segments = draw(
        st.lists(
            st.lists(st.integers(min_value=0, max_value=n_rows - 1), max_size=6), max_size=8
        )
    )
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    parent = np.random.default_rng(seed).integers(
        0, 2**63, size=(2 * n_rows, width + 2), dtype=np.uint64
    )
    flat = np.array([i for segment in segments for i in segment], dtype=np.int64)
    offsets = np.zeros(len(segments) + 1, dtype=np.int64)
    np.cumsum([len(segment) for segment in segments], out=offsets[1:])
    return parent, n_rows, width, flat, offsets


@given(case=csr_inputs(), contiguous=st.booleans())
@settings(max_examples=150, deadline=None)
def test_reduce_matches_naive_oracle_on_both_kernels(case, contiguous):
    parent, n_rows, width, flat, offsets = case
    # Every other row and an inner column window: a non-contiguous ``rows``.
    rows = parent[:n_rows, :width].copy() if contiguous else parent[::2, 1 : width + 1]
    expected = naive_reduce(rows, flat, offsets)
    shape = (offsets.size - 1, width)
    streamed = gf2._xor_reduce_streaming(rows, flat, offsets, np.empty(shape, np.uint64))
    # ``out`` arrives uninitialised: every row must be written, empty segments too.
    grouped = gf2._xor_reduce_grouped(rows, flat, offsets, np.full(shape, 7, np.uint64))
    assert (streamed == expected).all()
    assert (grouped == expected).all()
    assert (streamed == grouped).all()
    assert (gf2.xor_reduce_segments(rows, flat, offsets) == expected).all()
    # The online encoder's form: the sources as a sequence of 1-D rows.
    assert (gf2.xor_reduce_segments(list(rows), flat, offsets) == expected).all()


@given(case=csr_inputs())
@settings(max_examples=100, deadline=None)
def test_reduce_into_a_slice_of_the_buffer_it_reads(case):
    """``DecodeProgram.run``'s residual pattern: sources and ``out`` share one parent."""
    parent, n_rows, width, flat, offsets = case
    segments = offsets.size - 1
    for kernel in (gf2._xor_reduce_streaming, gf2._xor_reduce_grouped, gf2.xor_reduce_segments):
        buffer = np.empty((n_rows + segments, width), dtype=np.uint64)
        buffer[:n_rows] = parent[:n_rows, :width]
        buffer[n_rows:] = 7
        expected = naive_reduce(buffer[:n_rows], flat, offsets)
        out = buffer[n_rows:]
        assert kernel(buffer[:n_rows], flat, offsets, out=out) is out
        assert (buffer[n_rows:] == expected).all()
        assert (buffer[:n_rows] == parent[:n_rows, :width]).all()


@given(case=csr_inputs(min_rows=2), data=st.data())
@settings(max_examples=100, deadline=None)
def test_accumulate_matches_naive_oracle_at_every_width(case, data):
    parent, n_rows, width, flat, offsets = case
    # Targets are distinct rows of the same matrix that no segment reads.
    total = n_rows + offsets.size - 1
    matrix = np.random.default_rng(5).integers(0, 2**63, size=(total, width), dtype=np.uint64)
    matrix[:n_rows] = parent[:n_rows, :width]
    targets = np.asarray(
        data.draw(st.permutations(range(n_rows, total))), dtype=np.int64
    )
    expected = matrix.copy()
    expected[targets] ^= naive_reduce(matrix, flat, offsets)
    gf2.xor_accumulate_segments(matrix, flat, offsets, targets)
    assert (matrix == expected).all()


def test_switch_is_a_property_of_the_row_width(monkeypatch):
    """One entry point, one rule: width alone picks the kernel."""
    calls = []
    monkeypatch.setattr(
        gf2, "_xor_reduce_streaming", lambda *a: calls.append("streaming") or a[3]
    )
    monkeypatch.setattr(gf2, "_xor_reduce_grouped", lambda *a: calls.append("grouped") or a[3])
    flat, offsets = np.array([0, 1]), np.array([0, 2])
    for width in (SWITCH - 1, SWITCH, SWITCH + 1):
        gf2.xor_reduce_segments(np.zeros((2, width), np.uint64), flat, offsets)
    assert calls == ["grouped", "streaming", "streaming"]


# -- DecodeProgram.run --------------------------------------------------------------
def reference_replay(graph, indices, check_words: np.ndarray):
    """Every recorded peel event applied naively, with a separate solution matrix.

    Returns ``(solution, known)``: composite payloads and which are determined.
    """
    flat, offsets = gf2.concat_csr(
        [graph.checks_for(np.asarray(indices, dtype=np.int64)), graph.aux_equations()]
    )
    result = gf2.peel(flat, offsets, graph.composite_count, record=True)
    values = np.zeros((offsets.size - 1, check_words.shape[1]), dtype=np.uint64)
    values[: len(indices)] = check_words
    solution = np.zeros((graph.composite_count, check_words.shape[1]), dtype=np.uint64)
    for targets, source_eqs, event_eqs, event_vars in result.trace:
        solution[targets] = values[source_eqs]
        for equation, variable in zip(event_eqs.tolist(), event_vars.tolist()):
            values[equation] ^= solution[variable]
    if not result.known[: graph.n_blocks].all():  # inactivation, as the decoder does
        solved, comb_flat, comb_offsets = gf2.compile_residual(
            flat, offsets, graph.composite_count, result
        )
        solution[solved] = naive_reduce(values, comb_flat, comb_offsets)
    return solution, result.known


def check_replay(code: OnlineCode, chunk, blocks, data: bytes):
    """Replay ``blocks`` through both kernels; compare with the reference."""
    indices = sorted(blocks)
    graph = code._graph_for_chunk(chunk, code.parameters)
    program = graph.decode_program(tuple(indices))

    words = gf2.words_for_bytes(chunk.block_size)
    check_words = np.zeros((len(indices), words), dtype=np.uint64)
    as_bytes = check_words.view(np.uint8)
    for row, index in enumerate(indices):
        as_bytes[row, : chunk.block_size] = np.frombuffer(blocks[index], dtype=np.uint8)
    expected, known = reference_replay(graph, indices, check_words)

    replays = []
    for switch in (1, 1 << 30):  # the same schedule through each kernel
        values = np.full((program.n_rows, words), 7, dtype=np.uint64)
        values[: len(indices)] = check_words
        values[len(indices) : program.n_equations] = 0
        gf2.STREAM_MIN_WORDS, saved = switch, gf2.STREAM_MIN_WORDS
        try:
            program.run(values)
        finally:
            gf2.STREAM_MIN_WORDS = saved
        replays.append(values)
    assert (replays[0] == replays[1]).all()

    assert program.missing == chunk.n_blocks - int(known[: chunk.n_blocks].sum())
    solved = np.flatnonzero(known)
    assert (program.var_rows[solved] >= 0).all()
    assert (replays[0][program.var_rows[solved]] == expected[solved]).all()
    if not program.missing:
        assert code.decode(chunk, blocks) == data
    return program


# At the paper's epsilon peeling usually stalls and the residual solver
# finishes the decode; at the loose one peeling alone usually suffices.
@pytest.mark.parametrize("epsilon, quality", [(0.01, 1.0), (0.25, 1.3)])
@pytest.mark.parametrize("block_bytes", [64, 8 * SWITCH])  # narrow, wide
@given(n_blocks=st.integers(min_value=1, max_value=24), subset=st.data())
@settings(max_examples=20, deadline=None)
def test_in_place_replay_matches_reference_on_rateless_subsets(
    epsilon, quality, block_bytes, n_blocks, subset
):
    code = OnlineCode(OnlineCodeParameters(epsilon=epsilon, q=3, quality=quality), seed=13)
    data = np.random.default_rng(n_blocks).bytes(n_blocks * block_bytes - n_blocks // 2)
    encoded = code.encode(data, n_blocks)
    extra = code.generate_additional_blocks(
        encoded, {b.index: b.data for b in encoded.blocks}, 8
    )
    blocks = {b.index: b.data for b in encoded.blocks + extra}
    for index in subset.draw(
        st.lists(st.sampled_from(sorted(blocks)), max_size=len(extra), unique=True)
    ):
        del blocks[index]
    extended = replace(
        encoded, metadata={**encoded.metadata, "output_blocks": len(encoded.blocks) + 8}
    )
    check_replay(code, extended, blocks, data)


@pytest.mark.parametrize("block_bytes, n_blocks", [(64, 60), (8 * SWITCH, 69)])
def test_in_place_replay_with_peeling_rounds_then_a_residual_solve(block_bytes, n_blocks):
    """Both halves of the program in one decode: several peeling rounds whose
    updates reach the rows the residual solver then combines."""
    code = OnlineCode(OnlineCodeParameters(epsilon=0.01, q=3), seed=13)
    data = np.random.default_rng(n_blocks).bytes(n_blocks * block_bytes - n_blocks // 2)
    encoded = code.encode(data, n_blocks)
    program = check_replay(code, encoded, {b.index: b.data for b in encoded.blocks}, data)
    assert program.missing == 0
    assert len(program.schedule) >= 9 and program.n_rows - program.n_equations >= 9
