"""CC ISA tests (Table II rules, Section IV-A limits)."""

import pytest

from repro.core.isa import (
    CCInstruction,
    Opcode,
    cc_and,
    cc_buz,
    cc_clmul,
    cc_cmp,
    cc_copy,
    cc_not,
    cc_or,
    cc_search,
    cc_xor,
)
from repro.errors import ISAError
from repro.params import PAGE_SIZE


class TestValidation:
    def test_happy_paths(self):
        cc_copy(0x1000, 0x2000, 4096)
        cc_buz(0x1000, 4096)
        cc_cmp(0x1000, 0x2000, 512)
        cc_search(0x1000, 0x2000, 512)
        cc_and(0x1000, 0x2000, 0x3000, 128)
        cc_or(0x1000, 0x2000, 0x3000, 128)
        cc_xor(0x1000, 0x2000, 0x3000, 128)
        cc_not(0x1000, 0x2000, 128)
        cc_clmul(0x1000, 0x2000, 0x3000, 256, lane_bits=128)

    def test_size_limits(self):
        cc_copy(0, 0x10000, 16 * 1024)  # max allowed
        with pytest.raises(ISAError):
            cc_copy(0, 0x10000, 32 * 1024)

    def test_cmp_search_result_register_limits(self):
        """The 64-bit result register caps cmp at 64 words (512 B) and
        search at 64 keys (4 KB)."""
        cc_cmp(0, 0x10000, 512)
        with pytest.raises(ISAError):
            cc_cmp(0, 0x10000, 576)
        cc_search(0, 0x10000, 4096)
        with pytest.raises(ISAError):
            cc_search(0, 0x10000, 4096 + 64)

    def test_block_multiple_required(self):
        with pytest.raises(ISAError):
            cc_copy(0, 0x1000, 100)

    def test_block_alignment_required(self):
        with pytest.raises(ISAError):
            cc_copy(0x10, 0x1000, 64)

    def test_zero_and_negative_size(self):
        with pytest.raises(ISAError):
            cc_buz(0, 0)
        with pytest.raises(ISAError):
            cc_buz(0, -64)

    def test_clmul_lane_widths(self):
        for lanes in (64, 128, 256):
            cc_clmul(0, 0x1000, 0x2000, 64, lane_bits=lanes)
        with pytest.raises(ISAError):
            cc_clmul(0, 0x1000, 0x2000, 64, lane_bits=32)

    def test_lane_bits_only_for_clmul(self):
        with pytest.raises(ISAError):
            CCInstruction(Opcode.AND, src1=0, src2=64, dest=128, size=64, lane_bits=64)

    def test_operand_count_enforced(self):
        with pytest.raises(ISAError):
            CCInstruction(Opcode.AND, src1=0, size=64)  # missing src2+dest
        with pytest.raises(ISAError):
            CCInstruction(Opcode.BUZ, src1=0, src2=64, size=64)  # extra operand


OPCODE_TABLE = [
    # opcode, sub-array op, CC-R (reads only), bit-serial arithmetic tier
    (Opcode.COPY, "copy", False, False),
    (Opcode.BUZ, "buz", False, False),
    (Opcode.CMP, "cmp", True, False),
    (Opcode.SEARCH, "search", True, False),
    (Opcode.AND, "and", False, False),
    (Opcode.OR, "or", False, False),
    (Opcode.XOR, "xor", False, False),
    (Opcode.CLMUL, "clmul", False, False),
    (Opcode.NOT, "not", False, False),
    (Opcode.ADD, "add", False, True),
    (Opcode.MUL, "mul", False, True),
    (Opcode.REDUCE, "reduce", True, True),
]


class TestClassification:
    def test_cc_r_vs_cc_rw(self):
        """CMP and SEARCH only read; the rest behave like stores (IV-H)."""
        assert Opcode.CMP.reads_only and Opcode.SEARCH.reads_only
        for op in (Opcode.COPY, Opcode.BUZ, Opcode.AND, Opcode.OR,
                   Opcode.XOR, Opcode.NOT, Opcode.CLMUL):
            assert op.is_rw

    def test_subarray_op_mapping(self):
        assert Opcode.COPY.subarray_op == "copy"
        assert Opcode.CLMUL.subarray_op == "clmul"

    @pytest.mark.parametrize("op,subop,reads_only,is_arith", OPCODE_TABLE)
    def test_opcode_tables(self, op, subop, reads_only, is_arith):
        assert op.subarray_op == subop
        assert op.reads_only is reads_only
        assert op.is_rw is not reads_only
        assert op.is_arith is is_arith

    def test_opcode_tables_cover_every_opcode(self):
        assert [row[0] for row in OPCODE_TABLE] == list(Opcode)


class TestPageSpanning:
    def test_within_page(self):
        instr = cc_copy(0x1000, 0x3000, 4096)
        assert not instr.spans_page_boundary()

    def test_crossing_page(self):
        instr = cc_copy(0x1800, 0x3800, 4096)
        assert instr.spans_page_boundary()

    def test_search_key_never_spans(self):
        key = 5 * PAGE_SIZE + PAGE_SIZE - 64  # last block of a page
        instr = cc_search(0x1000, key, 512)
        assert not instr.spans_page_boundary()

    def test_split_at(self):
        instr = cc_and(0x1000, 0x3000, 0x5000, 256)
        head, tail = instr.split_at(128)
        assert head.size == tail.size == 128
        assert tail.src1 == 0x1080 and tail.src2 == 0x3080 and tail.dest == 0x5080

    def test_split_preserves_search_key(self):
        instr = cc_search(0x1000, 0x9000, 512)
        head, tail = instr.split_at(256)
        assert head.src2 == tail.src2 == 0x9000

    def test_bad_split_offsets(self):
        instr = cc_copy(0x1000, 0x3000, 256)
        for bad in (0, 256, 100):
            with pytest.raises(ISAError):
                instr.split_at(bad)


class TestStructure:
    def test_operands_roles(self):
        instr = cc_xor(0x1000, 0x2000, 0x3000, 64)
        assert instr.operands() == {"src1": 0x1000, "src2": 0x2000, "dest": 0x3000}
        assert instr.source_addresses() == [0x1000, 0x2000]

    def test_num_blocks(self):
        assert cc_copy(0, 0x1000, 4096).num_blocks == 64
