"""Binary DEX writer/reader round-trip tests."""

import pytest

from repro.dex import DexBuilder, assemble, assert_valid, read_dex, write_dex
from repro.dex.checksums import adler32_checksum, sha1_signature
from repro.dex.constants import DEX_MAGIC
from repro.errors import DexFormatError


def _sample_dex():
    text = """
.class public Lcom/rt/Main;
.super Landroid/app/Activity;
.field public static NAME:Ljava/lang/String; = "roundtrip"
.field public static COUNT:I = 42
.field public static RATE:F = 1.5
.field public static BIG:J = 9999999999
.field public counter:I

.method public onCreate(Landroid/os/Bundle;)V
    .registers 4
    const/4 v0, 1
    invoke-virtual {p0, v0}, Lcom/rt/Main;->compute(I)I
    move-result v1
    iput v1, p0, Lcom/rt/Main;->counter:I
    return-void
.end method

.method public compute(I)I
    .registers 5
    packed-switch p1, :cases
    const/4 v0, -1
    return v0
    :zero
    const/16 v0, 100
    return v0
    :one
    :try_start
    const/4 v1, 0
    div-int v0, v0, v1
    :try_end
    const/4 v0, 0
    return v0
    :handler
    const/16 v0, 200
    return v0
    :cases
    .packed-switch 0
        :zero
        :one
    .end packed-switch
    .catch Ljava/lang/ArithmeticException; {:try_start .. :try_end} :handler
.end method
"""
    return assemble(text)


class TestRoundTrip:
    def test_bytes_parse_back(self):
        raw = write_dex(_sample_dex())
        dex = read_dex(raw)
        assert dex.find_class("Lcom/rt/Main;") is not None

    def test_roundtrip_is_fixed_point(self):
        raw = write_dex(_sample_dex())
        raw2 = write_dex(read_dex(raw))
        assert raw == raw2

    def test_reread_passes_verifier(self):
        assert_valid(read_dex(write_dex(_sample_dex())))

    def test_magic_and_checksums(self):
        raw = write_dex(_sample_dex())
        assert raw[:8] == DEX_MAGIC
        assert int.from_bytes(raw[8:12], "little") == adler32_checksum(raw)
        assert raw[12:32] == sha1_signature(raw)

    def test_static_values_survive(self):
        dex = read_dex(write_dex(_sample_dex()))
        cls = dex.find_class("Lcom/rt/Main;")
        by_name = {}
        for encoded, value in zip(cls.static_fields, cls.static_values):
            by_name[dex.field_ref(encoded.field_idx).name] = value

        assert dex.string(by_name["NAME"].value) == "roundtrip"
        assert by_name["COUNT"].value == 42
        assert by_name["BIG"].value == 9999999999
        assert abs(by_name["RATE"].value - 1.5) < 1e-6

    def test_tries_survive(self):
        dex = read_dex(write_dex(_sample_dex()))
        cls = dex.find_class("Lcom/rt/Main;")
        compute = next(
            m for m in cls.all_methods()
            if dex.method_ref(m.method_idx).name == "compute"
        )
        assert len(compute.code.tries) == 1
        try_block = compute.code.tries[0]
        assert len(try_block.handlers) == 1
        type_idx, _addr = try_block.handlers[0]
        assert dex.type_descriptor(type_idx) == "Ljava/lang/ArithmeticException;"

    def test_instructions_identical(self):
        original = _sample_dex()
        original.canonicalize()  # write_dex leaves its input alone
        raw = write_dex(original)
        reread = read_dex(raw)
        for cls_o, cls_r in zip(original.class_defs, reread.class_defs):
            for m_o, m_r in zip(cls_o.all_methods(), cls_r.all_methods()):
                if m_o.code is not None:
                    assert m_o.code.insns == m_r.code.insns


class TestRejection:
    def test_bad_magic(self):
        raw = bytearray(write_dex(_sample_dex()))
        raw[0] = ord("x")
        with pytest.raises(DexFormatError):
            read_dex(bytes(raw))

    def test_corrupted_checksum(self):
        raw = bytearray(write_dex(_sample_dex()))
        raw[100] ^= 0xFF
        with pytest.raises(DexFormatError):
            read_dex(bytes(raw))

    def test_non_strict_skips_digest_checks(self):
        raw = bytearray(write_dex(_sample_dex()))
        raw[8] ^= 0xFF  # corrupt the stored checksum itself
        read_dex(bytes(raw), strict=False)  # should not raise

    def test_truncated_file(self):
        raw = write_dex(_sample_dex())
        with pytest.raises(DexFormatError):
            read_dex(raw[:60])

    def test_size_mismatch(self):
        raw = write_dex(_sample_dex()) + b"\x00" * 4
        with pytest.raises(DexFormatError):
            read_dex(raw)


class TestEmptyAndEdge:
    def test_methodless_class(self):
        builder = DexBuilder()
        builder.add_class("Lcom/empty/Marker;")
        dex = read_dex(write_dex(builder.build()))
        assert dex.find_class("Lcom/empty/Marker;") is not None

    def test_interface_list_roundtrip(self):
        builder = DexBuilder()
        builder.add_class("Lcom/i/A;")  # plain class used as interface marker
        builder.add_class("Lcom/i/B;", interfaces=("Lcom/i/A;",))
        dex = read_dex(write_dex(builder.build()))
        cls = dex.find_class("Lcom/i/B;")
        assert [dex.type_descriptor(i) for i in cls.interfaces] == ["Lcom/i/A;"]

    def test_native_method_has_no_code(self):
        builder = DexBuilder()
        cls = builder.add_class("Lcom/n/N;")
        cls.method("nat", "V", (), native=True).build()
        dex = read_dex(write_dex(builder.build()))
        method = dex.find_class("Lcom/n/N;").all_methods()[0]
        assert method.code is None
