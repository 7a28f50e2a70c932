from __future__ import annotations

import pytest

from superpatterns.oeis import (
    MINIMAL_SEQUENCE,
    STRICT_MINIMAL_SEQUENCE,
    check_reference_sequences,
    load_bfile,
    minimal_count_reference,
    strict_minimal_count_reference,
)


def test_bfiles_parse():
    a024012 = load_bfile(MINIMAL_SEQUENCE)
    a008865 = load_bfile(STRICT_MINIMAL_SEQUENCE)
    assert a024012[0] == 1
    assert a024012[5] == 7
    assert a024012[13] == 8023
    assert a008865[1] == -1
    assert a008865[3] == 7
    assert a008865[11] == 119


def test_unknown_sequence_rejected():
    with pytest.raises(ValueError):
        load_bfile("A000001")


def test_shifted_lookups():
    assert minimal_count_reference(7) == 7
    assert minimal_count_reference(9) == 79
    assert strict_minimal_count_reference(7) == 7
    assert strict_minimal_count_reference(10) == 34


def test_formulas_match_references():
    checks = check_reference_sequences()
    assert len(checks) == 2 * 9
    assert {c.n for c in checks} == set(range(7, 16))
    assert all(c.ok for c in checks)
    labels = {c.label for c in checks}
    assert labels == {MINIMAL_SEQUENCE, STRICT_MINIMAL_SEQUENCE}
