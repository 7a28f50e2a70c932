"""Cross-checks of the counting formulas against locally stored OEIS b-files.

The count of minimal ternary superpatterns of length n up to isomorphism is
A024012 shifted by 2 (2^m - m^2 at m = n-2), and the strict minimal count is
A008865 shifted by 4 (m^2 - 2 at m = n-4).  The b-files under data/ are plain
"index value" lines as published.
"""

from __future__ import annotations

from functools import lru_cache
from importlib import resources

from ._value import _Value
from .classify import count_formulas

__all__ = [
    "load_bfile",
    "minimal_count_reference",
    "strict_minimal_count_reference",
    "SequenceCheck",
    "check_reference_sequences",
]

MINIMAL_SEQUENCE = "A024012"
STRICT_MINIMAL_SEQUENCE = "A008865"

CHECKED_LENGTHS = range(7, 16)  # n = 7..15; the counting formulas hold from 7

_FILES = {
    MINIMAL_SEQUENCE: "b024012.txt",
    STRICT_MINIMAL_SEQUENCE: "b008865.txt",
}


@lru_cache(maxsize=None)
def load_bfile(sequence_id: str) -> dict[int, int]:
    """Parse a stored OEIS b-file into an index -> value map."""
    try:
        filename = _FILES[sequence_id]
    except KeyError:
        raise ValueError(f"no stored b-file for {sequence_id}") from None
    text = resources.files("superpatterns.data").joinpath(filename).read_text()
    terms: dict[int, int] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        index, value = line.split()
        terms[int(index)] = int(value)
    return terms


def minimal_count_reference(n: int) -> int:
    """A024012 value matching the minimal-superpattern count at length n."""
    return load_bfile(MINIMAL_SEQUENCE)[n - 2]


def strict_minimal_count_reference(n: int) -> int:
    """A008865 value matching the strict minimal count at length n."""
    return load_bfile(STRICT_MINIMAL_SEQUENCE)[n - 4]


class SequenceCheck(_Value):
    __slots__ = __match_args__ = ("label", "n", "computed", "reference")
    label: str
    n: int
    computed: int
    reference: int

    def __init__(self, label: str, n: int, computed: int, reference: int) -> None:
        self._fill(label, n, computed, reference)

    @property
    def ok(self) -> bool:
        return self.computed == self.reference


def check_reference_sequences() -> list[SequenceCheck]:
    """Compare the closed-form counts against both stored sequences at each
    length in CHECKED_LENGTHS."""
    out: list[SequenceCheck] = []
    for n in CHECKED_LENGTHS:
        report = count_formulas(n)
        out.append(
            SequenceCheck(MINIMAL_SEQUENCE, n, report.gamma_total, minimal_count_reference(n))
        )
        out.append(
            SequenceCheck(
                STRICT_MINIMAL_SEQUENCE, n, report.s_mu, strict_minimal_count_reference(n)
            )
        )
    return out
