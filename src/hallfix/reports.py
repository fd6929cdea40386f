"""Check records and their text / JSON rendering.  JSON is written from one
template per record, byte for byte what ``json.dumps(indent=2, sort_keys=True)``
prints, with json's C string escaper on each value."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import List, NamedTuple

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


class CheckRecord(NamedTuple):
    """One verifier outcome.  The first five fields are the JSON keys, in
    sorted order; ``expected_fail`` is corpus metadata for the documented
    counterexample pairs, which keeps them out of the failure exit code.
    """

    check: str
    group: str
    pi: str
    status: str
    witness: str
    expected_fail: bool = False

    def text_line(self) -> str:
        mark = " (expected)" if self.status == FAIL and self.expected_fail else ""
        return (f"{self.check:<17} {self.group:<10} pi={self.pi:<7} "
                f"{self.status}{mark}: {self.witness}")


_RECORD = ('  {\n    "check": %s,\n    "group": %s,\n    "pi": %s,\n    "status": %s,\n'
           '    "witness": %s\n  }')


def records_to_json(records: List[CheckRecord]) -> str:
    body = ",\n".join(_RECORD % tuple(map(encode_basestring_ascii, r[:5])) for r in records)
    return f"[\n{body}\n]" if body else "[]"


def unexpected_failures(records: List[CheckRecord]) -> List[CheckRecord]:
    return [r for r in records if r.status == FAIL and not r.expected_fail]
