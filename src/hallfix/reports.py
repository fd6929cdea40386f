"""Check records and their text / JSON rendering.  JSON is written from one
template per check record or lambda-report row, byte for byte what
``json.dumps(indent=2, sort_keys=True)`` prints, with json's C string
escaper on each value."""

from __future__ import annotations

from json.encoder import encode_basestring_ascii
from typing import Dict, Iterable, List, NamedTuple

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
_LAMBDA_ROW = '  {\n    "element": %s,\n    "lambda": %d,\n    "order": %d\n  }'


def _json_list(objects: Iterable[str]) -> str:
    body = ",\n".join(objects)
    return f"[\n{body}\n]" if body else "[]"


def records_to_json(records: List[CheckRecord]) -> str:
    return _json_list(_RECORD % tuple(map(encode_basestring_ascii, r[:5])) for r in records)


def lambda_rows_to_json(rows: List[Dict[str, object]]) -> str:
    """The lambda report's rows ({element, order, lambda}, integer counts)."""
    return _json_list(_LAMBDA_ROW % (encode_basestring_ascii(r["element"]), r["lambda"], r["order"])
                      for r in rows)


def unexpected_failures(records: List[CheckRecord]) -> List[CheckRecord]:
    return [r for r in records if r.status == FAIL and not r.expected_fail]
