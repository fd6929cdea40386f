"""Check records and their text / JSON rendering."""

from __future__ import annotations

import json
from typing import Dict, List, NamedTuple

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


class CheckRecord(NamedTuple):
    """One verifier outcome.

    ``expected_fail`` is corpus metadata for the documented counterexample
    pairs; it keeps them out of the failure exit code but is not part of the
    serialized schema.
    """

    check: str
    group: str
    pi: str
    status: str
    witness: str
    expected_fail: bool = False

    def to_dict(self) -> Dict[str, str]:
        return {
            "check": self.check,
            "group": self.group,
            "pi": self.pi,
            "status": self.status,
            "witness": self.witness,
        }

    def text_line(self) -> str:
        mark = " (expected)" if self.status == FAIL and self.expected_fail else ""
        return (f"{self.check:<17} {self.group:<10} pi={self.pi:<7} "
                f"{self.status}{mark}: {self.witness}")


def records_to_json(records: List[CheckRecord]) -> str:
    return json.dumps([r.to_dict() for r in records], indent=2, sort_keys=True)


def unexpected_failures(records: List[CheckRecord]) -> List[CheckRecord]:
    return [r for r in records if r.status == FAIL and not r.expected_fail]
