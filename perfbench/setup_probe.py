"""Time hallfix's set-up in this fresh interpreter and print it as JSON.

    python3 perfbench/setup_probe.py GROUP...

Set-up is ``import hallfix`` through parsing and closing each named group
(a builtin name or a group file) once: what every command pays before its
first Hall context.  It runs under the reference sampler (reference.py), so
that the host's speed meanwhile can be divided out.  Prints
``{"setup_s": ..., "unit_s": ...}``.
"""

from __future__ import annotations

import json
import sys

from reference import Sampler


def main() -> int:
    with Sampler() as sampler:
        start = sampler.clock()
        import hallfix  # noqa: F401  (the import is what is timed)
        from hallfix.corpus import load_group
        for name in sys.argv[1:]:
            load_group(name)
        setup = sampler.clock() - start
    print(json.dumps({"setup_s": setup, "unit_s": sampler.unit_s}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
