#!/usr/bin/env python3
"""Check every cataloged commutator-form claim against the matrix engine.

For each claim the report shows whether its expansion matches the engine's
word-level term exactly; on a mismatch it prints the difference and whether
the engine term itself passes the Lie-element test.
"""

from __future__ import annotations

from bchseries import check_forms


def main() -> int:
    worst = 0
    for verdict in check_forms():
        form = verdict.form
        status = "ok" if verdict.ok else "FAIL"
        kind = "strict" if form.strict else "report-only"
        print(f"[{status}] {form.label} ({kind}): {form.claim}")
        if not verdict.matches:
            print(f"    engine term:   {verdict.engine_body}")
            print(f"    claim expands: {verdict.claim_body}")
            print(f"    difference:    {verdict.diff}")
            print(f"    engine term is a Lie element: {verdict.engine_is_lie}")
        if not verdict.ok:
            worst = 1
    return worst


if __name__ == "__main__":
    raise SystemExit(main())
