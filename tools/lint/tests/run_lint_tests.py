#!/usr/bin/env python3
"""Golden tests for determinism_lint.py.

Runs the linter over the fixture corpus and compares diagnostics against
golden/fixtures.txt byte for byte (the lint has no external
dependencies, so it behaves identically everywhere).

Also covered: exit codes (0 clean / 1 findings / 2 config error),
advisory severity semantics, --advisory-as-error, and the --json report.
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
LINT = os.path.join(HERE, "..", "determinism_lint.py")
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden", "fixtures.txt")

failures = []


def check(name, ok, detail=""):
    status = "ok" if ok else "FAIL"
    print(f"[{status}] {name}")
    if not ok:
        failures.append(name)
        if detail:
            print(detail)


def run(*extra, paths=(".",)):
    cmd = [sys.executable, LINT, "--root", FIXTURES,
           "--config", os.path.join(FIXTURES, "lint.json"),
           *extra, *paths]
    return subprocess.run(cmd, capture_output=True, text=True)


def main():
    with open(GOLDEN, "r", encoding="utf-8") as f:
        golden = f.read()

    # 1. Diagnostics are byte-identical to the golden file.
    r = run()
    check("fixtures exit code is 1", r.returncode == 1,
          f"got {r.returncode}, stderr: {r.stderr}")
    check("fixtures diagnostics match golden", r.stdout == golden,
          "--- golden ---\n" + golden + "--- actual ---\n" + r.stdout)

    # 2. Advisory-only input passes; --advisory-as-error flips it.
    r = run(paths=("hot_alloc_violation.cpp",))
    check("advisory-only run exits 0", r.returncode == 0,
          f"got {r.returncode}: {r.stdout}{r.stderr}")
    r = run("--advisory-as-error", paths=("hot_alloc_violation.cpp",))
    check("--advisory-as-error exits 1", r.returncode == 1,
          f"got {r.returncode}: {r.stdout}{r.stderr}")

    # 3. Fully suppressed input exits 0 and prints nothing.
    r = run(paths=("wall_clock_suppressed.cpp",))
    check("suppressed-only run exits 0, silent",
          r.returncode == 0 and r.stdout == "",
          f"got {r.returncode}: {r.stdout}")

    # 4. JSON report: schema, counts consistent with the golden run.
    with tempfile.TemporaryDirectory() as td:
        out = os.path.join(td, "findings.json")
        r = run("--json", out)
        with open(out, "r", encoding="utf-8") as f:
            doc = json.load(f)
        check("json schema tag", doc.get("schema") == "paraleon.lint.v1")
        n_err = sum(1 for x in doc["findings"]
                    if x["severity"] == "error" and not x["suppressed"])
        n_adv = sum(1 for x in doc["findings"]
                    if x["severity"] == "advisory" and not x["suppressed"])
        n_sup = sum(1 for x in doc["findings"] if x["suppressed"])
        check("json counts match findings",
              doc["counts"] == {"errors": n_err, "advisories": n_adv,
                                "suppressed": n_sup},
              f"counts={doc['counts']} vs err={n_err} adv={n_adv} "
              f"sup={n_sup}")
        check("json error count matches golden",
              n_err == sum(1 for line in golden.splitlines()
                           if ": error[" in line))
        check("json suppressions recorded", n_sup == 9,
              f"got {n_sup}")

    # 5. Config errors exit 2.
    with tempfile.TemporaryDirectory() as td:
        bad = os.path.join(td, "bad.json")
        with open(bad, "w", encoding="utf-8") as f:
            f.write('{"rules": {"no-such-rule": {}}}')
        r = subprocess.run(
            [sys.executable, LINT, "--root", FIXTURES, "--config", bad,
             "."],
            capture_output=True, text=True)
        check("unknown rule in config exits 2", r.returncode == 2,
              f"got {r.returncode}: {r.stderr}")

    if failures:
        print(f"\n{len(failures)} check(s) failed: {failures}")
        return 1
    print("\nall lint golden checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
