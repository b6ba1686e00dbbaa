"""Acceptance gate: every criterion at its stated tolerance.

Criteria 1-10 are computed once in this process by a session fixture;
the individual tests assert them and print one pass/fail line each.
Criterion 11 computes them again in a fresh interpreter with another
string-hash seed, started first so that it runs alongside this
process's own run, and compares the two field by field with timing
stripped: a report that depended on set or dict order would differ.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import lipfree
from acceptance_criteria import run_criteria, strip_runtime_fields


@pytest.fixture(scope="session")
def reports():
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "2" if env.get("PYTHONHASHSEED") == "1" else "1"
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(lipfree.__file__).parents[1]), env.get("PYTHONPATH", "")])
    script = Path(__file__).with_name("acceptance_criteria.py")
    child = subprocess.Popen([sys.executable, str(script)], env=env,
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        own = run_criteria()
    finally:
        try:
            out, err = child.communicate(timeout=900)
        except subprocess.TimeoutExpired:
            child.kill()
            out, err = child.communicate()
    return {"own": own, "child": (child.returncode, out, err)}


def _check(report: dict) -> None:
    status = "PASS" if report["passed"] else "FAIL"
    line = (f"ACCEPTANCE {report['criterion']:>2} {status}  {report['name']}"
            f"  ({report['runtime_s']:.1f}s)")
    print(line)
    assert report["passed"], json.dumps(strip_runtime_fields(report), indent=2,
                                        default=str)


@pytest.mark.parametrize("index", range(10), ids=[f"criterion_{k+1:02d}"
                                                  for k in range(10)])
def test_criteria_1_through_10(reports, index):
    _check(reports["own"]["criteria"][index])


def test_criterion_11_hash_seed_determinism(reports):
    code, out, err = reports["child"]
    assert code == 0, err.decode(errors="replace")
    same = strip_runtime_fields(reports["own"]) == pickle.loads(out)
    print(f"ACCEPTANCE 11 {'PASS' if same else 'FAIL'}  "
          f"reports identical in a fresh interpreter with another hash seed")
    assert same, "reports differ between interpreters"
