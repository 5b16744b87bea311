"""The CI workflow's shell steps, checked without running them.

A quoting slip in a multi-line ``run:`` block makes bash refuse the whole
step, and a step that never runs gates nothing.  ``bash -n`` reads each block
as the runner's bash would and reports the first syntax error.
"""

import subprocess

import yaml

from conftest import REPO_ROOT

WORKFLOW = REPO_ROOT / ".github" / "workflows" / "tier1.yml"


def run_blocks(text):
    """(step name, script) of every step with a ``run:`` block."""
    for job in yaml.safe_load(text)["jobs"].values():
        for step in job["steps"]:
            if "run" in step:
                yield step.get("name", step["run"]), step["run"]


def syntax_errors(text):
    """bash's complaint about each run block that does not parse, by step."""
    errors = {}
    for name, script in run_blocks(text):
        done = subprocess.run(["bash", "-n"], input=script, capture_output=True, text=True,
                              timeout=60)
        if done.returncode != 0:
            errors[name] = done.stderr
    return errors


def test_every_run_block_parses():
    text = WORKFLOW.read_text()
    keys = [line for line in text.splitlines() if line.lstrip().startswith("run:")]
    assert len(list(run_blocks(text))) == len(keys) > 0
    assert syntax_errors(text) == {}


def test_a_quoting_slip_is_caught():
    # An apostrophe inside a single-quoted python3 -c program ends the
    # program early, and bash reads the rest as shell.
    text = """
jobs:
  tests:
    steps:
      - name: fine
        run: echo "it's quoted"
      - name: slip
        run: |
          python3 -c 'import sys
          # the chain's table
          print(sys.argv)' x
"""
    errors = syntax_errors(text)
    assert list(errors) == ["slip"]
    assert "syntax error" in errors["slip"]
