"""The README's library example and scenario JSON run and converge."""

import re
from pathlib import Path

from edue.cli import EXIT_OK, main

README = Path(__file__).resolve().parent.parent / "README.md"


def code_block(language):
    (block,) = re.findall(rf"```{language}\n(.*?)```", README.read_text(), re.S)
    return block


def test_readme_examples_converge(tmp_path):
    namespace = {}
    exec(code_block("python"), namespace)
    assert namespace["report"].converged

    scenario = tmp_path / "scenario.json"
    scenario.write_text(code_block("json"))
    assert main(["solve", str(scenario), "--out", str(tmp_path / "out")]) == EXIT_OK
