"""The README's signal documents and Python example, run verbatim."""

import json
import re
from pathlib import Path

from bistab import signals

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(lang: str) -> str:
    match = re.search(rf"```{lang}\n(.*?)```", README.read_text(), re.S)
    assert match, f"README has no {lang} block"
    return match.group(1)


def test_signal_documents_parse():
    lines = [line for line in fenced_block("json").splitlines() if line.strip()]
    kinds = [type(signals.signal_from_json(json.loads(line))).__name__ for line in lines]
    assert kinds == ["Constant", "TrigSum", "FourierCesaro", "SampledPeriodic"]


def test_python_example(capsys):
    exec(fenced_block("python"), {})
    assert capsys.readouterr().out.splitlines()[0] == "bistability thm-3.2"
