"""README's examples run against the code as it is."""

import json
import re
from pathlib import Path

from qins.harness.config import config_from_dict

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README.read_text(), re.M | re.S)


def test_readme_python_example_runs(capsys):
    (example,) = _blocks("python")
    exec(compile(example, str(README), "exec"), {})
    assert len(capsys.readouterr().out.splitlines()) == 2


def test_readme_json_config_parses():
    (config,) = _blocks("json")
    config_from_dict(json.loads(config))  # raises ConfigError on a stale key or value
