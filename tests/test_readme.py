"""The README's examples run as written, so a name it shows cannot vanish
from the package unnoticed."""

import json
import re
from pathlib import Path

from nfbf.harness import spec_from_dict

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _blocks(text: str, lang: str) -> list[str]:
    """The fenced code blocks of the given language in text, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_library_use_block_runs():
    section = README.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    (code,) = _blocks(section, "python")
    exec(compile(code, "README.md (Library use)", "exec"), {})


def test_config_example_parses():
    # parse only: the example asks for 200 trials at N = 64
    (doc,) = _blocks(README, "json")
    spec = spec_from_dict(json.loads(doc))
    assert spec.experiment == "sumrate-vs-snr"
    assert spec.trials == 200 and spec.n_bs == 64
