"""The README's command transcripts and its Library snippet run as printed.

Each fenced block that starts with `$ repunit-toric` is run through
cli.main, and its stdout must equal the rest of the block, with every
`(N ms)` timing normalised.
"""

import re
from pathlib import Path

import pytest

from repunit_toric.cli import main

README_PATH = Path(__file__).resolve().parent.parent / "README.md"
README = README_PATH.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
PROMPT = "$ repunit-toric "
TRANSCRIPTS = [text for lang, text in BLOCKS if text.startswith(PROMPT)]
MS = re.compile(r"\(\d+ ms\)")


def test_transcripts_cover_the_subcommands():
    assert sorted(t[len(PROMPT):].split()[0] for t in TRANSCRIPTS) == [
        "betti", "groebner", "info", "sweep", "verify"]


@pytest.mark.parametrize(
    "transcript", TRANSCRIPTS, ids=[t.partition("\n")[0][len(PROMPT):] for t in TRANSCRIPTS],
)
def test_transcript(capsys, transcript):
    command, _, expected = transcript.partition("\n")
    assert main(command[len(PROMPT):].split()) == 0
    out = capsys.readouterr().out
    assert MS.sub("(N ms)", out) == MS.sub("(N ms)", expected)


def test_library_snippet():
    (snippet,) = [text for lang, text in BLOCKS if lang == "python"]
    exec(compile(snippet, "README.md", "exec"), {})


def test_module_layout_names_every_module():
    # the bullets under "Module layout" open with the module names they describe
    layout = README.partition("Module layout")[2].partition("\n\n")[2].partition("\n\n")[0]
    named = [name for bullet in re.findall(r"^\* ((?:`\w+`, )*`\w+`)", layout, re.M)
             for name in re.findall(r"`(\w+)`", bullet)]
    package = README_PATH.parent / "src" / "repunit_toric"
    modules = sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__")
    assert sorted(named) == modules
