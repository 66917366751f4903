"""The examples in the format documents parse as the documents say, the
README's commands and library example run as it says, and its tables name
every module, counter and drop reason."""

import json
import pkgutil
import re
import shlex
from pathlib import Path

from helpers import REASON_COUNTERS
from test_report import REASONS
from test_scenario import reader_field_sets

import sdnsec
from sdnsec.cli import main
from sdnsec.formats import REPOSITORY_FIELDS, parse_compact_pe, parse_record
from sdnsec.scenario import bundled_scenario_path, load_scenario, parse_scenario
from sdnsec.simulation import run

DOCS = Path(__file__).resolve().parent.parent / "docs"
README = DOCS.parent / "README.md"

# the host ids of the traffic examples, and minimal's hosts in their place
EXAMPLE_HOSTS = {"X": "a", "Y": "b", "attacker": "a"}


def code_blocks(path: Path, language: str) -> list[str]:
    """The fenced blocks of a document whose fence names ``language``."""
    blocks, current, fence = [], [], None
    for line in path.read_text().splitlines():
        if fence is None and line.startswith("```"):
            fence, current = line[3:].strip(), []
        elif fence is not None and line.strip() == "```":
            if fence == language:
                blocks.append("\n".join(current))
            fence = None
        elif fence is not None:
            current.append(line)
    return blocks


def json_examples(name: str) -> list[object]:
    """The ``json`` blocks of a document that are complete JSON; a block
    that elides fields with ``...`` is skipped."""
    examples = []
    for block in code_blocks(DOCS / name, "json"):
        try:
            examples.append(json.loads(block))
        except json.JSONDecodeError:
            continue
    return examples


def test_scenario_format_examples_validate():
    examples = json_examples("scenario-format.md")
    assert examples, "no complete JSON example in docs/scenario-format.md"
    for example in examples:
        if "from" in example:
            doc = json.loads(bundled_scenario_path("minimal").read_text())
            to = example["to"]  # a host id or a literal address
            doc["traffic"] = [{**example, "from": EXAMPLE_HOSTS[example["from"]], "to": EXAMPLE_HOSTS.get(to, to)}]
        else:
            doc = example
        parse_scenario(doc)


def test_policy_format_examples_parse():
    compact = [
        line
        for block in code_blocks(DOCS / "policy-formats.md", "")
        for line in block.splitlines()
        if re.fullmatch(r"([^<=]+=\s*)?<.*>:<.*>", line)
    ]
    assert compact, "no compact example in docs/policy-formats.md"
    for line in compact:
        parse_compact_pe(line)
    records = json_examples("policy-formats.md")
    assert records, "no complete JSON example in docs/policy-formats.md"
    for index, record in enumerate(records):
        parse_record(record, f"example {index}")


def test_scenario_format_names_every_field_the_reader_accepts():
    text = (DOCS / "scenario-format.md").read_text()
    names = set().union(*reader_field_sets().values())
    assert sorted(name for name in names if not re.search(f'[`"]{name}[`"]', text)) == []


def test_policy_format_lists_the_record_fields_in_order():
    (fields,) = [block.split() for block in code_blocks(DOCS / "policy-formats.md", "") if block.startswith("id ")]
    assert tuple(fields) == REPOSITORY_FIELDS


def test_readme_commands_and_library_example_run(tmp_path, capsys):
    lines = [line for block in code_blocks(README, "sh") for line in block.splitlines() if line.startswith("sdnsec ")]
    assert lines, "no sdnsec command in README.md"
    for line in lines:
        # an output file goes under the test's directory
        assert main(shlex.split(line.replace("--out ", f"--out {tmp_path}/"))[1:]) == 0, line
    written = list(tmp_path.iterdir())
    assert len(written) == sum(line.count("--out ") for line in lines)
    assert all(path.read_text() for path in written)
    capsys.readouterr()
    (library,) = code_blocks(README, "python")
    exec(library, {})
    # the example's last line prints what its comment says
    assert capsys.readouterr().out == library.splitlines()[-1].partition("# ")[2] + "\n"


def table_rows(text: str, first: str) -> list[list[str]]:
    """The body rows of the Markdown table whose header starts with the
    cell ``first``, each cell stripped of spaces and backticks."""
    rows: list[list[str]] = []
    inside = False
    for line in text.splitlines():
        cells = [cell.strip().strip("`") for cell in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            inside = False
        elif cells[0] == first:
            inside = True
        elif inside and set(cells[0]) != {"-"}:
            rows.append(cells)
    return rows


def test_report_tables_name_every_counter_and_drop_reason():
    text = README.read_text()
    reasons = {row[0]: row[2] for row in table_rows(text, "reason")}
    assert set(reasons) == REASONS
    assert reasons == REASON_COUNTERS
    counters = [row[0] for row in table_rows(text, "counter")]
    assert sorted(counters) == sorted(run(load_scenario(bundled_scenario_path("minimal"))).counters)


def test_layout_table_has_one_row_per_module():
    rows = [row[0] for row in table_rows(README.read_text(), "module")]
    modules = [f"sdnsec.{info.name}" for info in pkgutil.iter_modules(sdnsec.__path__)]
    assert sorted(rows) == sorted(modules)
