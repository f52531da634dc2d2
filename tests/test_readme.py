"""README.md as a test: its example configs run verbatim, write the files
it lists, with the top-level keys it lists for each JSON file, and write
them byte-identically when run again, its usage lines name only flags the
CLI accepts, and its config key list is the CLI's key table."""

import json
import re
import shlex
from pathlib import Path

import pytest

from qfluct import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _examples():
    """``{command: (config, [output file names], {JSON file name: [keys]})}``
    from the jsonc block: a ``// <command>.json:`` line opens an example, the
    JSON lines below it are its config, and the ``// ->`` comment lines list
    its output files, each JSON file followed by its keys in parentheses."""
    examples = {}
    block = re.search(r"```jsonc\n(.*?)```", README, re.S).group(1)
    for chunk in re.split(r"^// (?=\w+\.json:)", block, flags=re.M)[1:]:
        command = chunk.split(".json:", 1)[0]
        lines = chunk.splitlines()[1:]
        config = json.loads("".join(l for l in lines if not l.startswith("//")))
        notes = " ".join(l for l in lines if l.startswith("//"))
        keys = {name: listed.split(", ")
                for name, listed in re.findall(r"(\w+\.json)[\s/]*\(([^)]*)\)", notes)}
        examples[command] = (config, re.findall(r"[\w{}]+\.(?:csv|json)", notes), keys)
    return examples


EXAMPLES = _examples()


@pytest.mark.parametrize("command", ["gap", "converge", "circle", "junction"])
def test_readme_example_config_runs(tmp_path, command):
    config, outputs, json_keys = EXAMPLES[command]
    cfg_path = tmp_path / f"{command}.json"
    cfg_path.write_text(json.dumps(config))
    runs = [tmp_path / "first", tmp_path / "second"]
    for out in runs:
        assert cli.main([command, "--config", str(cfg_path), "--out", str(out)]) == 0
    want = {name.format(n=n) for name in outputs
            for n in (config["n_list"] if "{n}" in name else [None])}
    assert want and {p.name for p in runs[0].iterdir()} == want
    for name in want:  # identical configs give byte-identical files
        assert (runs[0] / name).read_bytes() == (runs[1] / name).read_bytes(), name
    assert set(json_keys) == {name for name in want if name.endswith(".json")}
    for name, keys in json_keys.items():
        payload = json.loads((runs[0] / name).read_text())
        assert sorted(set(payload) - {"_provenance"}) == sorted(keys), name


def test_readme_usage_lines_parse():
    # optional arguments are shown in brackets; they must parse too
    usage = [shlex.split(line.replace("[", "").replace("]", ""))[1:]
             for line in README.splitlines() if line.startswith("qfluct ")]
    assert [argv[0] for argv in usage] == ["gap", "converge", "circle", "junction",
                                           "selftest"]
    parser = cli._build_parser()
    for argv in usage:
        parser.parse_args(argv)  # exits 2 on a flag the command does not know


def _documented_keys():
    """``{name: {key: default text, or None if required}}`` from the bullets
    below "Config keys": ``* `name`...: `a`, `b` required; `c` = `1.0`, ...``."""
    block = README.split("\nConfig keys", 1)[1].split("\n\n")[1]
    documented = {}
    for bullet in block.split("\n* "):
        name, keys = " ".join(bullet.split()).split(": ", 1)
        required, defaults = keys.split(" required; ")
        documented[re.search(r"`(\w+)`", name).group(1)] = {
            **{key: None for key in re.findall(r"`(\w+)`", required)},
            **dict(re.findall(r"`(\w+)` = `([^`]*)`", defaults)),
        }
    return documented


def test_readme_config_keys_match_the_cli_table():
    tables = {**cli._CONFIG_KEYS, "left": cli._LAYER_KEYS}
    documented = _documented_keys()
    assert set(documented) == set(tables)
    for name, table in tables.items():
        want = {}
        for key, (_, default) in table.items():
            if default is cli._REQUIRED:
                want[key] = None
            else:
                want[key] = json.dumps(default)
        assert documented[name] == want, name
