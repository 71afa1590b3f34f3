"""The README stays in step with the code it documents."""

import argparse
import os
import re

from devmux.bench.cli import _build_parser

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")


def _cli_synopsis() -> dict:
    """Subcommand -> the text of its entry in the README's CLI block."""
    text = open(README, encoding="utf-8").read()
    block = re.search(r"^## CLI\n\n```\n(.*?)^```", text, re.M | re.S).group(1)
    entries = {}
    command = None
    for line in block.splitlines():
        if line.startswith("devmux-bench "):
            command = line.split()[1]
            entries[command] = ""
        entries[command] += line + "\n"
    return entries


def test_readme_cli_block_names_every_option_of_every_subcommand():
    parser = _build_parser()
    (subcommands,) = [a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)]
    entries = _cli_synopsis()
    assert sorted(entries) == sorted(subcommands.choices)
    missing = {}
    for name, sub in subcommands.choices.items():
        named = set(re.findall(r"--[a-z][a-z-]*", entries[name]))
        options = {opt for action in sub._actions
                   for opt in action.option_strings
                   if opt.startswith("--") and opt != "--help"}
        if options - named:
            missing[name] = sorted(options - named)
    assert missing == {}
