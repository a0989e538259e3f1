"""The docs must keep pace with the system — enforced, not hoped.

Three guarantees:

1. every ``examples/*.py`` executes headlessly, end to end;
2. every ``repro <subcommand>`` the docs mention exists in the CLI (and
   second-level actions like ``fleet up`` / ``bench fleet`` resolve),
   and every ``--flag`` written after it is an option of that parser;
3. every backticked ``repro.*`` dotted symbol in the docs imports, and
   every relative markdown link (including ``#anchors``) resolves.

A doc that references a renamed command, a deleted symbol, or a moved
file fails here, in CI, before it can mislead anyone.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"
DOC_FILES = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")]
)
EXAMPLES = sorted((REPO_ROOT / "examples").glob("*.py"))

#: ``repro <cmd> [<arg>]`` mentions; args starting with ``-`` don't match.
_CLI_RE = re.compile(r"\brepro\s+([a-z][a-z0-9_-]*)(?:\s+([a-z][a-z0-9_-]*))?")
#: The further commands of an alternation like ``repro predict|serve``.
_ALT_RE = re.compile(r"(?:\|[a-z][a-z0-9_-]*)+")
#: Long options (``--chunk-size``), not the tail of a word like ``a--b``.
_FLAG_RE = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
#: A mention's flags end at a backtick, a blank line or the next mention.
_FLAG_SCOPE_END_RE = re.compile(r"`|\n\s*\n|\brepro\s")

#: Backticked content; dotted repro.* symbols are filtered from it.
_BACKTICK_RE = re.compile(r"`([^`\n]+)`")
_DOTTED_RE = re.compile(r"repro(?:\.[A-Za-z_][A-Za-z0-9_]*)+")

#: Markdown links ``[text](target)``.
_LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")


def _doc_text() -> list[tuple[Path, str]]:
    assert DOC_FILES, "no docs found — did docs/ move?"
    return [(path, path.read_text(encoding="utf-8")) for path in DOC_FILES]


# --------------------------------------------------------------------- #
# 1. Examples execute                                                     #
# --------------------------------------------------------------------- #


@pytest.mark.parametrize(
    "example", EXAMPLES, ids=[path.name for path in EXAMPLES]
)
def test_example_executes_headlessly(example):
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env.setdefault("MPLBACKEND", "Agg")
    result = subprocess.run(
        [sys.executable, str(example)],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, (
        f"{example.name} exited {result.returncode}\n"
        f"--- stdout ---\n{result.stdout[-2000:]}\n"
        f"--- stderr ---\n{result.stderr[-2000:]}"
    )


def test_every_example_is_in_the_readme():
    """The README example table must list every script that exists."""
    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    missing = [e.name for e in EXAMPLES if f"examples/{e.name}" not in readme]
    assert not missing, f"examples missing from README.md: {missing}"


# --------------------------------------------------------------------- #
# 2. CLI references resolve                                               #
# --------------------------------------------------------------------- #


def _cli_choices():
    """Top-level subcommands, their second-token vocabularies, and the
    option strings of each ``(command, action)`` parser (``action`` is
    ``None`` for the command's own parser)."""
    import argparse

    from repro.cli import build_parser
    from repro.experiments.paper import EXPERIMENTS

    def option_strings(parser):
        return {opt for action in parser._actions for opt in action.option_strings}

    parser = build_parser()
    subparsers = next(
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    )
    commands = dict(subparsers.choices)
    second: dict[str, set[str]] = {}
    options: dict[tuple[str, str | None], set[str]] = {}
    for name, sub in commands.items():
        vocab: set[str] = set()
        options[(name, None)] = option_strings(sub)
        for action in sub._actions:
            if isinstance(action, argparse._SubParsersAction):
                vocab |= set(action.choices)  # fleet/registry actions
                for act_name, act_parser in action.choices.items():
                    options[(name, act_name)] = option_strings(act_parser)
            elif action.choices and not action.option_strings:
                vocab |= {c for c in action.choices if isinstance(c, str)}
        second[name] = vocab
    second["paper"] |= set(EXPERIMENTS)
    return set(commands), second, options


def _flag_scope(text: str, start: int) -> str:
    """The text after a mention that its ``--flags`` are read from: up to
    the next backtick, blank line or ``repro`` mention, and inside a
    fenced code block up to the end of the (backslash-continued) line."""
    end = _FLAG_SCOPE_END_RE.search(text, start)
    stop = end.start() if end else len(text)
    if text.count("```", 0, start) % 2:  # inside a fenced block
        newline = start
        while (newline := text.find("\n", newline, stop)) != -1:
            if not text[:newline].rstrip().endswith("\\"):
                return text[start:newline]
            newline += 1
    return text[start:stop]


def test_doc_cli_references_exist():
    commands, second, options = _cli_choices()
    problems = []
    for path, text in _doc_text():
        for match in _CLI_RE.finditer(text):
            command, arg = match.group(1), match.group(2)
            if command not in commands:
                problems.append(f"{path.name}: unknown command 'repro {command}'")
                continue
            if arg and second[command] and arg not in second[command]:
                problems.append(
                    f"{path.name}: 'repro {command} {arg}' — "
                    f"{arg!r} is not a known {command} action"
                )
            names, tail_start = [command], match.end()
            alternation = _ALT_RE.match(text, match.end(1)) if arg is None else None
            if alternation:
                names += alternation.group(0)[1:].split("|")
                tail_start = alternation.end()
            for flag in _FLAG_RE.findall(_flag_scope(text, tail_start)):
                for name in names:
                    known = options.get((name, arg), options.get((name, None), set()))
                    if flag not in known:
                        problems.append(
                            f"{path.name}: 'repro {name} ... {flag}' — "
                            f"{flag} is not a {name} option"
                        )
    assert not problems, "\n".join(problems)


def test_doc_cli_references_cover_the_surface():
    """Every user-facing subcommand must be documented somewhere."""
    commands, _, _ = _cli_choices()
    text = "\n".join(body for _, body in _doc_text())
    mentioned = {m.group(1) for m in _CLI_RE.finditer(text)}
    undocumented = commands - mentioned
    assert not undocumented, f"subcommands absent from docs: {sorted(undocumented)}"


# --------------------------------------------------------------------- #
# 3. Symbols import, links resolve                                        #
# --------------------------------------------------------------------- #


def _resolve_dotted(symbol: str) -> bool:
    import importlib

    parts = symbol.split(".")
    for split in range(len(parts), 0, -1):
        module_name = ".".join(parts[:split])
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            continue
        try:
            for attr in parts[split:]:
                target = getattr(target, attr)
        except AttributeError:
            return False
        return True
    return False


def test_doc_symbols_resolve():
    problems = []
    for path, text in _doc_text():
        for backtick in _BACKTICK_RE.finditer(text):
            content = backtick.group(1)
            for match in _DOTTED_RE.finditer(content):
                if content[match.end() : match.end() + 1] == "/":
                    continue  # a path-ish tag like the bench schema id
                if not _resolve_dotted(match.group(0)):
                    problems.append(
                        f"{path.name}: `{match.group(0)}` does not resolve"
                    )
    assert not problems, "\n".join(problems)


def _github_slug(heading: str) -> str:
    slug = heading.strip().lower()
    slug = re.sub(r"[^\w\s-]", "", slug)
    return re.sub(r"\s+", "-", slug)


def _anchors(path: Path) -> set[str]:
    anchors = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            anchors.add(_github_slug(line.lstrip("#")))
    return anchors


def test_doc_relative_links_resolve():
    problems = []
    for path, text in _doc_text():
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            file_part, _, anchor = target.partition("#")
            resolved = (
                path if not file_part else (path.parent / file_part).resolve()
            )
            if not resolved.exists():
                problems.append(f"{path.name}: broken link -> {target}")
                continue
            if anchor and resolved.suffix == ".md":
                if anchor not in _anchors(resolved):
                    problems.append(
                        f"{path.name}: dead anchor -> {target} "
                        f"(no heading slug {anchor!r} in {resolved.name})"
                    )
    assert not problems, "\n".join(problems)


def test_doc_file_references_exist():
    """Backticked repo paths (src/..., tests/..., examples/...) exist."""
    problems = []
    prefixes = ("src/", "tests/", "examples/", "docs/", "benchmarks/")
    for path, text in _doc_text():
        for backtick in _BACKTICK_RE.finditer(text):
            content = backtick.group(1).split("::")[0]
            if content.startswith(prefixes) and " " not in content:
                if "*" in content:
                    if not list(REPO_ROOT.glob(content)):
                        problems.append(
                            f"{path.name}: `{content}` matches nothing"
                        )
                elif not (REPO_ROOT / content).exists():
                    problems.append(f"{path.name}: `{content}` does not exist")
    assert not problems, "\n".join(problems)
