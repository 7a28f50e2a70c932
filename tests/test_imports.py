"""Static checks: the package source imports only the standard library and
itself, and neither the package nor the tests import a name they never use."""

from __future__ import annotations

import ast
import graphlib
import importlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SOURCE = TESTS.parent / "src" / "superpatterns"


def _import_problems(path: Path) -> tuple[list[str], list[str]]:
    """(modules imported from outside the standard library and the package,
    imported names never used), each entry naming the file and line."""
    outside: list[str] = []
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.partition(".")[0]
                imported[alias.asname or root] = node.lineno
                if root != "superpatterns" and root not in sys.stdlib_module_names:
                    outside.append(f"{path.name}:{node.lineno} {alias.name}")
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__":
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
            root = (node.module or "").partition(".")[0]
            if node.level == 0 and root != "superpatterns" and root not in sys.stdlib_module_names:
                outside.append(f"{path.name}:{node.lineno} {node.module}")
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            # A name listed in __all__ is re-exported, which is a use.
            used.update(ast.literal_eval(node.value))
    unused = [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]
    return outside, unused


def test_imports_are_standard_library_or_package_and_all_used():
    outside: list[str] = []
    unused: list[str] = []
    for path in sorted(SOURCE.glob("*.py")):
        o, u = _import_problems(path)
        outside += o
        unused += u
    # The tests also import pytest and hypothesis, so only their names are checked.
    for path in sorted(TESTS.glob("*.py")):
        unused += _import_problems(path)[1]
    assert outside == [], "imports from outside the standard library"
    assert unused == [], "imported names never used"


def test_the_package_imports_at_module_level_with_no_cycle():
    # Each module states what it reads of the others at its top, so the
    # import graph is read off the module bodies, and no module reaches back
    # into one that imports it.
    nested: list[str] = []
    graph: dict[str, set[str]] = {}
    for path in sorted(SOURCE.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and node not in tree.body:
                nested.append(f"{path.name}:{node.lineno}")
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem] |= {node.module} if node.module else {alias.name for alias in node.names}
    assert nested == [], "imports below a function, class or block"
    assert set().union(*graph.values()) <= set(graph)
    list(graphlib.TopologicalSorter(graph).static_order())  # raises CycleError on a cycle


def test_a_fresh_import_loads_neither_dataclasses_nor_inspect():
    # Every CLI call starts a process that imports the package; the value
    # types share one slotted base, so no import pays for these two modules
    # and the ten others dataclasses loads.
    script = (
        "import sys\n"
        "import superpatterns, superpatterns.cli, superpatterns.oeis\n"
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    path = os.pathsep.join(filter(None, [str(SOURCE.parent), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True)
    assert run.stdout == "[]\n"


PERFBENCH = SOURCE.parents[1] / "perfbench"

# Exported because they define the terms the docs use (dense ranking,
# first-occurrence canonical form), though the program itself never calls
# them; the exact PMF as Fractions, for library callers, which the pmf
# command prints from Decimal pairs instead; and the package version.
KEEP = {"dense_rank", "relabel_canonical", "pmf_table", "__version__"}


def _references(path: Path) -> set[str]:
    """The names and attributes a module reads, leaving out those read
    inside the definition of the same name (a recursive call is no caller).
    Import statements and __all__ lists hold no references of this kind."""
    found: set[str] = set()

    def visit(node: ast.AST, inside: frozenset[str]) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.update({node.id} - inside)
        elif isinstance(node, ast.Attribute):
            found.update({node.attr} - inside)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(ast.parse(path.read_text(), filename=str(path)), frozenset())
    return found


def test_every_traced_name_is_a_library_attribute():
    # The benchmark's traced round wraps each (module, path) of TRACED and
    # exits 1 when one is gone.  Loading tracing.py installs nothing.
    spec = importlib.util.spec_from_file_location("tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module_name, path, _options in tracing.TRACED:
        owner = importlib.import_module(f"superpatterns.{module_name}")
        for attr in path.split("."):
            owner = getattr(owner, attr, None)
        if not callable(owner):
            missing.append(f"{module_name}.{path}")
    assert tracing.TRACED and missing == []


# The layer metrics of the check workload's traced pass.
CHECK_LAYERS = {
    "classify.classify_us",
    "classify.missing_us",
    "classify.min_length_s",
    "classify.quaternary_s",
    "patterns.contains_us",
    "patterns.hit_ratio",
}


def test_a_traced_check_pass_reports_every_layer(tmp_path):
    # The traced round exits 1 when a pass raises.  The check workload's
    # layers divide by the calls to patterns.contains_pattern, so a pass that
    # never calls it raises there.  The pass runs on a copy of the benchmark
    # and the source, so the spans it writes stay out of the checkout.
    root = SOURCE.parents[1]
    for name in ("perfbench", "src"):
        shutil.copytree(root / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    worker = tmp_path / "perfbench" / "worker.py"
    run = subprocess.run(
        [sys.executable, str(worker), "--workload", "check", "--seed", "1", "--mode", "traced"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    result = json.loads(run.stdout.splitlines()[-1])
    assert result["failed"] == 0, result["failures"]
    assert CHECK_LAYERS <= set(result["layers"])
    assert result["counts"]["patterns.contains_calls"] > 0


# What the benchmark's modules call the library; a traced round reads these
# names and the automaton's attributes below untraced, and exits 1 on any raise.
BENCHMARK_OWNERS = {
    "sp": "superpatterns",
    "workloads.sp": "superpatterns",
    "superpatterns.cli": "superpatterns.cli",
    "superpatterns.oeis": "superpatterns.oeis",
}
# Read by the probes, the check workload's verification and the simulate
# workload's counts.
AUTOMATON_READS = ("step", "scan", "transitions", "accepting", "state_count", "d")


def test_every_library_name_the_benchmark_reads_resolves():
    from superpatterns import ContainmentAutomaton

    reads = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and (module := BENCHMARK_OWNERS.get(ast.unparse(node.value))):
                reads.append((f"{path.name}:{node.lineno}", module, node.attr))
    missing = [
        f"{at} {module}.{name}" for at, module, name in reads if not hasattr(importlib.import_module(module), name)
    ]
    auto = ContainmentAutomaton(3, 3)
    missing += [f"ContainmentAutomaton.{name}" for name in AUTOMATON_READS if not hasattr(auto, name)]
    assert reads and missing == []


def test_every_export_has_a_caller_outside_the_tests():
    import superpatterns

    called = set(KEEP)
    for path in [*SOURCE.glob("*.py"), *PERFBENCH.glob("*.py")]:
        called |= _references(path)
    assert [name for name in superpatterns.__all__ if name not in called] == []


# The containment automaton alone decides how many states it may hold.
AUTOMATON_ONLY = {"SEARCH_STATE_BUDGET"}


def _identifiers(path: Path) -> set[str]:
    """Every name a module's code uses: variables, attributes, and imported
    names with their aliases."""
    return _identifiers_of(ast.parse(path.read_text(), filename=str(path)))


def _identifiers_of(tree: ast.AST) -> set[str]:
    """Every name the code below one syntax-tree node uses, as _identifiers."""
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.update({node.name, node.asname} - {None})
    return found


def test_only_the_automaton_names_its_budget():
    named = {
        path.name: sorted(_identifiers(path) & AUTOMATON_ONLY)
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "automaton.py"
    }
    assert {name: found for name, found in named.items() if found} == {}


def test_only_the_series_names_the_exact_context():
    # The recurrence forms its Decimal terms under a context of its own, so no
    # other module makes one that cannot round or switches contexts for it.
    named = [path.name for path in sorted(SOURCE.glob("*.py")) if _identifiers(path) & {"localcontext", "MAX_PREC"}]
    assert named == ["series.py"]


def test_the_dfa_names_no_automaton_cap():
    # _capped_patterns and the automaton refuse past their own caps when
    # _dfa calls them, so _dfa needs none of them to order its refusals.
    caps = {"MAX_INSTANCES", "_MAX_COMPONENTS", "SEARCH_STATE_BUDGET"}
    assert sorted(_identifiers(SOURCE / "_dfa.py") & caps) == []


def test_only_classify_names_the_word_cap():
    # The listings' default word cap lives in classify alone: the CLI passes
    # --budget through and holds no default of its own.
    named = [path.name for path in sorted(SOURCE.glob("*.py")) if "WORD_BUDGET" in _identifiers(path)]
    assert named == ["classify.py"]
    budget_options = _option_calls("--budget")
    assert budget_options and all(kw.arg != "default" for call in budget_options for kw in call.keywords)


def _option_calls(option: str) -> list[ast.Call]:
    """The calls in cli.py that declare the option, such as "--d"."""
    cli = ast.parse((SOURCE / "cli.py").read_text())
    return [
        call
        for call in ast.walk(cli)
        if isinstance(call, ast.Call)
        and any(isinstance(arg, ast.Constant) and arg.value == option for arg in call.args)
    ]


def test_only_the_generating_function_says_which_alphabets_are_solved():
    # waiting_time_gf refuses an unsolved alphabet; no --d option repeats
    # that list as argparse choices.
    d_options = _option_calls("--d")
    assert d_options and all(kw.arg != "choices" for call in d_options for kw in call.keywords)


def test_the_word_space_states_its_letter_rule_once():
    # Only _WordSpace.__init__ turns a rule into the pairs the other methods read.
    tree = ast.parse((SOURCE / "classify.py").read_text())
    space = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_WordSpace")
    named = [
        node.name
        for node in space.body
        if isinstance(node, ast.FunctionDef)
        and _identifiers_of(node) & {"_ANY", "_NO_REPEAT", "_CANONICAL"}
    ]
    assert named == ["__init__"]


def test_one_rule_picks_the_automaton_in_classify():
    # Counts and listings are both read off the word space's DP, which steps
    # what _automaton picks: the minimal DFA or the lazy automaton.  No other
    # definition reaches either, so a second search over automaton states,
    # or a second route rule, stays out.
    tree = ast.parse((SOURCE / "classify.py").read_text())
    named = [
        node.name
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and _identifiers_of(node) & {"get_automaton", "close_and_minimise"}
    ]
    assert named == ["_automaton"]


def _functions_where(found) -> list[str]:
    """The function definitions in the package source, as file:name, with
    some node below them for which found(node) holds."""
    return [
        f"{path.name}:{node.name}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.FunctionDef) and any(map(found, ast.walk(node)))
    ]


def test_only_get_automaton_makes_an_automaton():
    # Each call makes a new automaton its caller owns: the word-space DP steps
    # the one it asks for, and _dfa closes the components of its own.  No
    # other function constructs one.
    def makes(node: ast.AST) -> bool:
        return isinstance(node, ast.Call) and "ContainmentAutomaton" in _identifiers_of(node.func)

    assert _functions_where(makes) == ["automaton.py:get_automaton"]


def test_one_matcher_lists_pattern_instances():
    # Every pattern instance is stepped by patterns._Matcher: queries run it
    # on a word, the automaton interns its states, and _dfa joins the
    # automaton's components.  Only the matcher's builder lists instances.
    def lists(node: ast.AST) -> bool:
        named = isinstance(node, (ast.Name, ast.Attribute, ast.alias))
        return named and "combinations" in _identifiers_of(node)

    engines = {"automaton.py", "_dfa.py", "patterns.py"}
    listing = [name for name in _functions_where(lists) if name.partition(":")[0] in engines]
    assert listing == ["patterns.py:__init__"]
    tree = ast.parse((SOURCE / "patterns.py").read_text())
    matcher = next(node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "_Matcher")
    methods = [node for node in matcher.body if isinstance(node, ast.FunctionDef)]
    assert [node.name for node in methods if any(map(lists, ast.walk(node)))] == ["__init__"]


def test_only_the_cli_catches_an_overrun():
    # No search or query is retried after an overrun: it reaches the CLI,
    # which exits 3.  A handler of any base class of the overrun, or a bare
    # one, would catch it too.
    overrun = {"BudgetExceededError", "RuntimeError", "Exception", "BaseException"}

    def catches(node: ast.AST) -> bool:
        if not isinstance(node, ast.ExceptHandler):
            return False
        return node.type is None or bool(_identifiers_of(node.type) & overrun)

    assert _functions_where(catches) == ["cli.py:main"]


def test_only_patterns_names_the_pattern_length_cap():
    # One cap on pattern length serves every route: the enumerator checks it
    # before it lists anything, and every automaton lists its patterns first.
    named = {
        path.name: sorted(_identifiers(path) & {"MAX_PATTERN_LENGTH", "MAX_CLASSIFY_K"})
        for path in sorted(SOURCE.glob("*.py"))
    }
    assert {name: found for name, found in named.items() if found} == {"patterns.py": ["MAX_PATTERN_LENGTH"]}


def test_one_writer_picks_the_format_and_writes_the_output():
    # Every subcommand hands cli._write its text for each format.  Only the
    # writer reads --format or --out, opens a file or names stdout, which a
    # print with no file= argument writes to as well.
    def writes(node: ast.AST) -> bool:
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            return (node.value.id, node.attr) in {("args", "format"), ("args", "out"), ("sys", "stdout")}
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            return all(keyword.arg != "file" for keyword in node.keywords)
        return isinstance(node, ast.Name) and node.id == "open"

    assert [name for name in _functions_where(writes) if name.startswith("cli.py:")] == ["cli.py:_write"]
