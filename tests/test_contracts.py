"""Names other code relies on: the benchmark tracer and configs, the
README example, and the names the command line imports."""

import ast
import importlib.util
import re
import sys
from pathlib import Path

from hypobgk.cli import load_config

ROOT = Path(__file__).resolve().parents[1]


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps these (owner, attribute) pairs by name; a
    # traced benchmark pass dies when one of them is missing
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    targets = tracer.targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr)), (owner, attr, name)


def test_readme_library_example_runs():
    text = (ROOT / "README.md").read_text()
    section = text[text.index("## Library use"):]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_every_benchmark_config_loads(tmp_path, monkeypatch):
    # a config the reader rejects turns each command of its workload into
    # a failed benchmark operation
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look the module up while its classes are built
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for seed in (5, 6):
            cfg_dir = tmp_path / f"{name}-{seed}"
            assert workloads.build(name, seed, cfg_dir).commands
            for path in sorted(cfg_dir.glob("*.json")):
                load_config(path)


def test_cli_imports_no_private_names():
    # the commands bind only public names of the other package modules, so
    # whatever wraps or replaces what cli binds wraps public API
    tree = ast.parse((ROOT / "src" / "hypobgk" / "cli.py").read_text())
    private = [(node.module, alias.name) for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom)
               and (node.level or (node.module or "").startswith("hypobgk"))
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_package_imports_no_scipy():
    # pyproject lists numpy as the only runtime dependency; scipy is for
    # tests only
    found = []
    for path in sorted((ROOT / "src" / "hypobgk").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module or ""]
            else:
                continue
            found += [(path.name, name) for name in names
                      if name.split(".")[0] == "scipy"]
    assert found == []
