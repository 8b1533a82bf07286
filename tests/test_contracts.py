"""Names other code relies on: the benchmark tracer and the README example."""

import importlib.util
import re
from pathlib import Path

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
