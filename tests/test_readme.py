from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_in_readme_runs():
    # the python block under "## Library": a doc that names a function the
    # package no longer has fails here
    library = README.read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    code = library.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, str(README), "exec"), {})
