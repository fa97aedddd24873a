import ast
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_python_api_example_gives_its_commented_values():
    """Run README's ``python`` block; each expression commented with a literal gives it."""
    text = README.read_text(encoding="utf-8")
    block = text.split("## Python API", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(compile(block, str(README), "exec"), namespace)
    lines = block.splitlines()
    sources, literals = [], []
    for node in ast.parse(block).body:
        if not isinstance(node, ast.Expr):
            continue
        comment = lines[node.end_lineno - 1].partition("#")[2].strip()
        try:
            literals.append(ast.literal_eval(comment))
        except (ValueError, SyntaxError):
            continue  # a comment in words
        sources.append(ast.get_source_segment(block, node))
    assert literals == [{3: 0, 4: 0, 2: 1}, False, 2]
    values = [eval(source, namespace) for source in sources]
    assert values == literals
    assert values[1] is False
